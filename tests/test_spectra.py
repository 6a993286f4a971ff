"""Eigensolver contracts, edge-state analytics and spectrum traces."""

import json

import numpy as np
import pytest

from topochain import (
    InvalidParameterError,
    NumericError,
    PhaseDomainError,
    analytic_edge_states,
    bell_transfer_schedule,
    edge_weight,
    eigendecompose,
    instantaneous_spectrum,
    optimized_schedule,
    pump_schedule,
)
from topochain import spectra
from topochain.config import parse_config
from topochain.presets import PRESETS
from topochain._kernels import MIRROR_TOL, tridiag_eigh
from topochain.models import (SITES_PER_CELL, ChainHamiltonian, FunctionSpec, Schedule, chain_arrays, const,
                              schedule_arrays)
from topochain.spectra import EDGE_FLAG_THRESHOLD, _fix_signs, coupling_ratio_norm_sq, trace_from_hamiltonians

from conftest import dense_eigvals, localization_length, make_chain, random_chain, trimer_edge_states


def test_two_site_spectrum():
    s = eigendecompose(ChainHamiltonian(np.zeros(2), np.array([0.5])))
    assert np.allclose(s.eigenvalues, [-0.5, 0.5], atol=1e-15)


def test_14_site_ssh_midgap_pair():
    s = eigendecompose(make_chain("ssh", 7, a=0.1, b=1.0))
    magnitudes = np.sort(np.abs(s.eigenvalues))
    assert magnitudes[1] < 1e-6
    assert magnitudes[2] > 0.85


def test_four_site_eigenvalues_to_quartic_roots():
    a, b = 0.1, 1.0
    s = eigendecompose(make_chain("ssh", 2, a=a, b=b))
    e_sq = np.roots([1.0, -(2 * a * a + b * b), a**4])
    expected = np.sort(np.concatenate([-np.sqrt(e_sq), np.sqrt(e_sq)]))
    assert np.abs(s.eigenvalues - expected).max() < 1e-6


def test_eigendecompose_contracts(rng):
    for _ in range(60):
        h = random_chain(rng, max_sites=10)
        s = eigendecompose(h)
        assert np.all(np.diff(s.eigenvalues) >= -1e-14)
        norms = np.linalg.norm(s.eigenvectors, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12
        scale = np.maximum(1.0, np.abs(s.eigenvalues))
        resid = np.abs(h.to_dense() @ s.eigenvectors - s.eigenvectors * s.eigenvalues)
        assert (resid.max(axis=0) <= 1e-10 * scale).all()
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(gram - np.eye(h.n_sites)).max() <= 1e-10


def test_eigendecompose_matches_dense_oracle(rng):
    for _ in range(200):
        h = random_chain(rng, max_sites=8)
        vals = eigendecompose(h).eigenvalues
        assert np.abs(vals - dense_eigvals(h)).max() <= 1e-10


def test_sign_convention_deterministic(rng):
    h = random_chain(rng, max_sites=9)
    a = eigendecompose(h).eigenvectors
    b = eigendecompose(h).eigenvectors
    assert np.array_equal(a, b)
    lead = np.argmax(np.abs(a), axis=0)
    assert np.all(a[lead, np.arange(a.shape[1])] > 0)


def test_sign_gauge_matches_dense_solver_on_mirror_symmetric_chains():
    # Mirror symmetry makes the two largest components of a column tie in
    # magnitude; the gauge must not let the solver's rounding pick between them.
    for h in (
        make_chain("trimer", 8, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0),
        ChainHamiltonian(*schedule_arrays(pump_schedule(100.0), 7, 25.0)),
        make_chain("rm", 7, a=0.3, b=1.0, u=0.0),
    ):
        _, dense = np.linalg.eigh(h.to_dense())
        assert np.abs(eigendecompose(h).eigenvectors - _fix_signs(dense)).max() <= 1e-10


def test_chiral_symmetry_of_zero_diagonal_chains(rng):
    for _ in range(60):
        h = random_chain(rng, max_sites=12, zero_diagonal=True)
        vals = eigendecompose(h).eigenvalues
        assert np.abs(vals + vals[::-1]).max() <= 1e-10


def test_eigendecompose_rejects_nonfinite():
    h = make_chain("ssh", 2, a=0.1, b=1.0)
    bad = ChainHamiltonian.__new__(ChainHamiltonian)
    object.__setattr__(bad, "diagonal", np.array([0.0, np.nan]))
    object.__setattr__(bad, "offdiagonal", np.array([1.0]))
    with pytest.raises(NumericError):
        eigendecompose(bad)
    assert eigendecompose(h)  # untouched path still fine


# -- analytic edge states ----------------------------------------------------


def test_edge_states_a_zero_limit():
    pair = analytic_edge_states(0.0, 1.0, 5)
    assert pair.xi_norm == 1.0
    assert np.array_equal(pair.left, np.eye(10)[0])
    assert np.array_equal(pair.right, np.eye(10)[9])


def test_edge_states_decay_and_support():
    pair = analytic_edge_states(0.1, 1.0, 7)
    assert abs(pair.xi_norm**2 - 0.99) < 1e-10
    assert np.all(pair.left[1::2] == 0.0)
    assert np.all(pair.right[0::2] == 0.0)
    amps = pair.left[0::2]
    assert np.allclose(amps[1:] / amps[:-1], -0.1, atol=1e-14)
    assert abs(np.linalg.norm(pair.left) - 1.0) < 1e-14


def test_edge_states_match_degenerate_subspace():
    s = eigendecompose(make_chain("ssh", 7, a=0.1, b=1.0))
    idx = np.argsort(np.abs(s.eigenvalues))[:2]
    sub = s.eigenvectors[:, idx]
    pair = analytic_edge_states(0.1, 1.0, 7)
    for sign in (1.0, -1.0):
        hybrid = (pair.left + sign * pair.right) / np.sqrt(2.0)
        overlap = np.linalg.norm(sub @ (sub.T @ hybrid)) ** 2
        assert overlap >= 1.0 - 1e-6


def test_edge_states_reject_trivial_phase():
    with pytest.raises(PhaseDomainError):
        analytic_edge_states(1.0, 1.0, 7)
    with pytest.raises(PhaseDomainError):
        analytic_edge_states(1.2, 1.0, 7)


def test_coupling_ratio_norm_limit():
    assert coupling_ratio_norm_sq(1.0, 7) == pytest.approx(1.0 / 7)
    assert coupling_ratio_norm_sq(0.0, 7) == 1.0


# -- trimer edge states -------------------------------------------------------


def test_trimer_edge_states_a_zero():
    st = trimer_edge_states(0.0, 1.0, 4)
    root2 = np.sqrt(2.0)
    expect_plus = np.zeros(12)
    expect_plus[0] = expect_plus[1] = 1 / root2
    assert np.array_equal(st.left_plus, expect_plus)
    expect_minus = np.zeros(12)
    expect_minus[0], expect_minus[1] = 1 / root2, -1 / root2
    assert np.array_equal(st.left_minus, expect_minus)


def test_trimer_edge_states_sublattice_support():
    st = trimer_edge_states(1.0, 2.0, 8)
    for state in (st.left_plus, st.left_minus):
        assert np.all(state[2::3] == 0.0)  # no C-site weight
    for state in (st.right_plus, st.right_minus):
        assert np.all(state[0::3] == 0.0)  # no A-site weight
    for state in st.all_states():
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_trimer_edge_states_orthonormal_deep_in_phase():
    # exact cross overlaps <L+-|R+-> = +-Xi^2 lam^(L-1) L / 2 vanish only
    # for small lam; at lam = a/c = 0.01 they sit far below 1e-10
    st = trimer_edge_states(0.01, 1.0, 8)
    states = np.column_stack(st.all_states())
    gram = states.T @ states
    assert np.abs(gram - np.eye(4)).max() <= 1e-10


def test_trimer_hybrids_match_in_gap_subspaces():
    s = eigendecompose(make_chain("trimer", 8, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0))
    st = trimer_edge_states(1.0, 2.0, 8)
    lower = s.eigenvectors[:, (s.eigenvalues > -1.1) & (s.eigenvalues < -0.9)]
    upper = s.eigenvectors[:, (s.eigenvalues > 0.9) & (s.eigenvalues < 1.1)]
    assert lower.shape[1] == 2 and upper.shape[1] == 2
    for sub, plus_family in ((upper, True), (lower, False)):
        left, right = (st.left_plus, st.right_plus) if plus_family else (st.left_minus, st.right_minus)
        for sign in (1.0, -1.0):
            hybrid = left + sign * right
            hybrid = hybrid / np.linalg.norm(hybrid)
            overlap = np.linalg.norm(sub @ (sub.T @ hybrid)) ** 2
            assert overlap >= 0.999


def test_trimer_edge_states_reject_trivial_phase():
    with pytest.raises(PhaseDomainError):
        trimer_edge_states(2.0, 1.0, 8)


# -- localization length -------------------------------------------------------


def test_localization_length_values():
    assert localization_length(0.1, 1.0) == pytest.approx(1.0 / np.log(10.0), rel=1e-12)
    assert localization_length(0.99, 1.0) > 99.0
    assert localization_length(0.0, 1.0) == 0.0
    with pytest.raises(PhaseDomainError):
        localization_length(1.0, 0.5)


def test_localization_length_matches_edge_decay():
    a, b, L = 0.3, 1.0, 9
    xi = localization_length(a, b)
    pair = analytic_edge_states(a, b, L)
    amps = np.abs(pair.left[0::2])
    j = np.arange(1, 2 * L, 2, dtype=float)
    predicted = amps[0] * np.exp(-(j - 1) / (2 * xi))
    assert np.abs(amps - predicted).max() <= 1e-12


# -- edge weight and traces -----------------------------------------------------


def test_edge_weight_basics():
    e1 = np.eye(14)[0]
    assert edge_weight(e1, 1) == 1.0
    uniform = np.full(14, 1 / np.sqrt(14))
    assert edge_weight(uniform, 1) == pytest.approx(2 / 14)
    assert edge_weight(uniform, 7) == pytest.approx(1.0)
    assert edge_weight(uniform, 10) == pytest.approx(1.0)  # windows overlap, count once


def test_edge_weight_analytic_left_state():
    pair = analytic_edge_states(0.1, 1.0, 7)
    # closed form: left-edge cells carry Xi^2*(1+0); the right tail adds
    # Xi^2 lam^(2(L-1)) ~ 1e-13
    assert edge_weight(pair.left, 2) == pytest.approx(0.99, abs=1e-10)


def test_instantaneous_spectrum_static_schedule():
    sch = Schedule("ssh", 10.0, {"a": const(0.1), "b": const(1.0)})
    trace = instantaneous_spectrum(sch, 7, 5)
    assert np.abs(trace.energies - trace.energies[0]).max() == 0.0
    assert trace.edge_flags[:, 6:8].all()


def test_instantaneous_spectrum_pump_degenerate_start():
    trace = instantaneous_spectrum(pump_schedule(100.0), 7, 51)
    start = trace.energies[0]
    mid = np.sort(np.abs(start))[:2]
    assert mid.max() < 1e-6
    assert trace.edge_flags[0].sum() == 2


def test_instantaneous_spectrum_optimized_gap_stays_open():
    trace = instantaneous_spectrum(optimized_schedule(100.0), 7, 101)
    followed = 7  # ascending index of the upper mid-gap branch for 14 sites
    gaps = []
    for i in range(trace.times.size):
        energies = trace.energies[i]
        others = [
            abs(energies[j] - energies[followed])
            for j in range(energies.size)
            if j != followed and not trace.edge_flags[i, j]
        ]
        gaps.append(min(others))
    assert min(gaps) > 0.0


def test_trace_from_hamiltonians_rejects_mixed_sizes():
    # bonds of a 6-site chain against diagonals of a 4-site one
    h4, h6 = make_chain("ssh", 2, a=0.1, b=1.0), make_chain("ssh", 3, a=0.1, b=1.0)
    with pytest.raises(InvalidParameterError):
        trace_from_hamiltonians([0.0, 1.0], np.stack([h4.diagonal] * 2), np.stack([h6.offdiagonal] * 2), 2)


def _per_time_trace(chains, n_edge_sites):
    # the reference: one eigendecompose per chain, one edge_weight per level
    energies, flags = [], []
    for h in chains:
        s = eigendecompose(h)
        energies.append(s.eigenvalues)
        flags.append([edge_weight(s.eigenvectors[:, j], n_edge_sites) >= EDGE_FLAG_THRESHOLD
                      for j in range(h.n_sites)])
    return np.array(energies), np.array(flags)


def _schedule_stack(schedule, L, k=201):
    times = np.linspace(0.0, schedule.period, k)
    return (times, *schedule_arrays(schedule, L, times), SITES_PER_CELL[schedule.kind])


def _sweep_stack(kind, L, params, name, values):
    # a parameter sweep laid out as the runner lays it out
    diag, off = chain_arrays(kind, L, {**params, name: values[:, np.newaxis]}, values.shape)
    return values, diag, off, SITES_PER_CELL[kind]


def _energylevel_stack():
    return _sweep_stack("ssh", 7, {"b": 1.0}, "a", np.linspace(0.0, 2.0, 201))


@pytest.mark.parametrize(
    "stack, solved",
    [(lambda: _schedule_stack(pump_schedule(100.0), 7), 101),
     (lambda: _schedule_stack(bell_transfer_schedule(), 7), 101),
     (_energylevel_stack, 201)],
    ids=["pump-degenerate-start", "bell-transfer", "energylevel"],
)
def test_batched_trace_matches_per_time_eigendecompose(stack, solved):
    # the solved rows are bitwise those of a per-time eigendecompose; the
    # mirrored ones are copies, which move energies by rounding, and flags
    # only at a level degenerate with another, whose edge weight follows the
    # basis dstevd picks in the degenerate subspace
    times, diag, off, n_edge = stack()
    trace = trace_from_hamiltonians(times, diag, off, n_edge)
    energies, flags = _per_time_trace([ChainHamiltonian(d, o) for d, o in zip(diag, off)], n_edge)
    assert trace.solved == solved
    assert np.array_equal(trace.energies[:solved], energies[:solved])
    assert np.array_equal(trace.edge_flags[:solved], flags[:solved])
    assert np.abs(trace.energies - energies).max() <= 1e-13
    gaps = np.abs(energies[:, :, np.newaxis] - energies[:, np.newaxis, :])
    gaps[:, np.arange(diag.shape[1]), np.arange(diag.shape[1])] = np.inf
    isolated = gaps.min(axis=2) > 1e-9
    assert np.array_equal(trace.edge_flags[isolated], flags[isolated])


def _loop_trace(diag, off, n_edge_sites):
    # the trace without the mirror: one tridiag_eigh and edge_weight per row
    energies, flags = np.empty(diag.shape), np.empty(diag.shape, dtype=bool)
    for i in range(len(diag)):
        energies[i], vectors = tridiag_eigh(diag[i], off[i])
        flags[i] = edge_weight(vectors, n_edge_sites) >= EDGE_FLAG_THRESHOLD
    return energies, flags


def _preset_trace_stack(figure_id, name):
    opts = parse_config(json.dumps(dict(PRESETS[figure_id])[name])).options
    return _schedule_stack(opts["schedule"], opts["L"], opts["n_times"])


def _perturbed_plain(factor):
    # the plain pump with one on-site energy moved by ``factor`` MIRROR_TOL
    # of the stack's largest |entry| away from its mirror partner's
    times, diag, off, n_edge = _schedule_stack(pump_schedule(100.0), 7)
    diag[50, 0] += factor * MIRROR_TOL * max(np.abs(diag).max(), np.abs(off).max())
    return times, diag, off, n_edge


_MIRRORED_STACKS = {
    "plain": lambda: _schedule_stack(pump_schedule(100.0), 7),
    "optimized": lambda: _schedule_stack(optimized_schedule(100.0), 7),
    "bell": lambda: _schedule_stack(bell_transfer_schedule(), 7),
    "trimer-intercell": lambda: _preset_trace_stack("trimer", "trimer_intercell"),
    "rm-u-sweep": lambda: _sweep_stack("rm", 7, {"a": 0.3, "b": 1.0}, "u", np.linspace(-0.5, 0.5, 41)),
    "even-rows": lambda: _schedule_stack(pump_schedule(100.0), 7, k=200),
    "tolerance-half": lambda: _perturbed_plain(0.5),
}


@pytest.mark.parametrize("case", sorted(_MIRRORED_STACKS))
def test_mirror_symmetric_trace_solves_its_first_half(case):
    times, diag, off, n_edge = _MIRRORED_STACKS[case]()
    k = times.size
    if case == "trimer-intercell":  # c -> -c: the bonds mirror in magnitude only
        assert not np.array_equal(off[::-1, ::-1], off)
    trace = trace_from_hamiltonians(times, diag, off, n_edge)
    assert trace.solved == (k + 1) // 2
    energies, flags = _loop_trace(diag[:trace.solved], off[:trace.solved], n_edge)
    assert np.array_equal(trace.energies[:trace.solved], energies)
    assert np.array_equal(trace.edge_flags[:trace.solved], flags)
    # each mirrored row is an exact copy of its partner
    assert np.array_equal(trace.energies[::-1], trace.energies)
    assert np.array_equal(trace.edge_flags[::-1], trace.edge_flags)


_DIRECT_STACKS = {
    "energylevel": _energylevel_stack,
    "plain-u-phase": lambda: _schedule_stack(
        Schedule("rm", 100.0, dict(pump_schedule(100.0).params, u=FunctionSpec("sin", amplitude=1.0, phase=0.3))), 7),
    "tolerance-4x": lambda: _perturbed_plain(4.0),
}


@pytest.mark.parametrize("case", sorted(_DIRECT_STACKS))
def test_asymmetric_trace_solves_every_row_as_before(case):
    times, diag, off, n_edge = _DIRECT_STACKS[case]()
    trace = trace_from_hamiltonians(times, diag, off, n_edge)
    assert trace.solved == times.size
    energies, flags = _loop_trace(diag, off, n_edge)
    assert np.array_equal(trace.energies, energies)
    assert np.array_equal(trace.edge_flags, flags)


def test_mirrored_trace_calls_the_eigensolver_for_its_first_half(monkeypatch):
    calls = []

    def counted(d, e):
        calls.append(d.size)
        return tridiag_eigh(d, e)

    monkeypatch.setattr(spectra, "tridiag_eigh", counted)
    for k in (201, 200):
        calls.clear()
        trace = trace_from_hamiltonians(*_schedule_stack(pump_schedule(100.0), 7, k))
        assert len(calls) == trace.solved == (k + 1) // 2
    calls.clear()
    trace_from_hamiltonians(*_energylevel_stack())
    assert len(calls) == 201


def test_batched_trimer_sweep_matches_per_chain_eigendecompose():
    values = np.linspace(0.0, 2.0, 41)
    chains = [make_chain("trimer", 8, a=a, b=a, c=2.0, u=0.0, v=0.0, w=0.0) for a in values]
    trace = trace_from_hamiltonians(values, np.stack([h.diagonal for h in chains]),
                                    np.stack([h.offdiagonal for h in chains]), 3, axis_name="a")
    energies, flags = _per_time_trace(chains, 3)
    assert np.array_equal(trace.energies, energies)
    assert np.array_equal(trace.edge_flags, flags)
    assert trace.edge_flags.any() and trace.axis_name == "a"


@pytest.mark.parametrize("n, n_edge_sites", [(14, 2), (24, 3), (5, 3), (4, 0)])
def test_edge_weight_of_a_matrix_is_per_column(rng, n, n_edge_sites):
    states = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    weights = edge_weight(states, n_edge_sites)
    assert np.array_equal(weights, [edge_weight(states[:, j], n_edge_sites) for j in range(n)])


def test_trace_from_hamiltonians_rejects_bad_stacks():
    diag, off = schedule_arrays(pump_schedule(100.0), 3, np.linspace(0.0, 50.0, 4))
    bad = diag.copy()
    bad[2, 1] = np.nan
    with pytest.raises(NumericError):
        trace_from_hamiltonians([0.0, 1.0, 2.0, 3.0], bad, off, 2)
    off_bad = off.copy()
    off_bad[0, 0] = np.inf
    with pytest.raises(NumericError):
        trace_from_hamiltonians([0.0, 1.0, 2.0, 3.0], diag, off_bad, 2)
    for times in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]):
        with pytest.raises(InvalidParameterError):
            trace_from_hamiltonians(times, diag, off, 2)
