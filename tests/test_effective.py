"""Landau-Zener reduction, path classification and reduced-model dynamics."""

import json
import warnings

import mpmath
import numpy as np
import pytest

from topochain import (
    ChainHamiltonian,
    IntegratorConfig,
    InvalidParameterError,
    LZPath,
    PathClass,
    PhaseDomainError,
    bell_transfer_schedule,
    classify_path,
    compare_reduction,
    eigendecompose,
    io,
    lz_evolve,
    optimized_schedule,
    pump_schedule,
)
from topochain._kernels import tridiag_eigh
from topochain.effective import edge_coupling, reduced_arrays, trimer_pair_elements
from topochain.config import _integration, parse_config
from topochain.models import FunctionSpec, Schedule, const, schedule_arrays
from topochain.spectra import coupling_ratio_norm_sq

from conftest import make_chain, path_c_frame, path_c_hamiltonian, trimer_edge_states


def _midgap_splitting(h):
    vals = np.linalg.eigvalsh(h.to_dense())
    pair = vals[np.argsort(np.abs(vals))[:2]]
    return float(pair.max() - pair.min())


def _rm(a, b, u, L):
    return reduced_arrays("rm", L, {"a": a, "b": b, "u": u})


def test_reduce_rm_values():
    diag, off = _rm(0.0, 1.0, 0.3, 5)
    assert diag.tolist() == [0.3, -0.3] and off.tolist() == [0.0]
    diag, off = _rm(0.1, 1.0, 0.0, 7)
    assert off[0] == pytest.approx(9.9e-8, rel=1e-10)
    assert diag[0] + diag[1] == 0.0  # no offset


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5])
def test_reduce_rm_matches_exact_half_splitting(a):
    g = _rm(a, 1.0, 0.0, 7)[1][0]
    half = _midgap_splitting(make_chain("ssh", 7, a=a, b=1.0)) / 2.0
    assert abs(abs(g) - half) / abs(g) <= 0.05


def test_reduce_rm_rejects_trivial_phase():
    with pytest.raises(PhaseDomainError, match="a=1.0, b=1.0"):
        _rm(1.0, 1.0, 0.0, 7)
    # one point outside the phase is enough; the message names the first
    with pytest.raises(PhaseDomainError, match="a=-1.5, b=1.0"):
        _rm(np.array([[0.2], [-1.5], [2.0]]), 1.0, np.zeros((3, 1)), 7)


def test_g_parity_closed_form(rng):
    # g(a) g(-a) = (-1)^L g(a)^2 follows from lam = -a/b; the sign factor
    # is (-1)^L, not (-1)^(L-1): lam^(L-1) contributes (-1)^(L-1) and the
    # prefactor a contributes one more sign flip.
    for _ in range(20):
        L = int(rng.integers(1, 9))
        a = float(rng.uniform(0.05, 0.8))
        g_plus = edge_coupling(a, 1.0, L)
        g_minus = edge_coupling(-a, 1.0, L)
        assert g_plus * g_minus == pytest.approx((-1.0) ** L * g_plus**2, rel=1e-12)


def _lam_form(a, b, L):
    # Xi^2(lam) * a * lam^(L-1) with lam = -a/b alone, which overflows for |a| > |b|
    lam = -a / b
    return coupling_ratio_norm_sq(lam, L) * a * lam ** (L - 1)


def _mp_edge_coupling(a, b, L):
    with mpmath.workdps(60):
        lam = -mpmath.mpf(float(a)) / mpmath.mpf(float(b))
        lam2 = lam * lam
        xi2 = mpmath.mpf(1) / L if lam2 == 1 else (1 - lam2) / (1 - lam2**L)
        return float(xi2 * a * lam ** (L - 1))


def test_edge_coupling_through_the_trivial_region():
    # outside |a| < |b| the coupling is evaluated in mu = -b/a: finite where
    # lam^(L-1) overflows, and equal to mpmath to the rounding that the power
    # (L eps) and 1 - mu^2 (eps / (1 - mu^2)) amplify; where the lam form is
    # finite and that close to mpmath, equal to it
    rng = np.random.default_rng(11)
    checked = 0
    for L in (1, 2, 3, 7, 50, 200):
        samples = []
        for a, b in rng.uniform(-10, 10, (300, 2)) * 10.0 ** rng.uniform(-3, 3, (300, 1)):
            a, b = np.float64(a), np.float64(b)  # as LZPath.from_schedule passes them
            if not abs(a) > abs(b):
                continue
            tol = 4.0 * (L + 1.0 / (1.0 - (b / a) ** 2)) * np.finfo(float).eps
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = edge_coupling(a, b, L)
            exact = _mp_edge_coupling(a, b, L)
            assert np.isfinite(g) and abs(g - exact) <= tol * abs(exact) + 1e-290, (a, b, L)
            with np.errstate(all="ignore"):
                old = _lam_form(a, b, L)
            if np.isfinite(old) and abs(old - exact) <= tol * abs(exact):
                assert abs(g - old) <= 2.0 * tol * abs(old)
                checked += 1
            samples.append((a, b, g, exact, tol))
        # the same samples as one array (as LZPath.from_schedule passes them): within
        # the same bound of mpmath, and of the scalar call to twice that
        a, b, g, exact, tol = map(np.array, zip(*samples))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g_array = edge_coupling(a, b, L)
        assert np.all(np.abs(g_array - exact) <= tol * np.abs(exact) + 1e-290), L
        assert np.all(np.abs(g_array - g) <= 2.0 * tol * np.abs(g) + 1e-290), L
    assert checked > 500


def test_edge_coupling_at_zero_bonds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L in (2, 7, 200):
            assert edge_coupling(np.float64(0.7), np.float64(0.0), L) == 0.0
            assert edge_coupling(np.float64(0.0), np.float64(0.0), L) == 0.0
        assert edge_coupling(np.float64(0.7), np.float64(0.0), 1) == 0.7  # lam^0 = 1 in either form
        assert edge_coupling(np.float64(10.0), np.float64(0.1), 200) == pytest.approx(0.0, abs=1e-300)
        # as one array, whose unselected ratios divide by zero and overflow
        a, b = np.array([0.7, 0.0, 1e300, 0.0]), np.array([0.0, 0.0, 1e-300, 0.5])
        assert edge_coupling(a, b, 7).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert edge_coupling(a, b, 1)[:2].tolist() == [0.7, 0.0]


def _path_levels(tmp_path, u, g):
    # the E_minus, E_plus columns io.lz_path_csv writes for a path through (u, g)
    path = LZPath(np.arange(float(len(u))), np.asarray(u, dtype=float), np.asarray(g, dtype=float), float(len(u)))
    rows = io.lz_path_csv(tmp_path / "lz.csv", path).read_text().splitlines()[1:]
    return [row.split(",")[3:] for row in rows]


def test_lz_eigen_examples(tmp_path):
    # -+sqrt(u^2 + g^2), with E_minus = +0.0 (not -0.0) at the critical point
    assert _path_levels(tmp_path, [0.0, 3.0, -1.0], [0.0, 4.0, 1.0]) == [
        ["0.0", "0.0"], ["-5.0", "5.0"], [str(-np.sqrt(2.0)), str(np.sqrt(2.0))]]


def test_lz_eigen_matches_dense_2x2(rng, tmp_path):
    u, g = rng.normal(size=(2, 30))
    levels = np.array(_path_levels(tmp_path, u, g), dtype=float)
    dense = np.linalg.eigvalsh(np.stack([np.stack([u, g], -1), np.stack([g, -u], -1)], -2))
    assert np.abs(levels - dense).max() <= 1e-12


def test_lz_eigen_tracks_midgap_branches_in_regime():
    # compare against the instantaneous mid-gap energies where lam^L <= 1e-4
    period = 100.0
    sch = pump_schedule(period)
    times = np.array([0.02, 0.05, 0.1]) * period
    diag, off = schedule_arrays(sch, 7, times, reduced_arrays)
    for i, t in enumerate(times):
        vals = sch.values(t)
        if abs(vals["a"]) ** 7 > 1e-4:
            continue
        chain = eigendecompose(make_chain("rm", 7, a=vals["a"], b=vals["b"], u=vals["u"]))
        pair = np.sort(chain.eigenvalues[np.argsort(np.abs(chain.eigenvalues))[:2]])
        model = tridiag_eigh(diag[i], off[i])[0]
        for got, want in zip(model, pair):
            assert abs(got - want) / max(abs(want), 1e-12) <= 0.05


# -- paths --------------------------------------------------------------------


def test_classify_reference_paths():
    assert classify_path(LZPath.arc(1.0, 200.0)) is PathClass.AROUND_CRITICAL
    assert classify_path(LZPath.line(1.0, 200.0)) is PathClass.THROUGH_CRITICAL
    constant = LZPath.from_functions(const(1.0), const(0.1), 10.0)
    assert classify_path(constant) is PathClass.NO_CROSSING


def test_classify_invariant_under_reparameterization():
    path = LZPath.arc(1.0, 200.0)
    squeezed = LZPath(path.times**2 / 200.0, path.u, path.g, 200.0)
    assert classify_path(squeezed) is classify_path(path)


def test_classify_compares_the_signs_of_huge_ends():
    # the product of two ends of |u| above 1e154 overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_path(LZPath.arc(1e299, 1e-299)) is PathClass.AROUND_CRITICAL
        assert classify_path(LZPath.line(1e299, 10.0)) is PathClass.THROUGH_CRITICAL
        huge = LZPath.from_functions(const(1e299), const(0.1), 10.0)
        assert classify_path(huge) is PathClass.NO_CROSSING


def test_path_from_schedule_runs_through_critical_point():
    path = LZPath.from_schedule(pump_schedule(100.0), 7)
    assert classify_path(path) is PathClass.THROUGH_CRITICAL
    # u(t) = sin(2 pi t / T), g continued analytically through a > b
    assert np.abs(path.u - np.sin(2 * np.pi * path.times / 100.0)).max() < 1e-12


def test_path_c_frame_properties():
    assert np.array_equal(path_c_frame(0.0), np.eye(2))
    theta = np.pi / 2 - 1e-9
    up = path_c_frame(theta)[0]
    assert np.allclose(up, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)
    with pytest.raises(InvalidParameterError):
        path_c_frame(np.pi / 2)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_path_c_frame_diagonalizes(theta):
    frame = path_c_frame(theta)
    assert np.abs(frame @ frame.T - np.eye(2)).max() < 1e-15
    for u in (0.7, -1.3):
        h = path_c_hamiltonian(u, theta)
        d = frame @ h @ frame.T
        assert abs(d[0, 1]) <= 1e-12 and abs(d[1, 0]) <= 1e-12
        assert d[0, 0] == pytest.approx(u / np.cos(theta), rel=1e-12)
        assert d[1, 1] == pytest.approx(-u / np.cos(theta), rel=1e-12)


# -- trimer reduction -----------------------------------------------------------


def _trimer(a, c, u, v, w, L, b=None):
    return reduced_arrays("trimer", L, {"a": a, "b": a if b is None else b, "c": c, "u": u, "v": v, "w": w})


def test_reduce_trimer_decoupled_and_values():
    assert _trimer(0.0, 1.0, 1.0, 2.0, 0.0, 4)[1].tolist() == [0.0, 0.0, 0.0]
    diag, off = _trimer(0.1, 1.0, 2.0, 2.0, 0.0, 7)
    # the dense Loewdin projection S^-1/2 (B^T H B) S^-1/2 of the analytic
    # pair gives 1.7820e-6
    assert off[0] == pytest.approx(1.782e-6, rel=1e-3)
    assert (diag[0] + diag[1]) / 2.0 == pytest.approx(0.5 + 0.1 + 1.0)  # the blocks' offsets
    assert (diag[2] + diag[3]) / 2.0 == pytest.approx(0.5 - 0.1 + 1.0)
    assert (diag[0] - diag[1]) / 2.0 == pytest.approx(0.5)  # the upper block's detuning


def test_reduce_trimer_guards():
    with pytest.raises(InvalidParameterError):
        _trimer(0.1, 1.0, 0.0, 0.0, 0.0, 4, b=0.2)
    with pytest.raises(PhaseDomainError):
        _trimer(1.5, 1.0, 0.0, 0.0, 0.0, 4)
    with pytest.raises(InvalidParameterError):
        reduced_arrays("ssh", 4, {"a": 0.1, "b": 1.0})


def test_reduce_trimer_degenerate_diagonal_splitting():
    diag, off = _trimer(0.2, 1.0, 0.7, 0.4, 0.7, 6)
    e_minus, e_plus = tridiag_eigh(diag[:2], off[:1])[0]
    assert e_plus - e_minus == pytest.approx(2.0 * abs(off[0]), rel=1e-12)


def test_trimer_exact_splitting_includes_overlap_correction():
    # The edge pairs share the B sublattice, so <L+|R+> = Xi^2 (-lam)^(L-1) L/2
    # is not zero and the exact in-gap splitting is 2(g - eps*s)/(1 - s^2),
    # not 2g.  Verify the corrected closed form against the dense oracle.
    a, c, L = 1.0, 2.0, 8
    lam = a / c
    xi2 = coupling_ratio_norm_sq(lam, L)
    g_naive = trimer_pair_elements(a, c, 0.0, 0.0, 0.0, L, upper=True).g
    overlap = xi2 * (-lam) ** (L - 1) * L / 2.0
    onsite = a  # <L+|H|L+> at zero potentials
    corrected = 2.0 * (g_naive - onsite * overlap) / (1.0 - overlap**2)

    vals = np.linalg.eigvalsh(make_chain("trimer", L, a=a, b=a, c=c, u=0.0, v=0.0, w=0.0).to_dense())
    upper = vals[(vals > 0.9) & (vals < 1.1)]
    exact = upper.max() - upper.min()
    assert abs(abs(corrected) - exact) / exact <= 1e-3
    # the uncorrected magnitude overshoots by about (L+1)
    assert 2.0 * abs(g_naive) / exact > 5.0


@pytest.mark.parametrize(
    "a, c, u, v, w, L",
    [(0.5, 1.0, 0.0, 0.3, 0.0, 6), (0.5, 1.0, 0.1, 0.3, -0.2, 6), (0.3, 1.0, 0.5, -0.4, 0.1, 5), (0.7, 1.2, -0.3, 0.2, 0.6, 4)],
)
def test_reduce_trimer_blocks_match_dense_loewdin_projection(a, c, u, v, w, L):
    # dense oracle: S^-1/2 (B^T H B) S^-1/2 with B the analytic pair, S = B^T B;
    # the blocks are rows 0-1 and 2-3 of the reduced 4-site chain
    st = trimer_edge_states(a, c, L)
    h = make_chain("trimer", L, a=a, b=a, c=c, u=u, v=v, w=w).to_dense()
    reduced = ChainHamiltonian(*_trimer(a, c, u, v, w, L))
    assert reduced.offdiagonal[1] == 0.0
    blocks, levels = reduced.to_dense(), []
    for rows, upper, basis in zip(
        (slice(0, 2), slice(2, 4)), (True, False), ([st.left_plus, st.right_plus], [st.left_minus, st.right_minus])
    ):
        basis = np.column_stack(basis)
        proj, overlap = basis.T @ h @ basis, basis.T @ basis
        vals, vecs = np.linalg.eigh(overlap)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        pair = trimer_pair_elements(a, c, u, v, w, L, upper)
        bare = np.array([pair.e_left, pair.e_right, pair.g, pair.overlap])
        assert np.abs(bare - [proj[0, 0], proj[1, 1], proj[0, 1], overlap[0, 1]]).max() <= 1e-12
        assert np.abs(blocks[rows, rows] - inv_sqrt @ proj @ inv_sqrt).max() <= 1e-12
        # the block's levels solve det(H - E S) = 0, a quadratic in E
        e_left, e_right, g, s = pair
        levels += list(np.roots([1.0 - s * s, 2.0 * g * s - e_left - e_right, e_left * e_right - g * g]))
    # the 4-site chain's levels are both blocks' levels
    assert np.abs(tridiag_eigh(reduced.diagonal, reduced.offdiagonal)[0] - np.sort(levels)).max() <= 1e-12


def test_bell_schedule_reduces_only_near_the_cycle_ends():
    # a = 1 - 0.9 cos(2 pi t/T) stays below c = 1 only for t/T in [0, 1/4) and (3/4, 1]
    sch = bell_transfer_schedule(1000.0)
    diag, off = schedule_arrays(sch, 7, 1000.0 * np.array([0.1, 0.2, 0.8, 0.9]), reduced_arrays)
    assert diag.shape == (4, 4) and np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
    assert np.all(off[:, 1] == 0.0) and np.all(off[:, [0, 2]] != 0.0)
    for inside in (0.3, 0.5, 0.7):
        with pytest.raises(PhaseDomainError):
            schedule_arrays(sch, 7, 1000.0 * np.array([0.1, inside, 0.9]), reduced_arrays)


@pytest.mark.parametrize("schedule, fractions", [
    (optimized_schedule(100.0), np.linspace(0.0, 0.4, 41)),
    (bell_transfer_schedule(1000.0), np.r_[np.linspace(0.0, 0.2, 21), np.linspace(0.8, 1.0, 21)]),
], ids=["rm", "trimer"])
def test_reduced_arrays_at_k_times_match_k_single_times(schedule, fractions):
    # numpy's array power and its scalar power may round apart by an ulp, so
    # one call at k times matches k calls within edge_coupling's bound
    L, times = 7, schedule.period * fractions
    diag, off = schedule_arrays(schedule, L, times, reduced_arrays)
    vals = schedule.values(times)
    lam = np.abs(vals["a"] / vals["b" if schedule.kind == "rm" else "c"]).max()
    tol = 4.0 * (L + 1.0 / (1.0 - lam**2)) * np.finfo(float).eps
    for i, t in enumerate(times):
        d, o = schedule_arrays(schedule, L, t, reduced_arrays)
        assert np.all(np.abs(diag[i] - d) <= tol * np.abs(d)) and np.all(np.abs(off[i] - o) <= tol * np.abs(o))


def _reduction_rel_err(a, b, u, L):
    """The reduced splitting 2*sqrt(u^2 + g^2) against the dense mid-gap
    splitting of the Rice-Mele chain, as a relative error."""
    diag, off = _rm(a, b, u, L)
    exact = _midgap_splitting(make_chain("rm", L, a=a, b=b, u=u))
    return abs(2.0 * np.hypot(diag[0], off[0]) - exact) / exact


def test_reduction_improves_as_lambda_shrinks():
    errors = [_reduction_rel_err(lam_target ** (1.0 / 7.0), 1.0, 0.0, 7) for lam_target in (1e-2, 1e-4, 1e-6)]
    assert errors[0] > errors[1] > errors[2]


def test_reduction_report_fields():
    # the one-cell chain at a = 0.3, b = 1: on-site 0, g = Xi^2 a lam^(L-1)
    # at lam = -a/b = -0.3, and its splitting within 5% of the dense one
    diag, off = _rm(0.3, 1.0, 0.0, 7)
    assert diag.tolist() == [0.0, 0.0]
    assert off[0] == pytest.approx(coupling_ratio_norm_sq(-0.3, 7) * 0.3 * (-0.3) ** 6, rel=1e-14)
    assert _reduction_rel_err(0.3, 1.0, 0.0, 7) <= 0.05


# -- reduced dynamics -----------------------------------------------------------


def test_lz_evolve_path_a_transfers():
    traj = lz_evolve(LZPath.arc(1.0, 200.0), np.array([1.0, 0.0], dtype=complex))
    assert abs(traj.final_state[1]) ** 2 >= 0.999


def test_lz_evolve_path_b_persists():
    traj = lz_evolve(LZPath.line(1.0, 200.0), np.array([1.0, 0.0], dtype=complex))
    assert abs(traj.final_state[0]) ** 2 >= 1.0 - 1e-9


def test_lz_evolve_constant_coupling_rabi():
    path = LZPath.from_functions(const(0.0), const(0.25), 20.0)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, method="bdf")
    traj = lz_evolve(path, np.array([1.0, 0.0], dtype=complex), cfg)
    expected = np.sin(0.25 * traj.times) ** 2
    assert np.abs(np.abs(traj.states[:, 1]) ** 2 - expected).max() < 1e-7


def test_lz_evolve_rejects_a_sampled_path():
    path = LZPath.from_schedule(pump_schedule(100.0), 7)
    assert path.schedule is None
    with pytest.raises(InvalidParameterError):
        lz_evolve(path, np.array([1.0, 0.0], dtype=complex))


_ALPHA, _THETA, _T = 1.3, 0.4, 70.0
_TAN = float(np.tan(_THETA))
_LZ_PATHS = {  # (config path, u(t), g(t) written out, bound on |u| + bound on |g|)
    "a": ({"type": "arc", "alpha": _ALPHA},
          lambda t: _ALPHA * np.cos(np.pi * t / _T - np.pi), lambda t: _ALPHA * np.sin(np.pi * t / _T - np.pi),
          _ALPHA + _ALPHA),
    "b": ({"type": "line", "alpha": _ALPHA},
          lambda t: -_ALPHA + 2.0 * _ALPHA * (t / _T), lambda t: np.zeros_like(t), _ALPHA + 0.0),
    "c": ({"type": "line_at_angle", "alpha": _ALPHA, "theta": _THETA},
          lambda t: -_ALPHA + 2.0 * _ALPHA * (t / _T), lambda t: -_ALPHA * _TAN + 2.0 * _ALPHA * _TAN * (t / _T),
          _ALPHA + _ALPHA * _TAN),
    "custom": ({"type": "custom", "u": {"form": "linear", "offset": -0.5, "amplitude": 2.25},
                "g": {"form": "const", "offset": -0.3}},
               lambda t: -0.5 + 2.25 * (t / _T), lambda t: np.full_like(t, -0.3), 1.75 + 0.3),
}


@pytest.mark.parametrize("name", list(_LZ_PATHS))
def test_lz_path_is_the_one_cell_rice_mele_schedule(name):
    # H(t) of an lz path comes from the chain's own evaluator at L = 1: the
    # diagonal (u, -u) and the one bond g, bit for bit as the closed forms
    # give them, and its ||H|| bound is the sum of the u and g term bounds
    spec, u_of, g_of, bound = _LZ_PATHS[name]
    path = parse_config(json.dumps({"schema": 1, "command": "lz", "path": dict(spec, T=_T)})).options["path"]
    times = np.linspace(0.0, _T, 1000)
    diag, off = schedule_arrays(path.schedule, 1, times)
    u, g = u_of(times), g_of(times)
    assert diag.tobytes() == np.stack([u, -u], axis=-1).tobytes()
    assert off.tobytes() == g[:, np.newaxis].tobytes()
    assert path.u.tobytes() == u_of(path.times).tobytes() and path.g.tobytes() == g_of(path.times).tobytes()
    assert _integration("lz", {"path": path})[2] == bound


def test_compare_reduction_deep_topological_window():
    report = compare_reduction(optimized_schedule(100.0), 7, window=(0.0, 0.1))
    assert report.max_deviation <= 0.05


def test_compare_reduction_raises_where_the_window_leaves_the_phase():
    # the plain pump's a = 1 - cos(2 pi t/T) reaches b = 1 at t = T/4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhaseDomainError):
            compare_reduction(pump_schedule(100.0), 7, window=(0.0, 0.5))


def test_compare_reduction_decoupled_schedule():
    sch = Schedule(
        "rm",
        50.0,
        {"a": const(0.0), "b": const(1.0), "u": FunctionSpec("sin", amplitude=0.5)},
    )
    report = compare_reduction(sch, 5, window=(0.0, 0.5))
    assert report.max_deviation <= 1e-7
