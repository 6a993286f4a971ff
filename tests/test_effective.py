"""Landau-Zener reduction, path classification and reduced-model dynamics."""

import json
import warnings

import mpmath
import numpy as np
import pytest

from topochain import (
    IntegratorConfig,
    InvalidParameterError,
    LZPath,
    PathClass,
    PhaseDomainError,
    TwoLevelSystem,
    build_rice_mele,
    build_ssh,
    build_trimer,
    classify_path,
    compare_reduction,
    eigendecompose,
    lz_eigen,
    lz_evolve,
    optimized_schedule,
    path_c_frame,
    path_c_hamiltonian,
    pump_schedule,
    reduce_rm,
    reduce_trimer,
    reduction_report,
    trimer_edge_states,
)
from topochain.effective import edge_coupling, trimer_pair_elements
from topochain.config import _integration, parse_config
from topochain.models import FunctionSpec, Schedule, const, schedule_arrays
from topochain.spectra import coupling_ratio_norm_sq


def _midgap_splitting(h):
    vals = np.linalg.eigvalsh(h.to_dense())
    pair = vals[np.argsort(np.abs(vals))[:2]]
    return float(pair.max() - pair.min())


def test_reduce_rm_values():
    assert reduce_rm(0.0, 1.0, 0.3, 5).g == 0.0
    sys = reduce_rm(0.1, 1.0, 0.0, 7)
    assert sys.g == pytest.approx(9.9e-8, rel=1e-10)
    assert sys.offset == 0.0


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5])
def test_reduce_rm_matches_exact_half_splitting(a):
    sys = reduce_rm(a, 1.0, 0.0, 7)
    half = _midgap_splitting(build_ssh(7, a, 1.0)) / 2.0
    assert abs(abs(sys.g) - half) / abs(sys.g) <= 0.05


def test_reduce_rm_rejects_trivial_phase():
    with pytest.raises(PhaseDomainError):
        reduce_rm(1.0, 1.0, 0.0, 7)


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
    assert checked > 500


def test_edge_coupling_at_zero_bonds():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L in (2, 7, 200):
            assert edge_coupling(np.float64(0.7), np.float64(0.0), L) == 0.0
            assert edge_coupling(np.float64(0.0), np.float64(0.0), L) == 0.0
        assert edge_coupling(np.float64(0.7), np.float64(0.0), 1) == 0.7  # lam^0 = 1 in either form
        assert edge_coupling(np.float64(10.0), np.float64(0.1), 200) == pytest.approx(0.0, abs=1e-300)


def test_lz_eigen_examples():
    assert lz_eigen(TwoLevelSystem(0.0, 0.0)) == (0.0, 0.0)
    assert lz_eigen(TwoLevelSystem(3.0, 4.0)) == (-5.0, 5.0)
    e_minus, e_plus = lz_eigen(TwoLevelSystem(1.0, 1.0, offset=2.0))
    assert (e_minus, e_plus) == pytest.approx((2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)))


def test_lz_eigen_matches_dense_2x2(rng):
    for _ in range(30):
        u, g, off = rng.normal(size=3)
        sys = TwoLevelSystem(u, g, off)
        dense = np.array([[off + u, g], [g, off - u]])
        assert np.allclose(lz_eigen(sys), np.linalg.eigvalsh(dense), atol=1e-12)


def test_lz_eigen_tracks_midgap_branches_in_regime():
    # compare against the instantaneous mid-gap energies where lam^L <= 1e-4
    period = 100.0
    sch = pump_schedule(period)
    for t in (0.02 * period, 0.05 * period, 0.1 * period):
        vals = sch.values(t)
        if abs(vals["a"]) ** 7 > 1e-4:
            continue
        sys = reduce_rm(vals["a"], vals["b"], vals["u"], 7)
        chain = eigendecompose(build_rice_mele(7, vals["a"], vals["b"], vals["u"]))
        pair = np.sort(chain.eigenvalues[np.argsort(np.abs(chain.eigenvalues))[:2]])
        model = lz_eigen(sys)
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


def test_classify_tol_validation():
    with pytest.raises(InvalidParameterError):
        classify_path(LZPath.arc(1.0, 10.0), tol=-1.0)


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


def test_reduce_trimer_decoupled_and_values():
    h_plus, h_minus = reduce_trimer(0.0, 1.0, 1.0, 2.0, 0.0, 4)
    assert h_plus.g == 0.0 and h_minus.g == 0.0
    h_plus, h_minus = reduce_trimer(0.1, 1.0, 2.0, 2.0, 0.0, 7)
    # the dense Loewdin projection S^-1/2 (B^T H B) S^-1/2 of the analytic
    # pair gives 1.7820e-6
    assert h_plus.g == pytest.approx(1.782e-6, rel=1e-3)
    assert h_plus.offset == pytest.approx(0.5 + 0.1 + 1.0)
    assert h_minus.offset == pytest.approx(0.5 - 0.1 + 1.0)
    assert h_plus.u == pytest.approx(0.5)


def test_reduce_trimer_guards():
    with pytest.raises(InvalidParameterError):
        reduce_trimer(0.1, 1.0, 0.0, 0.0, 0.0, 4, b=0.2)
    with pytest.raises(PhaseDomainError):
        reduce_trimer(1.5, 1.0, 0.0, 0.0, 0.0, 4)


def test_reduce_trimer_degenerate_diagonal_splitting():
    h_plus, _ = reduce_trimer(0.2, 1.0, 0.7, 0.4, 0.7, 6)
    e_minus, e_plus = lz_eigen(h_plus)
    assert e_plus - e_minus == pytest.approx(2.0 * abs(h_plus.g), rel=1e-12)


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

    vals = np.linalg.eigvalsh(build_trimer(L, a, a, c, 0.0, 0.0, 0.0).to_dense())
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
    # dense oracle: S^-1/2 (B^T H B) S^-1/2 with B the analytic pair, S = B^T B
    st = trimer_edge_states(a, c, L)
    h = build_trimer(L, a, a, c, u, v, w).to_dense()
    blocks = reduce_trimer(a, c, u, v, w, L)
    for upper, block, basis in zip(
        (True, False), blocks, ([st.left_plus, st.right_plus], [st.left_minus, st.right_minus])
    ):
        basis = np.column_stack(basis)
        proj, overlap = basis.T @ h @ basis, basis.T @ basis
        vals, vecs = np.linalg.eigh(overlap)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        pair = trimer_pair_elements(a, c, u, v, w, L, upper)
        bare = np.array([pair.e_left, pair.e_right, pair.g, pair.overlap])
        assert np.abs(bare - [proj[0, 0], proj[1, 1], proj[0, 1], overlap[0, 1]]).max() <= 1e-12
        assert np.abs(block.to_chain().to_dense() - inv_sqrt @ proj @ inv_sqrt).max() <= 1e-12


def test_reduction_improves_as_lambda_shrinks():
    errors = []
    for lam_target in (1e-2, 1e-4, 1e-6):
        a = lam_target ** (1.0 / 7.0)
        errors.append(reduction_report(a, 1.0, 0.0, 7)["rel_err"])
    assert errors[0] > errors[1] > errors[2]


def test_reduction_report_fields():
    report = reduction_report(0.3, 1.0, 0.0, 7)
    assert set(report) == {"u", "g", "offset", "lambda", "xi_norm_sq", "exact_splitting", "rel_err"}
    assert report["lambda"] == pytest.approx(-0.3)
    assert report["rel_err"] <= 0.05


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


def test_compare_reduction_decoupled_schedule():
    sch = Schedule(
        "rm",
        50.0,
        {"a": const(0.0), "b": const(1.0), "u": FunctionSpec("sin", amplitude=0.5)},
    )
    report = compare_reduction(sch, 5, window=(0.0, 0.5))
    assert report.max_deviation <= 1e-7
