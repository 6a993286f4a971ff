"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two criteria rest on analysis beyond their one-line statement:
  - criterion 5 (plain pump, 14 sites): at T = 100 the passage is not
    adiabatic and the final fidelity is 0.529, which an independent Magnus
    propagator confirms.  The adiabatic time max_s |<m|dH/ds|k>| / Delta^2
    is about 52 (s = t/T; the tracked level meets the bulk band as a passes
    b), and the >= 0.9 threshold is checked at ten times that scale.
  - criterion 10, g_plus vs exact splitting: the trimer edge pairs share
    the B sublattice (overlap s), so g_plus is the coupling of the
    Loewdin-orthonormalized pair, (g - eps*s)/(1 - s^2), not the bare
    element g, which overshoots the splitting by about (L+1).
Integrator cross-agreement (criterion 13) runs the same protocols with
BDF and the fixed-step RK4 and compares final-state overlaps.
"""

import dataclasses
import functools

import mpmath
import numpy as np

from topochain import (
    DisorderSpec,
    FluxQubitSpec,
    IntegratorConfig,
    analytic_edge_states,
    apply_disorder,
    basis_state,
    bell_transfer_schedule,
    bessel_jn,
    compare_reduction,
    effective_coupling_identical,
    eigendecompose,
    lz_evolve,
    optimized_schedule,
    pump,
    pump_schedule,
    quench,
    transfer_fidelity,
)

from topochain.effective import LZPath, reduced_arrays
from topochain.fluxcircuit import _dh_hops, charge_band, sweep_point
from topochain.spectra import coupling_ratio_norm_sq

from conftest import (dense_eigvals, localization_length, make_chain, path_c_frame, path_c_hamiltonian,
                      plain_pump_cfm4, plain_pump_hamiltonians, random_chain, trimer_edge_states)

BDF = IntegratorConfig(method="bdf")
RK4 = IntegratorConfig(method="rk4", max_step=0.002)
OVERLAP_TOL = 1e-6


def _report(num: int, ok: bool, desc: str) -> bool:
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _overlap_error(a, b) -> float:
    return 1.0 - abs(np.vdot(a, b))


@functools.lru_cache(maxsize=None)
def _pump_run(period: float, method: str):
    cfg = BDF if method == "bdf" else RK4
    n_records = int(200 * 1) + 1
    return pump(pump_schedule(period), 7, basis_state(14, 1), cfg, n_records)


@functools.lru_cache(maxsize=None)
def _optimized_run(cycles: int, method: str):
    cfg = BDF if method == "bdf" else RK4
    sch = optimized_schedule(100.0, cycles=cycles)
    return pump(sch, 7, basis_state(14, 1), cfg)


def _bell_state(n: int, sign: float, left: bool):
    psi = np.zeros(n, dtype=np.complex128)
    if left:
        psi[0], psi[1] = 1.0, sign
    else:
        psi[n - 2], psi[n - 1] = 1.0, sign
    return psi / np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _bell_run(sign: float, method: str):
    cfg = BDF if method == "bdf" else RK4
    sch = bell_transfer_schedule(1000.0, cycles=3)
    return pump(sch, 7, _bell_state(21, sign, left=True), cfg, 601)


def test_criterion_01_zero_mode_existence():
    vals = eigendecompose(make_chain("ssh", 7, a=0.1, b=1.0)).eigenvalues
    magnitudes = np.sort(np.abs(vals))
    ok = magnitudes[1] <= 1e-6 and magnitudes[2] >= 0.85
    assert _report(1, ok, "SSH(0.1, 1, 14 sites): two mid-gap levels, bulk beyond 0.85")


def test_criterion_02_chiral_symmetry():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        h = random_chain(rng, max_sites=12, zero_diagonal=True)
        vals = eigendecompose(h).eigenvalues
        worst = max(worst, np.abs(vals + vals[::-1]).max())
    assert _report(2, worst <= 1e-10, f"eigenvalue multiset symmetric under E -> -E (worst {worst:.2e})")


def test_criterion_03_edge_state_analytics():
    spectrum = eigendecompose(make_chain("ssh", 7, a=0.1, b=1.0))
    idx = np.argsort(np.abs(spectrum.eigenvalues))[:2]
    sub = spectrum.eigenvectors[:, idx]
    pair = analytic_edge_states(0.1, 1.0, 7)
    overlaps = []
    for sign in (1.0, -1.0):
        hybrid = (pair.left + sign * pair.right) / np.sqrt(2.0)
        overlaps.append(np.linalg.norm(sub @ (sub.T @ hybrid)) ** 2)
    numeric_left = sub @ (sub.T @ pair.left)
    numeric_left /= np.linalg.norm(numeric_left)
    amps = np.abs(numeric_left[0::2])
    sites = np.arange(1, 14, 2, dtype=float)
    slope = np.polyfit(sites[amps > 1e-12], np.log(amps[amps > 1e-12]), 1)[0]
    target = -1.0 / (2.0 * localization_length(0.1, 1.0))
    slope_err = abs(slope - target) / abs(target)
    ok = min(overlaps) >= 1.0 - 1e-6 and slope_err <= 0.02
    assert _report(3, ok, f"subspace overlap {min(overlaps):.8f}, decay slope error {slope_err:.2%}")


def test_criterion_04_soliton_robustness():
    base = make_chain("ssh", 7, a=0.1, b=1.0)
    curves = []
    for seed in range(20):
        chain = apply_disorder(base, DisorderSpec(0.01, seed=seed))
        traj = quench(chain, 1, 100.0, BDF, 401)
        curves.append(traj.sz[:, 0])
    # <sigma_1^z> of the 20-seed disordered ensemble stays in the soliton
    ensemble_min = float(np.mean(curves, axis=0).min())
    uniform_base = make_chain("ssh", 7, a=1.0, b=1.0)
    drop_times = []
    for seed in range(20):
        chain = apply_disorder(uniform_base, DisorderSpec(0.01, seed=seed))
        traj = quench(chain, 1, 10.0, BDF, 201)
        below = traj.times[traj.sz[:, 0] < 0.0]
        drop_times.append(below[0] if below.size else np.inf)
    ok = ensemble_min >= 0.9 and max(drop_times) < 10.0
    assert _report(
        4, ok, f"disordered ensemble min <sz_1> {ensemble_min:.4f}; uniform chain drops by t={max(drop_times):.2f}"
    )


def _adiabatic_time(n_sites: int, n_grid: int = 1000) -> float:
    """max over s = t/T of |<m|dH/ds|k>| / (E_m - E_k)^2 along the plain pump,
    for the level k that holds site 1 as s -> 0+.  For 0 < s < 1 every bond
    is nonzero, so the spectrum is simple and k keeps its sorted index."""
    s_grid = (np.arange(n_grid) + 0.5) / n_grid
    level = int(np.argmax(np.abs(np.linalg.eigh(plain_pump_hamiltonians(s_grid[0], n_sites)[0])[1][0])))
    worst = 0.0
    for s in s_grid:
        h, dh = plain_pump_hamiltonians(s, n_sites)
        vals, vecs = np.linalg.eigh(h)
        coupling = np.delete(vecs.T @ dh @ vecs[:, level], level)
        gaps = np.delete(vals - vals[level], level)
        worst = max(worst, float(np.max(np.abs(coupling) / gaps**2)))
    return worst


def test_criterion_05_pump_transfer_threshold():
    scale = _adiabatic_time(14)
    period = 10.0 * scale
    fid = transfer_fidelity(_pump_run(period, "bdf").final_state, basis_state(14, 14))
    # the non-adiabatic T = 100 value against an independent propagator
    bdf_100 = _pump_run(100.0, "bdf").final_state
    agreement = _overlap_error(bdf_100, plain_pump_cfm4(100.0, basis_state(14, 1), 4000))
    ok = fid >= 0.9 and agreement <= OVERLAP_TOL
    assert _report(
        5,
        ok,
        f"plain pump T={period:.1f} (10x adiabatic time {scale:.2f}) fidelity to |e_14> = {fid:.4f} "
        f"(threshold 0.9); T=100 fidelity {transfer_fidelity(bdf_100, basis_state(14, 14)):.4f}, "
        f"overlap error vs Magnus {agreement:.1e}",
    )


def test_criterion_05_adiabatic_convergence():
    fid_100 = transfer_fidelity(_pump_run(100.0, "bdf").final_state, basis_state(14, 14))
    fid_200 = transfer_fidelity(_pump_run(200.0, "bdf").final_state, basis_state(14, 14))
    ok = fid_200 >= fid_100 - 1e-3
    assert _report(5, ok, f"adiabatic convergence: fid(T=200)={fid_200:.4f} >= fid(T=100)={fid_100:.4f} - 1e-3")


def test_criterion_06_optimized_protocol():
    traj = _optimized_run(3, "bdf")
    fid_round = transfer_fidelity(traj.states[400], basis_state(14, 1))  # t = 200: 200 records a cycle
    fid_end = transfer_fidelity(traj.final_state, basis_state(14, 14))
    ok = fid_round >= 0.99 and fid_end >= 0.99
    assert _report(6, ok, f"optimized pump: 2-cycle return {fid_round:.4f}, 3-cycle transfer {fid_end:.4f}")


def test_criterion_07_lz_reduction_accuracy():
    errors = {}
    for a in (0.1, 0.3, 0.5):
        g = reduced_arrays("rm", 7, {"a": a, "b": 1.0, "u": 0.0})[1][0]
        vals = dense_eigvals(make_chain("ssh", 7, a=a, b=1.0))
        pair = vals[np.argsort(np.abs(vals))[:2]]
        half = (pair.max() - pair.min()) / 2.0
        errors[a] = abs(abs(g) - half) / abs(g)
    # the lam^L <= 1e-2 (1 - lam^2) regime clause excludes a = 0.5 only
    # marginally; the measured error passes the 5% bound there as well
    report = compare_reduction(optimized_schedule(100.0), 7, BDF, window=(0.0, 0.1))
    ok = all(err <= 0.05 for err in errors.values()) and report.max_deviation <= 0.05
    assert _report(
        7,
        ok,
        "g vs exact half-splitting rel errs "
        + ", ".join(f"a={a}: {err:.3%}" for a, err in errors.items())
        + f"; reduced-vs-full deviation {report.max_deviation:.4f}",
    )


def test_criterion_08_path_dichotomy():
    transfer = abs(lz_evolve(LZPath.arc(1.0, 200.0), np.array([1.0, 0.0], dtype=complex), BDF).final_state[1]) ** 2
    persistence = abs(lz_evolve(LZPath.line(1.0, 200.0), np.array([1.0, 0.0], dtype=complex), BDF).final_state[0]) ** 2
    residual = 0.0
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        frame = path_c_frame(theta)
        diag = frame @ path_c_hamiltonian(0.8, theta) @ frame.T
        residual = max(residual, abs(diag[0, 1]), abs(diag[1, 0]))
    ok = transfer >= 0.999 and persistence >= 0.999 and residual <= 1e-12
    assert _report(
        8, ok, f"path A transfer {transfer:.5f}, path B persistence {persistence:.6f}, frame residual {residual:.1e}"
    )


def test_criterion_09_trimer_bell_transfer():
    results = {}
    for sign in (1.0, -1.0):
        traj = _bell_run(sign, "bdf")
        fids = []
        for cycle in (1, 2, 3):
            target = _bell_state(21, sign, left=cycle % 2 == 0)
            fids.append(transfer_fidelity(traj.states[200 * cycle], target))  # t = 1000 cycle: 601 records
        results[sign] = fids
    ok = all(f[0] >= 0.95 for f in results.values()) and all(min(f) >= 0.9 for f in results.values())
    assert _report(
        9,
        ok,
        "Bell transfer per-cycle fidelities "
        + "; ".join(f"sign {s:+.0f}: " + ", ".join(f"{x:.4f}" for x in f) for s, f in results.items()),
    )


def test_criterion_10_trimer_edge_structure():
    spectrum = eigendecompose(make_chain("trimer", 8, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0))
    vals = spectrum.eigenvalues
    lower = np.where((vals > -1.1) & (vals < -0.9))[0]
    upper = np.where((vals > 0.9) & (vals < 1.1))[0]
    two_pairs = len(lower) == 2 and len(upper) == 2
    st = trimer_edge_states(1.0, 2.0, 8)
    overlaps = []
    for idx, left, right in ((upper, st.left_plus, st.right_plus), (lower, st.left_minus, st.right_minus)):
        sub = spectrum.eigenvectors[:, idx]
        for sign in (1.0, -1.0):
            hybrid = left + sign * right
            hybrid /= np.linalg.norm(hybrid)
            overlaps.append(np.linalg.norm(sub @ (sub.T @ hybrid)) ** 2)
    ok = two_pairs and min(overlaps) >= 0.999
    assert _report(10, ok, f"four in-gap states in two pairs; hybrid overlaps >= {min(overlaps):.6f}")


def test_criterion_10_g_plus_splitting():
    vals = dense_eigvals(make_chain("trimer", 8, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0))
    upper = vals[(vals > 0.9) & (vals < 1.1)]
    exact = upper.max() - upper.min()
    # the upper block's bond, the first of the reduced 4-site chain
    g_plus = reduced_arrays("trimer", 8, {"a": 1.0, "b": 1.0, "c": 2.0, "u": 0.0, "v": 0.0, "w": 0.0})[1][0]
    rel_err = abs(2.0 * abs(g_plus) - exact) / exact
    ok = rel_err <= 0.10
    _report(10, ok, f"2|g_plus| = {2 * abs(g_plus):.5f} vs exact splitting {exact:.5f} (rel err {rel_err:.1%})")
    assert ok, (
        f"2|g_plus| misses the exact splitting by {rel_err:.0%}. "
        "The left/right trimer edge states overlap on the B sublattice "
        "(s = Xi^2 lam^(L-1) L/2), so g_plus must be the orthonormalized coupling "
        "(g - eps*s)/(1 - s^2); see test_effective.py::"
        "test_reduce_trimer_blocks_match_dense_loewdin_projection."
    )


def test_criterion_11_bessel_couplings():
    recurrence = 0.0
    for x in (0.5, 1.0, 2.0):
        js = bessel_jn(40, x)
        parseval = abs(js[0] ** 2 + 2.0 * np.sum(js[1:] ** 2) - 1.0)
        for n in range(1, 11):
            recurrence = max(recurrence, abs(js[n - 1] + js[n + 1] - 2.0 * n / x * js[n]))
        assert parseval <= 1e-10
    graf = 0.0
    for alpha in (0.25, 0.5, 1.0):
        value = effective_coupling_identical(1.0, alpha, alpha)
        graf = max(graf, abs(value - float(mpmath.besselj(0, 2.0 * alpha))))  # not the jv the sum is built from
    ok = recurrence <= 1e-10 and graf <= 1e-10
    assert _report(11, ok, f"recurrence residual {recurrence:.1e}, Graf identity residual {graf:.1e}")


def test_criterion_12_flux_qubit_structure():
    spec = FluxQubitSpec()  # the figure parameter set, N_c = 15
    character = sweep_point(spec, 0.2, 0.0, 2)[1]
    i0, i1 = character.i0, character.i1
    w1 = sweep_point(spec, 0.2, 0.3, 3)[0]
    w2 = sweep_point(spec, 0.2, 2.3, 3)[0]
    periodic = np.abs(w1 - w2).max()
    gap15 = character.gap
    gap10 = sweep_point(dataclasses.replace(spec, charge_cutoff=10), 0.2, 0.0, 2)[1].gap
    convergence = abs(gap15 - gap10) / gap15
    # the package's dH/df_eps hops against a central difference of its band:
    # only the alpha hop, the band's top row, depends on f_eps, and the hops
    # below the diagonal are the conjugates of those above
    step, kd = 1e-6, spec.band_width
    fd = (charge_band(spec, 0.2, step) - charge_band(spec, 0.2, -step)) * spec.ej / (2 * step)
    lower, upper = _dh_hops(spec, 0.2, 0.0)
    analytic = np.zeros_like(fd)
    analytic[0, kd:] = upper
    deriv_err = max(np.abs(fd - analytic).max(), np.abs(fd[0, kd:].conj() - lower).max())
    ok = (
        character.g_par <= 1e-8
        and abs(i0) <= 1e-8
        and abs(i1) <= 1e-8
        and periodic <= 1e-10
        and convergence <= 1e-6
        and deriv_err <= 1e-6
    )
    assert _report(
        12,
        ok,
        f"g_par {character.g_par:.1e}, currents ({i0:.1e}, {i1:.1e}), period-2 dev {periodic:.1e}, "
        f"cutoff convergence {convergence:.1e}, dH/df_eps FD error {deriv_err:.1e}",
    )


def test_criterion_13_oracle_equivalence_eigensolver():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        h = random_chain(rng, max_sites=8)
        worst = max(worst, np.abs(eigendecompose(h).eigenvalues - dense_eigvals(h)).max())
    assert _report(13, worst <= 1e-10, f"QL vs dense oracle on 1000 random chains (worst {worst:.2e})")


def test_criterion_13_integrator_agreement():
    errors = {
        "pump T=100": _overlap_error(_pump_run(100.0, "bdf").final_state, _pump_run(100.0, "rk4").final_state),
        "optimized 3 cycles": _overlap_error(_optimized_run(3, "bdf").final_state, _optimized_run(3, "rk4").final_state),
    }
    for sign, label in ((1.0, "bell +"), (-1.0, "bell -")):
        errors[label] = _overlap_error(_bell_run(sign, "bdf").final_state, _bell_run(sign, "rk4").final_state)
    worst = max(errors.values())
    ok = worst <= OVERLAP_TOL
    assert _report(
        13, ok, "BDF vs RK4 overlap errors " + ", ".join(f"{k}: {v:.1e}" for k, v in errors.items())
    )
