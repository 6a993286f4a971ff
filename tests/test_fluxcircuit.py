"""Flux-qubit charge-basis quantization.

The full-size checks (N_c = 15, 961x961) live in the acceptance suite and
in one dense-LAPACK oracle comparison here; otherwise a reduced cutoff
keeps the contracts fast to verify, plus one independent-oracle comparison
at N_c = 4 via a hand-rolled real-symmetric embedding diagonalized by the
package's tridiagonal kernel (MRRR, a different algorithm from the sparse
shift-invert Lanczos solver under test).  The band builder and the
couplings are checked against the Kronecker-product assembly of H and
dH/df_eps in conftest.py, written from the module docstring's conventions.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import topochain
from topochain import FluxQubitSpec, InvalidParameterError, NumericError, sweep_point
from topochain._kernels import one_blas_thread, tridiag_eigh
from topochain.config import parse_config
from topochain.fluxcircuit import _dh_hops, band_cholesky, charge_band
from topochain.io import write_csv
from topochain.runner import run

from conftest import kron_dh, kron_hamiltonian, run_at_blas_threads

SMALL = FluxQubitSpec(charge_cutoff=6)


def _pack_upper(dense, kd):
    """LAPACK upper band storage: band[kd + i - j, j] = dense[i, j]."""
    band = np.zeros((kd + 1, dense.shape[0]), dtype=np.complex128, order="F")
    for d in range(kd + 1):
        band[kd - d, d:] = np.diag(dense, d)
    return band


def _unpack_upper(band):
    """The Hermitian matrix whose upper band storage is ``band``."""
    kd = band.shape[0] - 1
    upper = sum(np.diag(band[kd - d, d:], d) for d in range(kd + 1))
    return upper + np.triu(upper, 1).conj().T


def _levels(spec, f_alpha, f_eps, n_levels, stats=None):
    return sweep_point(spec, f_alpha, f_eps, n_levels, stats)[0]


def _parity_reversed(matrix):
    # the (k, l) -> (-k, -l) parity operator reverses the flattened index
    return matrix[::-1, ::-1]


def _householder_tridiagonalize(a):
    """Reduce a real symmetric matrix to tridiagonal form (no LAPACK)."""
    a = a.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1:, k].copy()
        alpha = -np.sign(x[0]) * np.linalg.norm(x) if x[0] != 0 else -np.linalg.norm(x)
        if alpha == 0.0:
            continue
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        sub = a[k + 1:, k + 1:]
        w = sub @ v
        tau = v @ w
        sub -= 2.0 * np.outer(v, w) - 2.0 * tau * np.outer(v, v)
        sub -= 2.0 * np.outer(w, v) - 2.0 * tau * np.outer(v, v)
        a[k + 1:, k + 1:] = sub
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        a[k + 2:, k] = 0.0
        a[k, k + 2:] = 0.0
    return np.diag(a).copy(), np.diag(a, 1).copy()


def _hermitian_eigvals_oracle(h):
    """Eigenvalues of a complex Hermitian matrix through the real symmetric
    embedding [[Re, -Im], [Im, Re]] (each eigenvalue doubled), tridiagonal
    reduction by hand and the package's tridiagonal kernel."""
    re, im = h.real, h.imag
    embed = np.block([[re, -im], [im, re]])
    diag, off = _householder_tridiagonalize(embed)
    vals, _ = tridiag_eigh(diag, off)
    return vals[::2]  # de-duplicate the doubling


def test_hamiltonian_dimension_and_hermiticity():
    # upper band storage holds a Hermitian matrix when its diagonal is real
    band = charge_band(SMALL, 0.2, 0.013)
    assert band.shape == (SMALL.band_width + 1, 13 * 13)
    assert not band[-1].imag.any()
    full = FluxQubitSpec()
    assert full.dimension == 961


def test_charging_limit_spectrum():
    # E_J -> 0: pure charging term.  The quartet (k,l) = (+-1,0), (0,+-1)
    # sits at 4E_C(1+2a)/(1+4a); at a = 0.5 exactly the -4a*k*l cross term
    # makes (1,1) and (-1,-1) degenerate with it, so the first excited
    # manifold is 6-fold at (8/3)E_C there and 4-fold only for a < 0.5.
    ec = 0.03
    spec = FluxQubitSpec(ej=1e-12, ej_over_ec=1e-12 / ec, charge_cutoff=4)
    levels = _levels(spec, 0.2, 0.0, 8)
    assert abs(levels[0]) < 1e-9
    assert np.allclose(levels[1:7], (8.0 / 3.0) * ec, atol=1e-9)
    assert levels[7] > levels[6] + 1e-6

    spec4 = FluxQubitSpec(ej=1e-12, ej_over_ec=1e-12 / ec, alpha=0.4, charge_cutoff=4)
    levels4 = _levels(spec4, 0.2, 0.0, 6)
    quartet = 4.0 * ec * (1.0 + 2.0 * 0.4) / (1.0 + 4.0 * 0.4)
    assert np.allclose(levels4[1:5], quartet, atol=1e-9)
    assert levels4[5] > levels4[4] + 1e-6


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        FluxQubitSpec(ej=-1.0)
    with pytest.raises(InvalidParameterError):
        FluxQubitSpec(charge_cutoff=0)
    with pytest.raises(InvalidParameterError):
        _levels(SMALL, 0.2, 0.0, SMALL.dimension + 1)
    with pytest.raises(InvalidParameterError):
        _levels(SMALL, 0.2, 0.0, SMALL.dimension - 1)


def test_spectrum_periodic_in_f_eps():
    w1 = _levels(SMALL, 0.2, 0.41, 4)
    w2 = _levels(SMALL, 0.2, 2.41, 4)
    assert np.abs(w1 - w2).max() <= 1e-10


@pytest.mark.parametrize("n_diff, m", [(1, 0), (1, 1), (2, 1), (2, -3)])
def test_mirror_bias_conjugates_h(n_diff, m):
    # H(2m - f_eps) = conj H(f_eps): the levels, gap and couplings carry over,
    # and the loop currents change sign
    spec, f_eps = FluxQubitSpec(n_diff=n_diff, charge_cutoff=4), 0.013
    mirror = 2 * m - f_eps
    assert np.abs(charge_band(spec, 0.2, mirror) - charge_band(spec, 0.2, f_eps).conj()).max() <= 1e-14
    (vals, ch), (mirror_vals, mirror_ch) = (sweep_point(spec, 0.2, fe, 3) for fe in (f_eps, mirror))
    assert np.abs(vals - mirror_vals).max() <= 1e-12
    assert abs(ch.g_perp - mirror_ch.g_perp) <= 1e-10 and abs(ch.g_par - mirror_ch.g_par) <= 1e-10
    assert abs(ch.i0 + mirror_ch.i0) <= 1e-10 and abs(ch.i1 + mirror_ch.i1) <= 1e-10


def _level_sweep(tmp_path, f_eps_range):
    spec = {"charge_cutoff": 4}
    cfg = {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "levels": 3, "f_eps_range": f_eps_range,
           "spec": spec}
    result = run(parse_config(json.dumps(cfg)), tmp_path)
    solver = json.loads(result.manifest.read_text())["solver"]
    return result.files[0], FluxQubitSpec(**spec), solver


@pytest.mark.parametrize("start, stop, points", [
    (-0.05, 0.05, 7), (-0.05, 0.05, 6), (0.95, 1.05, 5), (0.95, 1.05, 4), (-0.05, 0.05, 1),
], ids=["odd", "even", "centre-1-odd", "centre-1-even", "one-point"])
def test_level_sweep_mirrors_rows_about_an_integer_centre(tmp_path, start, stop, points):
    path, spec, solver = _level_sweep(tmp_path, {"start": start, "stop": stop, "points": points})
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    half, centre = points // 2, round((start + stop) / 2)
    assert solver["points"] == points and solver["mirrored_points"] == half
    assert solver["factorizations_total"] == points - half
    # each row below the centre is the exact mirror of its partner, within
    # a few ulp of np.linspace, and equals the partner's solved row
    f_eps = rows[:, 0]
    assert np.array_equal(f_eps[:half], 2 * centre - f_eps[::-1][:half])
    assert np.array_equal(f_eps[half:], np.linspace(start, stop, points)[half:])
    assert np.abs(f_eps - np.linspace(start, stop, points)).max() <= 4 * np.spacing(max(abs(start), abs(stop)))
    assert np.array_equal(rows[:half, 1:], rows[::-1][:half, 1:])
    for row in rows:  # and a direct solve at that row's f_eps
        vals, character = sweep_point(spec, 0.2, row[0], 3)
        assert np.abs(row[1:4] - vals[:3]).max() <= 1e-12
        assert np.abs(row[4:] - [character.g_perp, character.g_par]).max() <= 1e-10


def test_level_sweep_off_an_integer_centre_solves_every_point(tmp_path):
    # byte-identical to one direct solve per np.linspace point, at the one
    # BLAS thread a run holds
    f_eps_range = {"start": -0.05, "stop": 0.031, "points": 5}
    path, spec, solver = _level_sweep(tmp_path / "run", f_eps_range)
    assert solver["mirrored_points"] == 0 and solver["factorizations_total"] == 5
    values = np.linspace(-0.05, 0.031, 5)
    with one_blas_thread():
        points = [sweep_point(spec, 0.2, fe, 3) for fe in values]
    table = np.array([[*vals[:3], character.g_perp, character.g_par] for vals, character in points])
    reference = write_csv(tmp_path / "reference.csv", ["f_eps", "E_0", "E_1", "E_2", "g_perp", "g_par"],
                          [values, *table.T])
    assert path.read_bytes() == reference.read_bytes()


def test_parity_commutes_at_optimal_point():
    h = _unpack_upper(charge_band(SMALL, 0.2, 0.0))
    assert np.abs(_parity_reversed(h) - h).max() <= 1e-12
    h_biased = _unpack_upper(charge_band(SMALL, 0.2, 0.2))
    assert np.abs(_parity_reversed(h_biased) - h_biased).max() > 1e-6


def test_couplings_at_optimal_point():
    ch = sweep_point(SMALL, 0.2, 0.0, 2)[1]
    assert ch.g_par <= 1e-8
    assert ch.g_perp > 0.1
    samples = [sweep_point(SMALL, 0.2, fe, 2)[1].g_perp for fe in (-0.01, -0.005, 0.0, 0.005, 0.01)]
    assert samples[2] == max(samples)


def test_derivative_matches_finite_difference():
    # only the alpha hop, the band's top row, depends on f_eps; the hops
    # below the diagonal are the conjugates of those above
    step, kd = 1e-6, SMALL.band_width
    for f_eps in (0.0, 0.07):
        plus, minus = charge_band(SMALL, 0.2, f_eps + step), charge_band(SMALL, 0.2, f_eps - step)
        fd = (plus - minus) * SMALL.ej / (2.0 * step)
        lower, upper = _dh_hops(SMALL, 0.2, f_eps)
        analytic = np.zeros_like(fd)
        analytic[0, kd:] = upper
        assert np.abs(fd - analytic).max() <= 1e-6
        assert np.abs(fd[0, kd:].conj() - lower).max() <= 1e-6


def _currents(spec, f_alpha, f_eps):
    character = sweep_point(spec, f_alpha, f_eps, 2)[1]
    return character.i0, character.i1


def test_persistent_currents():
    i0, i1 = _currents(SMALL, 0.2, 0.0)
    assert abs(i0) <= 1e-8 and abs(i1) <= 1e-8
    i0p, _ = _currents(SMALL, 0.2, 0.004)
    i0m, _ = _currents(SMALL, 0.2, -0.004)
    assert abs(i0p + i0m) <= 1e-8
    spec0 = FluxQubitSpec(ej=1e-12, ej_over_ec=1e-12 / 0.03, charge_cutoff=4)
    assert _currents(spec0, 0.2, 0.1) == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("f_eps", [0.013, 0.031])
def test_currents_are_the_level_slopes(f_eps):
    # Hellmann-Feynman: <n|dH/df_eps|n> = dE_n/df_eps, here against a central
    # difference of the levels.  At h = 1e-5 the difference's own error is
    # up to 3.9e-8 of the current (measured); at f_eps = -0.05, where I_1 is
    # near 5e-3, it grows to 1e-5, so that point is left out
    step = 1e-5
    character = sweep_point(SMALL, 0.2, f_eps, 2)[1]
    slopes = (_levels(SMALL, 0.2, f_eps + step, 2) - _levels(SMALL, 0.2, f_eps - step, 2)) / (2.0 * step)
    currents = np.array([character.i0, character.i1])
    assert np.abs(slopes - currents).max() <= 1e-7 * np.abs(currents).min()


def test_gap_tunable_and_continuous():
    f_alphas = np.linspace(0.0, 0.3, 7)
    gaps = np.array([sweep_point(SMALL, fa, 0.0, 2)[1].gap for fa in f_alphas])
    assert gaps.min() >= 0.0
    assert (gaps.max() - gaps.min()) / gaps.max() > 0.01
    fine = np.array([sweep_point(SMALL, fa, 0.0, 2)[1].gap for fa in (0.2, 0.201, 0.202)])
    slope = abs(fine[2] - fine[0]) / 0.002
    assert abs(fine[1] - fine[0]) <= 10.0 * max(slope, 1e-6) * 1e-3


def test_small_cutoff_matches_independent_oracle():
    spec = FluxQubitSpec(charge_cutoff=4)
    n_levels = spec.dimension - 2  # the most the shift-invert solver returns
    for f_eps in (0.0, 0.31):
        h = kron_hamiltonian(spec, 0.2, f_eps).toarray()
        mine = _levels(spec, 0.2, f_eps, n_levels)
        oracle = _hermitian_eigvals_oracle(h)[:n_levels]
        assert np.abs(mine - oracle).max() <= 1e-10


@pytest.mark.parametrize("f_eps", [0.0, 0.013])
def test_sweep_point_matches_dense_lapack_at_figure_cutoff(f_eps):
    # f_eps = 0 is the parity point, where the start vector must reach both sectors
    spec = FluxQubitSpec()
    n_levels = 5
    vals, character = sweep_point(spec, 0.2, f_eps, n_levels)
    dense_vals, dense_vecs = scipy.linalg.eigh(kron_hamiltonian(spec, 0.2, f_eps).toarray())
    dh = kron_dh(spec, 0.2, f_eps).toarray()
    ground, excited = dense_vecs[:, 0], dense_vecs[:, 1]
    g_perp = abs(np.vdot(excited, dh @ ground))
    g_par = abs(np.vdot(excited, dh @ excited).real - np.vdot(ground, dh @ ground).real) / 2.0
    assert np.abs(vals - dense_vals[:n_levels]).max() <= 1e-12
    assert abs(character.g_perp - g_perp) <= 1e-10
    assert abs(character.g_par - g_par) <= 1e-10
    again_vals, again = sweep_point(spec, 0.2, f_eps, n_levels)
    assert np.array_equal(vals, again_vals)
    assert np.array_equal([character.g_perp, character.g_par], [again.g_perp, again.g_par])


def test_sweep_point_consistent_with_separate_calls():
    vals, character = sweep_point(SMALL, 0.2, 0.01, 4)
    direct_vals, direct = sweep_point(SMALL, 0.2, 0.01, 2)
    assert np.allclose(vals[:2], direct_vals, atol=1e-12)
    assert character.g_perp == pytest.approx(direct.g_perp, rel=1e-9)
    assert character.g_par == pytest.approx(direct.g_par, rel=1e-9)


@pytest.mark.parametrize("cutoff", [1, 2, 4, 15])
def test_upper_band_matches_dense_upper_triangle(cutoff):
    # kd = 2N_c + 2 is the reach of the alpha hop; off the parity point the
    # hop's phase makes the upper triangle differ from its conjugate
    kd = 2 * cutoff + 2
    for ej in (1.0, 0.37):
        spec = FluxQubitSpec(ej=ej, charge_cutoff=cutoff)
        for f_eps in (0.0, 0.013):
            band = charge_band(spec, 0.2, f_eps)
            dense = (kron_hamiltonian(spec, 0.2, f_eps) / ej).toarray()
            assert band.shape == (kd + 1, spec.dimension) and band.dtype == np.complex128
            assert band.flags.f_contiguous
            for d in range(kd + 1):
                assert np.array_equal(band[kd - d, d:], np.diag(dense, d))
                assert not band[kd - d, :d].any()
            assert np.diag(dense, kd).any() and not np.triu(dense, kd + 1).any()


@pytest.mark.parametrize("f_alpha, f_eps", [(0.2, 0.0), (0.1, 0.013), (0.3, -0.05)])
def test_sweep_point_bit_identical_to_sparse_reference(f_alpha, f_eps):
    # the production's shift, the same ARPACK call on the kron assembly, and
    # the couplings from a sparse dH matvec: every bit agrees; the shift lies
    # between the Gershgorin shift from the sparse row sums and E_0
    from scipy.sparse.linalg import LinearOperator, eigsh

    spec, n_levels = SMALL, 4
    stats = {}
    mine, character = sweep_point(spec, f_alpha, f_eps, n_levels, stats=stats)
    h = kron_hamiltonian(spec, f_alpha, f_eps) / spec.ej
    diag = h.diagonal().real
    gershgorin = float(np.min(diag - (abs(h).sum(axis=1) - np.abs(diag)))) - 1.0
    shift = stats["shift"] / spec.ej
    band = _pack_upper(h.toarray(), spec.band_width)
    band[-1] -= shift
    factor = band_cholesky(band)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return scipy.linalg.lapack.zpbtrs(factor, x)[0]

    start = np.random.default_rng(0).uniform(-1.0, 1.0, spec.dimension)
    vals, vecs = eigsh(h, k=n_levels, sigma=shift, which="LM", v0=start,
                       OPinv=LinearOperator(h.shape, matvec=solve, dtype=np.complex128))
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order] * spec.ej, vecs[:, order]
    dh = kron_dh(spec, f_alpha, f_eps)
    ground, excited = vecs[:, 0], vecs[:, 1]
    i0, i1 = np.real(np.vdot(ground, dh @ ground)), np.real(np.vdot(excited, dh @ excited))
    g_perp = float(abs(np.vdot(excited, dh @ ground)))

    assert gershgorin <= shift < vals[0] / spec.ej
    assert mine.tobytes() == vals.tobytes()
    assert (character.g_perp, character.g_par) == (g_perp, abs(float(i1) - float(i0)) / 2.0)
    assert (character.i0, character.i1) == (float(i0), float(i1))
    assert (stats["shift"], stats["solves"]) == (shift * spec.ej, solves)


def test_solve_path_builds_no_sparse_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was built")

    monkeypatch.setattr(sp._base._spbase, "__init__", refuse)
    vals, character = sweep_point(SMALL, 0.2, 0.013, 3)
    assert len(vals) == 3 and character.g_perp > 0.0


@pytest.mark.parametrize("f_eps", [0.0, -0.05, 0.031])
@pytest.mark.parametrize("f_alpha", [0.0, 0.1, 0.3])
def test_sweep_point_matches_dense_eigh_over_bias_grid(f_alpha, f_eps):
    spec = FluxQubitSpec()
    n_levels = 5
    vals, character = sweep_point(spec, f_alpha, f_eps, n_levels)
    dense_vals, dense_vecs = scipy.linalg.eigh(kron_hamiltonian(spec, f_alpha, f_eps).toarray())
    dh = kron_dh(spec, f_alpha, f_eps).toarray()
    ground, excited = dense_vecs[:, 0], dense_vecs[:, 1]
    g_perp = abs(np.vdot(excited, dh @ ground))
    g_par = abs(np.vdot(excited, dh @ excited).real - np.vdot(ground, dh @ ground).real) / 2.0
    assert np.abs(vals - dense_vals[:n_levels]).max() <= 1e-12
    assert abs(character.g_perp - g_perp) <= 1e-10
    assert abs(character.g_par - g_par) <= 1e-10


def test_indefinite_band_raises_numeric_error():
    # [[1, 2, 0], [2, 1, 0.5j], [0, -0.5j, 3]] in upper band storage, kd = 1
    indefinite = np.array([[0.0, 2.0, 0.5j], [1.0, 1.0, 3.0]], dtype=np.complex128, order="F")
    with pytest.raises(NumericError):
        band_cholesky(indefinite)
    with pytest.raises(NumericError):
        _levels(FluxQubitSpec(ej=math.nan, charge_cutoff=2), 0.2, 0.0, 3)


@pytest.mark.parametrize("ej, ej_over_ec", [(1e100, 50.0), (1e-4, 1.0)], ids=["large", "small"])
def test_levels_scale_with_the_circuit_energy(ej, ej_over_ec):
    # H is linear in E_J at fixed E_J/E_C, so the levels scale with it and
    # the solver's work does not change; an absolute shift margin gave
    # levels 8e-4 off with 21 solves at ej 1e100, and 203 solves at 1e-4
    unit_stats, stats = {}, {}
    unit = _levels(FluxQubitSpec(ej_over_ec=ej_over_ec, charge_cutoff=5), 0.2, 0.1, 5, unit_stats)
    levels = _levels(FluxQubitSpec(ej=ej, ej_over_ec=ej_over_ec, charge_cutoff=5), 0.2, 0.1, 5, stats)
    assert np.abs(levels / ej - unit).max() <= 1e-13 * np.abs(unit).max()
    assert stats["solves"] == unit_stats["solves"]
    assert stats["shift"] / ej == pytest.approx(unit_stats["shift"], rel=1e-14)


@pytest.mark.parametrize("cutoff", [1, 2])
def test_small_bases_match_dense_eigh_through_lanczos_breakdown(cutoff):
    # the 12 Lanczos steps of the shift estimate run out of Krylov space and
    # stop early at dimension 9, and at 25 on the f_eps = 0 parity sector
    spec = FluxQubitSpec(charge_cutoff=cutoff)
    for f_eps in (0.0, 0.013):
        dense = scipy.linalg.eigvalsh(kron_hamiltonian(spec, 0.2, f_eps).toarray())
        for n_levels in (2, spec.dimension - 2):
            stats = {}
            with np.errstate(divide="raise", invalid="raise"):
                vals = _levels(spec, 0.2, f_eps, n_levels, stats)
            assert np.abs(vals - dense[:n_levels]).max() <= 1e-12
            assert stats["factorizations"] == 1 and 0.0 < stats["ground_minus_shift"]


def test_failed_factorization_widens_the_shift_margin(monkeypatch):
    # with no margin the shift is the Ritz value itself, above E_0, so the
    # first zpbtrf fails; the retries end below E_0 with the same levels
    reference, stats = _levels(SMALL, 0.2, 0.013, 4), {}
    monkeypatch.setattr(topochain.fluxcircuit, "RITZ_MARGIN", 0.0)
    vals = _levels(SMALL, 0.2, 0.013, 4, stats)
    assert stats["factorizations"] > 1
    assert stats["shift"] < vals[0]
    assert np.abs(vals - reference).max() <= 1e-12


def test_sweep_point_reports_its_solver_stats():
    stats = {}
    sweep_point(SMALL, 0.2, 0.01, 3, stats=stats)
    assert stats["dimension"] == 169 and stats["band_width"] == 14
    assert stats["shift"] < _levels(SMALL, 0.2, 0.01, 2)[0]
    assert stats["solves"] > 0


def test_fluxqubit_csv_across_blas_thread_counts(tmp_path):
    # fresh interpreters: a run holds OpenBLAS at one thread, so ARPACK's
    # reorthogonalization (a BLAS zgemv whose sum order would follow the
    # thread split) gives the same bits whatever thread count the process
    # starts with
    cfg = {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "levels": 5,
           "f_eps_range": {"start": -0.05, "stop": 0.031, "points": 5}}
    one, two, again = (run_at_blas_threads(cfg, tmp_path / f"threads{t}-{r}", t) / "fluxqubit.csv"
                       for t, r in ((1, 0), (2, 0), (2, 1)))
    assert one.read_bytes() == two.read_bytes() == again.read_bytes()
    assert np.loadtxt(one, delimiter=",", skiprows=1).shape == (5, 8)
