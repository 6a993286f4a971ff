"""Charge-basis quantization of the gap-tunable (gradiometric) flux qubit.

Two junction phases survive the flux-quantization constraints; plane waves
exp(-i(k*phi_1 + l*phi_2)) with k, l Cooper-pair numbers in
[-N_c, N_c] give a (2N_c+1)^2 Hermitian matrix.  Convention:
exp(i*phi)|k> = |k+1> on each junction, so the alpha-junction term couples
(k, l) -> (k+1, l+1) with amplitude -E_J*alpha*C_alpha*exp(i*chi), where
C_alpha = cos(pi*(beta*(N - f_Sigma) + f_alpha)) and chi = pi*(n - f_eps).

In the flattened index (2N_c+1)(k+N_c) + (l+N_c) the matrix is banded, of
half-bandwidth kd = 2N_c+2, with four nonzero diagonals in its upper
triangle: the charging energy, the l hop at offset 1, the k hop at offset
2N_c+1 and the alpha hop at offset kd.  ``charge_band`` writes H/E_J straight
into LAPACK upper Hermitian band storage.  The lowest levels come from
shift-invert Lanczos (ARPACK) at sigma = theta - 0.1 E_J, where theta >=
lambda_0 is the lowest Ritz value of 12 plain Lanczos steps on the band.  The
shifted band is factored in place by banded Cholesky (``zpbtrf``), which
succeeds only if sigma < lambda_0, else the margin grows 4x down to one E_J
below the Gershgorin bound; each shift-invert solve is one ``zpbtrs``.
scipy.sparse.linalg (``eigsh``) is imported by the function that uses it,
so importing the package does not.  ``sweep_point`` is the one
solve of a bias point: its levels and its qubit pair's ``QubitCharacter``.

f_eps enters H only through e^{i chi}, and n is an integer, so for every
integer m, H(2m - f_eps) is the complex conjugate of H(f_eps): the levels
are the same, each eigenvector is conjugated, and dH/df_eps turns into
minus its conjugate.  So the gap, g_perp and g_par at 2m - f_eps equal
those at f_eps, and I_0 and I_1 change sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dznrm2, zdotc, zhbmv
from scipy.linalg.lapack import zpbtrf, zpbtrs

from ._kernels import tridiag_eigh
from .errors import InvalidParameterError, NumericError

RITZ_STEPS, RITZ_MARGIN = 12, 0.1  # Lanczos steps to theta >= lambda_0; shift margin below it, in E_J


@dataclass(frozen=True)
class FluxQubitSpec:
    """Circuit parameters; energies in units of E_J.

    ``f_sigma_kappa`` ties the total frustration to the alpha-loop flux,
    f_Sigma = kappa * f_alpha.  ``n_total`` and ``n_diff`` are the trapped
    fluxoid numbers N = N_1 + N_2 + N_alpha and n = N_1 - N_2.
    """

    ej: float = 1.0
    ej_over_ec: float = 50.0
    alpha: float = 0.5
    beta: float = 0.05
    f_sigma_kappa: float = 50.0
    n_total: int = 1
    n_diff: int = 1
    charge_cutoff: int = 15

    def __post_init__(self):
        if self.ej <= 0:
            raise InvalidParameterError("ej must be > 0")
        if self.ej_over_ec <= 0:
            raise InvalidParameterError("ej_over_ec must be > 0")
        if self.alpha <= 0:
            raise InvalidParameterError("alpha must be > 0")
        if int(self.charge_cutoff) < 1:
            raise InvalidParameterError("charge_cutoff must be >= 1")

    @property
    def ec(self) -> float:
        return self.ej / self.ej_over_ec

    @property
    def dimension(self) -> int:
        return (2 * int(self.charge_cutoff) + 1) ** 2

    @property
    def band_width(self) -> int:
        """Half-bandwidth kd of the charge Hamiltonian: the alpha hop
        (k, l) -> (k+1, l+1) moves the flattened index by 2N_c + 2."""
        return 2 * int(self.charge_cutoff) + 2


@dataclass(frozen=True)
class QubitCharacter:
    """Gap and flux-coupling matrix elements at one bias point: g_perp =
    |<e|dH/df_eps|g>| and g_par = |<+|dH/df_eps|->|, |+-> = (|e> +- |g>)/sqrt(2).

    The relative eigenvector phase is gauged so the cross element is real
    and nonnegative (the gauge in which the phase-space wavefunctions are
    real); there <+|dH/df_eps|-> reduces to (I_1 - I_0)/2, which vanishes
    at the optimal point by parity.  ``i0`` = <g|dH/df_eps|g> and ``i1`` =
    <e|dH/df_eps|e> are the loop currents of the two states."""

    gap: float
    g_perp: float
    g_par: float
    f_alpha: float
    f_eps: float
    i0: float
    i1: float


def _alpha_term(spec: FluxQubitSpec, f_alpha: float, f_eps: float):
    """(amp, chi, starts): the alpha-junction term is -amp*(e^{i chi} S + h.c.);
    S moves i to i + kd, and the l hop i to i + 1, where starts[i] (l < N_c)."""
    d = 2 * int(spec.charge_cutoff) + 1
    f_sigma = spec.f_sigma_kappa * f_alpha
    c_alpha = float(np.cos(np.pi * (spec.beta * (spec.n_total - f_sigma) + f_alpha)))
    starts = np.arange(spec.dimension - 1) % d != d - 1
    return spec.ej * spec.alpha * c_alpha, np.pi * (spec.n_diff - f_eps), starts


def charge_band(spec: FluxQubitSpec, f_alpha: float, f_eps: float) -> np.ndarray:
    """H/E_J in LAPACK upper Hermitian band storage: a Fortran-ordered
    complex ``(kd + 1, dim)`` array with ``band[kd + i - j, j] = H[i, j]/E_J``
    for ``j - kd <= i <= j``, 0 where no term couples i, j."""
    n_c, kd, dim = int(spec.charge_cutoff), spec.band_width, spec.dimension
    charge = np.arange(-n_c, n_c + 1, dtype=np.float64)
    k_sq = charge**2
    coef = 4.0 * spec.ec / (1.0 + 4.0 * spec.alpha)
    kinetic = coef * (
        (1.0 + 2.0 * spec.alpha) * (np.add.outer(k_sq, k_sq))
        - 4.0 * spec.alpha * np.outer(charge, charge)
    ).ravel()
    amp, chi, starts = _alpha_term(spec, f_alpha, f_eps)
    band = np.zeros((kd + 1, dim), dtype=np.complex128, order="F")
    band[kd] = kinetic + spec.ej * 2.0 * (1.0 + spec.alpha)
    band[kd - 1, 1:] = np.where(starts, -(spec.ej * 0.5), 0.0)  # -E_J cos(phi_2): (k, l) -> (k, l+1)
    band[1, kd - 1:] = -(spec.ej * 0.5)  # -E_J cos(phi_1): (k, l) -> (k+1, l), offset D = kd - 1
    # -amp e^{-i chi} S^T, as 0 - z so that a zero part of z is stored as +0.0
    band[0, kd:] = np.where(starts[:dim - kd], 0.0 - amp * np.exp(-1j * chi), 0.0)
    band *= 1 / spec.ej
    return band


def _dh_hops(spec: FluxQubitSpec, f_alpha: float, f_eps: float):
    """(lower, upper): dH/df_eps[i + kd, i] and dH/df_eps[i, i + kd], i < dim - kd."""
    amp, chi, starts = _alpha_term(spec, f_alpha, f_eps)
    c = 1j * np.pi * amp  # d/df_eps of -amp*(e^{i chi} S + h.c.), with dchi/df_eps = -pi
    starts = starts[:spec.dimension - spec.band_width]
    return np.where(starts, c * np.exp(1j * chi), 0.0), np.where(starts, c * -np.exp(-1j * chi), 0.0)


def band_cholesky(band: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in place of ``band``, of the Hermitian positive
    definite matrix held in that band storage (``zpbtrf``)."""
    factor, info = zpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise NumericError(f"banded Cholesky failed (zpbtrf info {info}): the shifted charge Hamiltonian "
                           "is not positive definite")
    return factor


def _eigensystem(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None):
    """Lowest ``n_levels`` eigenpairs, ascending, by shift-invert Lanczos.  ``stats``,
    if given, receives the dimension, band width, shift, E_0 minus the shift, and
    the numbers of factorizations and shift-invert solves."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n_levels, dim = int(n_levels), spec.dimension
    if not 1 <= n_levels <= dim - 2:
        raise InvalidParameterError(f"n_levels must be in 1..{dim - 2} at dimension {dim}, got {n_levels}")
    # in units of E_J, so that the solver's work is the same at every ej and ARPACK's
    # convergence test, which has an absolute floor of eps**(2/3), sees levels of order 1
    band = charge_band(spec, f_alpha, f_eps)
    kd, magnitude, rows = spec.band_width, np.abs(band), np.zeros(dim)
    # Gershgorin: each row of |H| summed in ascending j, then the diagonal taken out
    for off in range(-kd, kd + 1):  # |H[i, i + off]|, stored at column max(i, i + off)
        rows[:dim - max(off, 0)] += magnitude[kd - abs(off), max(off, 0):]
    diag = band[kd].real.copy()
    floor = float(np.min(diag - (rows - np.abs(diag)))) - 1.0
    if not np.isfinite(floor):  # any inf or NaN entry of H reaches the Gershgorin bound
        raise NumericError("the charge Hamiltonian has non-finite entries")
    # Lanczos from the lowest charging state, by scipy's BLAS alone: the shift,
    # and with it every output bit, follows the sum order of zdotc and dznrm2
    x, prev, alphas, betas = (np.arange(dim) == np.argmin(diag)) + 0j, 0.0, [], [0.0]
    for _ in range(RITZ_STEPS):
        w = zhbmv(kd, 1.0, band, x)
        alphas.append(zdotc(x, w).real)
        w -= alphas[-1] * x + betas[-1] * prev
        betas.append(dznrm2(w))
        if betas[-1] <= 1e-8:  # the Krylov space is invariant
            break
        x, prev = w / betas[-1], x
    theta = float(tridiag_eigh(alphas, betas[1:len(alphas)])[0][0])
    # H - shift factors only if shift < lambda_0 (Sylvester): the margin below
    # theta grows 4x per failure, and the Gershgorin floor cannot fail
    shifts = [max(theta - RITZ_MARGIN * 4.0**k, floor) for k in range(4)] + [floor]
    for factorizations, shift in enumerate(shifts, 1):
        band[kd] = diag - shift
        try:
            factor = band_cholesky(band)
            break
        except NumericError:
            if shift == floor:
                raise
            band = charge_band(spec, f_alpha, f_eps)  # the failed zpbtrf overwrote it
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return zpbtrs(factor, x)[0]

    # a fixed generic start vector keeps repeat solves bit-identical and has
    # weight in both parity sectors of the f_eps = 0 point; in shift-invert
    # mode ARPACK applies only OPinv to complex A, so A gives shape and dtype
    start = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
    inverse = LinearOperator((dim, dim), matvec=solve, dtype=np.complex128)
    vals, vecs = eigsh(inverse, k=n_levels, sigma=shift, which="LM", v0=start, OPinv=inverse)
    if stats is not None:
        stats.update(dimension=dim, band_width=kd, shift=shift * spec.ej, solves=solves,
                     factorizations=factorizations, ground_minus_shift=float(vals.min() - shift) * spec.ej)
    order = np.argsort(vals, kind="stable")
    return vals[order] * spec.ej, vecs[:, order]


def solver_record(point_stats, mirrored: int) -> dict:
    """Manifest summary of the ``stats`` of every solved point of one sweep,
    whose ``mirrored`` other rows were copied from mirror partners."""
    column = {key: [p[key] for p in point_stats] for key in point_stats[0]}
    return {
        "dimension": column["dimension"][0],
        "band_width": column["band_width"][0],
        "factorization": "lapack zpbtrf/zpbtrs",
        "points": len(point_stats) + mirrored,
        "mirrored_points": mirrored,
        "shift_min": min(column["shift"]),
        "shift_max": max(column["shift"]),
        "ground_minus_shift_min": min(column["ground_minus_shift"]),
        "ground_minus_shift_max": max(column["ground_minus_shift"]),
        "factorizations_total": sum(column["factorizations"]),
        "solves_total": sum(column["solves"]),
        "solves_max_per_point": max(column["solves"]),
    }


def sweep_point(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None):
    """One flux-sweep sample from a single diagonalization: the lowest
    ``n_levels`` (at least 2) energies plus the ``QubitCharacter`` of the
    qubit pair.  ``stats``, if given, receives the solver record of
    ``_eigensystem``."""
    vals, vecs = _eigensystem(spec, f_alpha, f_eps, max(int(n_levels), 2), stats)
    ground, excited = vecs[:, 0], vecs[:, 1]
    lower, upper = _dh_hops(spec, f_alpha, f_eps)
    kd, pair, dh = spec.band_width, vecs[:, :2].T, np.zeros((2, vecs.shape[0]), dtype=np.complex128)
    # dH/df_eps on both states: row i sums column i - kd, then i + kd; products as
    # (ar*xr - ai*xi) + i(ar*xi + ai*xr), no fused multiply-add, so SIMD moves no bit
    for hop, rows, x in ((lower, dh[:, kd:], pair[:, :-kd]), (upper, dh[:, :-kd], pair[:, kd:])):
        rows.real += hop.real * x.real - hop.imag * x.imag
        rows.imag += hop.real * x.imag + hop.imag * x.real
    i0 = float(zdotc(ground, dh[0]).real)  # scipy's BLAS: the CSV bits follow zdotc's sum order
    i1 = float(zdotc(excited, dh[1]).real)
    g_perp = float(abs(zdotc(excited, dh[0])))
    return vals, QubitCharacter(float(vals[1] - vals[0]), g_perp, abs(i1 - i0) / 2.0, f_alpha, f_eps, i0, i1)
