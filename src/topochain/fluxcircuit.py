"""Charge-basis quantization of the gap-tunable (gradiometric) flux qubit.

Two junction phases survive the flux-quantization constraints; plane waves
exp(-i(k*phi_1 + l*phi_2)) with k, l Cooper-pair numbers in
[-N_c, N_c] give a (2N_c+1)^2 Hermitian matrix.  Convention:
exp(i*phi)|k> = |k+1> on each junction, so the alpha-junction term couples
(k, l) -> (k+1, l+1) with amplitude -E_J*alpha*C_alpha*exp(i*chi), where
C_alpha = cos(pi*(beta*(N - f_Sigma) + f_alpha)) and chi = pi*(n - f_eps).

The matrix has at most 7 nonzeros per row and is built sparse.  In the
flattened index (2N_c+1)(k+N_c) + (l+N_c) it is a Hermitian band matrix of
half-bandwidth kd = 2N_c+2, the reach of the alpha hop.  Its lowest levels
come from shift-invert Lanczos (ARPACK) at a shift sigma below its Gershgorin
bound, where H - sigma is positive definite: the upper triangle is packed
into LAPACK Hermitian band storage, factored once per bias point by banded
Cholesky (``zpbtrf``), and every shift-invert solve is one ``zpbtrs``.

scipy.sparse and scipy.sparse.linalg are imported by the functions that
use them, so that importing the package does not load them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import InvalidParameterError, NumericError

_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.complex128)


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

    def with_cutoff(self, charge_cutoff: int) -> "FluxQubitSpec":
        return replace(self, charge_cutoff=charge_cutoff)


@dataclass(frozen=True)
class QubitCharacter:
    """Gap and flux-coupling matrix elements at one bias point."""

    gap: float
    g_perp: float
    g_par: float
    f_alpha: float
    f_eps: float


def _single_junction_ops(n_c: int):
    import scipy.sparse as sp

    dim = 2 * n_c + 1
    charge = np.arange(-n_c, n_c + 1, dtype=np.float64)
    raise_op = sp.diags_array(np.ones(dim - 1), offsets=-1)  # exp(i*phi): |k> -> |k+1>
    return charge, raise_op, sp.eye_array(dim)


def _alpha_hop(spec: FluxQubitSpec, f_alpha: float, f_eps: float):
    """(amp, chi, S): the alpha-junction term is -amp*(e^{i chi} S + h.c.)."""
    import scipy.sparse as sp

    _, raise_op, _ = _single_junction_ops(int(spec.charge_cutoff))
    f_sigma = spec.f_sigma_kappa * f_alpha
    c_alpha = float(np.cos(np.pi * (spec.beta * (spec.n_total - f_sigma) + f_alpha)))
    return spec.ej * spec.alpha * c_alpha, np.pi * (spec.n_diff - f_eps), sp.kron(raise_op, raise_op)


def build_charge_hamiltonian(spec: FluxQubitSpec, f_alpha: float, f_eps: float) -> sp.csc_array:
    """Hermitian charge-basis Hamiltonian at the given reduced fluxes (CSC)."""
    import scipy.sparse as sp

    charge, raise_op, ident = _single_junction_ops(int(spec.charge_cutoff))
    k_sq = charge**2

    coef = 4.0 * spec.ec / (1.0 + 4.0 * spec.alpha)
    kinetic = coef * (
        (1.0 + 2.0 * spec.alpha) * (np.add.outer(k_sq, k_sq))
        - 4.0 * spec.alpha * np.outer(charge, charge)
    ).ravel()

    cos_phi = 0.5 * (raise_op + raise_op.T)
    amp, chi, both_up = _alpha_hop(spec, f_alpha, f_eps)
    h = (
        sp.diags_array(kinetic + spec.ej * 2.0 * (1.0 + spec.alpha))
        - spec.ej * sp.kron(cos_phi, ident)
        - spec.ej * sp.kron(ident, cos_phi)
        - amp * (np.exp(1j * chi) * both_up + np.exp(-1j * chi) * both_up.T)
    )
    return h.tocsc()


def d_hamiltonian_d_feps(spec: FluxQubitSpec, f_alpha: float, f_eps: float) -> sp.csr_array:
    """Analytic dH/df_eps (CSR); only chi = pi*(n - f_eps) depends on f_eps."""
    amp, chi, both_up = _alpha_hop(spec, f_alpha, f_eps)
    # d/df_eps of -amp*(e^{i chi} S + e^{-i chi} S^T) with dchi/df_eps = -pi
    return (1j * np.pi * amp * (np.exp(1j * chi) * both_up - np.exp(-1j * chi) * both_up.T)).tocsr()


def upper_band(h: sp.csc_array, kd: int) -> np.ndarray:
    """LAPACK upper Hermitian band storage of ``h``: a Fortran-ordered
    complex ``(kd + 1, dim)`` array with ``band[kd + i - j, j] = h[i, j]``
    for ``j - kd <= i <= j``."""
    dim = h.shape[0]
    cols = np.repeat(np.arange(dim), np.diff(h.indptr))
    upper = h.indices <= cols
    rows, cols = h.indices[upper], cols[upper]
    if np.any(cols - rows > kd):
        raise InvalidParameterError(f"matrix has entries beyond half-bandwidth {kd}")
    band = np.zeros((kd + 1, dim), dtype=np.complex128, order="F")
    band[kd + rows - cols, cols] = h.data[upper]
    return band


def band_cholesky(band: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, in the same band storage, of the Hermitian
    positive definite matrix held by ``band`` (``zpbtrf``)."""
    factor, info = _PBTRF(band)
    if info != 0:
        raise NumericError(f"banded Cholesky failed (zpbtrf info {info}): the shifted charge Hamiltonian "
                           "is not positive definite")
    return factor


def _eigensystem(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None):
    """Lowest ``n_levels`` eigenpairs, ascending, by shift-invert Lanczos.

    ``stats``, if given, receives the dimension, band width, shift and the
    number of shift-invert solves."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    n_levels = int(n_levels)
    dim = spec.dimension
    if not 1 <= n_levels <= dim - 2:
        raise InvalidParameterError(f"n_levels must be in 1..{dim - 2} at dimension {dim}, got {n_levels}")
    # solved in units of E_J, so that the problem, and the solver's work, is
    # the same at every ej: the shift's margin below the Gershgorin bound is
    # one E_J, and ARPACK's convergence test, which has an absolute floor of
    # eps**(2/3), sees Ritz values of order 1
    h = build_charge_hamiltonian(spec, f_alpha, f_eps) / spec.ej
    diag = h.diagonal().real
    shift = float(np.min(diag - (abs(h).sum(axis=1) - np.abs(diag)))) - 1.0
    if not np.isfinite(shift):  # any inf or NaN entry of H reaches the Gershgorin bound
        raise NumericError("the charge Hamiltonian has non-finite entries")
    kd = spec.band_width
    band = upper_band(h, kd)
    band[kd] -= shift
    factor = band_cholesky(band)
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return _PBTRS(factor, x)[0]

    # a fixed generic start vector keeps repeat solves bit-identical and has
    # weight in both parity sectors of the f_eps = 0 point
    start = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
    vals, vecs = eigsh(h, k=n_levels, sigma=shift, which="LM", v0=start,
                       OPinv=LinearOperator(h.shape, matvec=solve, dtype=np.complex128))
    if stats is not None:
        stats.update(dimension=dim, band_width=kd, shift=shift * spec.ej, solves=solves)
    order = np.argsort(vals, kind="stable")
    return vals[order] * spec.ej, vecs[:, order]


def solver_record(point_stats) -> dict:
    """Manifest summary of the ``stats`` of every point of one sweep."""
    shifts = [p["shift"] for p in point_stats]
    solves = [p["solves"] for p in point_stats]
    first = point_stats[0]
    return {
        "dimension": first["dimension"],
        "band_width": first["band_width"],
        "factorization": "lapack zpbtrf/zpbtrs",
        "points": len(point_stats),
        "shift_min": min(shifts),
        "shift_max": max(shifts),
        "solves_total": sum(solves),
        "solves_max_per_point": max(solves),
    }


def _qubit_pair(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None):
    """Lowest ``n_levels`` (>= 2) energies plus the qubit pair's loop currents
    I_0 = <g|dH/df_eps|g>, I_1 = <e|dH/df_eps|e> and |g_perp| = |<e|dH/df_eps|g>|."""
    vals, vecs = _eigensystem(spec, f_alpha, f_eps, n_levels, stats)
    ground, excited = vecs[:, 0], vecs[:, 1]
    dh = d_hamiltonian_d_feps(spec, f_alpha, f_eps)
    dh_ground = dh @ ground
    i0 = float(np.real(np.vdot(ground, dh_ground)))
    i1 = float(np.real(np.vdot(excited, dh @ excited)))
    return vals, i0, i1, float(abs(np.vdot(excited, dh_ground)))


def qubit_levels(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None) -> np.ndarray:
    """Lowest ``n_levels`` eigenvalues, ascending; ``stats`` as in ``_eigensystem``."""
    return _eigensystem(spec, f_alpha, f_eps, n_levels, stats)[0]


def qubit_gap(spec: FluxQubitSpec, f_alpha: float, stats=None) -> float:
    """Qubit frequency omega = E_1 - E_0 at the optimal point f_eps = 0."""
    levels = qubit_levels(spec, f_alpha, 0.0, 2, stats)
    return float(levels[1] - levels[0])


def coupling_elements(spec: FluxQubitSpec, f_alpha: float, f_eps: float) -> QubitCharacter:
    """|g_perp| = |<e|dH/df_eps|g>| and |g_par| = |<+|dH/df_eps|->| with
    |+-> = (|e> +- |g>)/sqrt(2).

    The relative eigenvector phase is gauged so the cross element is real
    and nonnegative (the gauge in which the phase-space wavefunctions are
    real); there <+|dH/df_eps|-> reduces to (I_1 - I_0)/2, which vanishes
    at the optimal point by parity.
    """
    return sweep_point(spec, f_alpha, f_eps, 2)[1]


def persistent_currents(spec: FluxQubitSpec, f_alpha: float, f_eps: float):
    """Loop currents I_0 = <g|dH/df_eps|g> and I_1 = <e|dH/df_eps|e>."""
    _, i0, i1, _ = _qubit_pair(spec, f_alpha, f_eps, 2)
    return i0, i1


def sweep_point(spec: FluxQubitSpec, f_alpha: float, f_eps: float, n_levels: int, stats=None):
    """One flux-sweep sample from a single diagonalization: the lowest
    ``n_levels`` energies plus the coupling elements of the qubit pair.
    ``stats``, if given, receives the solver record of ``_eigensystem``."""
    vals, i0, i1, g_perp = _qubit_pair(spec, f_alpha, f_eps, max(int(n_levels), 2), stats)
    character = QubitCharacter(float(vals[1] - vals[0]), g_perp, abs(i1 - i0) / 2.0, f_alpha, f_eps)
    return vals, character
