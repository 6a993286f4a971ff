"""Diagonalization, instantaneous spectra and analytic edge states.

A trace takes H as the stacked arrays of ``models.schedule_arrays``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import MIRROR_TOL, tridiag_eigh
from .errors import InvalidDimensionError, InvalidParameterError, NumericError, PhaseDomainError
from .models import SITES_PER_CELL, Schedule, schedule_arrays

EDGE_FLAG_THRESHOLD = 0.5


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigensystem; eigenvalues ascending, column j of ``eigenvectors``
    belongs to ``eigenvalues[j]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic gauge: the leading component of each column is positive.
    # It is the lowest index within a relative 1e-9 of the column's largest
    # magnitude, so a tie between mirror-image components (mirror-symmetric
    # chains) is broken by position, not by the solver's rounding.
    mag = np.abs(vectors)
    lead = np.argmax(mag >= (1.0 - 1e-9) * mag.max(axis=0), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(diag, off) -> Spectrum:
    """Eigensystem of the chain with sites ``diag[n]`` and bonds ``off[n-1]``
    from LAPACK's tridiagonal solver (dstevd), in the sign gauge of
    ``_fix_signs``."""
    diag, off = np.asarray(diag, dtype=np.float64), np.asarray(off, dtype=np.float64)
    if diag.ndim != 1 or diag.size < 1 or off.shape != (diag.size - 1,):
        raise InvalidDimensionError(f"a chain needs n >= 1 sites and n - 1 bonds, got {diag.shape}, {off.shape}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NumericError("non-finite Hamiltonian entries")
    vals, vecs = tridiag_eigh(diag, off)
    return Spectrum(vals, _fix_signs(vecs))


def edge_weight(states: np.ndarray, n_edge_sites: int):
    """Total probability on the first and last ``n_edge_sites`` sites of one
    state (a float), or of each column of a matrix of states (an array)."""
    if n_edge_sites < 0:
        raise InvalidParameterError("n_edge_sites must be >= 0")
    prob = np.abs(np.asarray(states)) ** 2
    n = prob.shape[0]
    if 2 * n_edge_sites >= n:
        weight = prob.sum(axis=0)
    else:
        weight = prob[:n_edge_sites].sum(axis=0) + prob[n - n_edge_sites:].sum(axis=0)
    return float(weight) if prob.ndim == 1 else weight


@dataclass(frozen=True, eq=False)
class SpectrumTrace:
    """Instantaneous spectra along a schedule (or a parameter sweep).

    ``energies[i, j]`` is level j at ``times[i]``; ``edge_flags`` marks
    levels whose edge weight over one unit cell per chain end reaches
    ``EDGE_FLAG_THRESHOLD``.  The first ``solved`` rows were diagonalized;
    any rows after them are copies of their mirror partners."""

    times: np.ndarray
    energies: np.ndarray
    edge_flags: np.ndarray
    solved: int
    axis_name: str = "t"


def trace_from_hamiltonians(times, diag, off, n_edge_sites: int, axis_name: str = "t") -> SpectrumTrace:
    """Spectra of a stack of chains: row i of ``diag[k, n]`` and
    ``off[k, n-1]`` is the chain at axis value ``times[i]``.  Where row
    k-1-i is row i with its sites reversed and its bonds' signs free (a +-1
    similarity), within ``MIRROR_TOL`` of the stack's largest |entry|, the
    first ceil(k/2) rows are solved and the rest copied from their partners."""
    times = np.asarray(times, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    if diag.ndim != 2 or off.shape != (len(diag), diag.shape[1] - 1) or times.shape != (len(diag),):
        raise InvalidParameterError(f"a trace needs diag (k, n), off (k, n-1) and k axis values, got "
                                    f"{diag.shape}, {off.shape}, {times.shape}")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NumericError("non-finite Hamiltonian entries")
    if np.any(np.diff(times) <= 0):
        raise InvalidParameterError("trace axis values must increase strictly")
    tol = MIRROR_TOL * max(np.abs(diag).max(initial=0.0), np.abs(off).max(initial=0.0))
    mirrored = (np.abs(diag[::-1, ::-1] - diag).max(initial=0.0) <= tol
                and np.abs(np.abs(off[::-1, ::-1]) - np.abs(off)).max(initial=0.0) <= tol)
    solved = (times.size + 1) // 2 if mirrored else times.size
    energies = np.empty(diag.shape)
    flags = np.empty(diag.shape, dtype=bool)
    for i in range(solved):
        energies[i], vectors = tridiag_eigh(diag[i], off[i])
        flags[i] = edge_weight(vectors, n_edge_sites) >= EDGE_FLAG_THRESHOLD
    energies[solved:] = energies[:times.size - solved][::-1]
    flags[solved:] = flags[:times.size - solved][::-1]
    return SpectrumTrace(times, energies, flags, solved, axis_name)


def instantaneous_spectrum(schedule: Schedule, L: int, n_times: int) -> SpectrumTrace:
    """Diagonalize the schedule on a uniform grid over one period."""
    if int(n_times) < 2:
        raise InvalidParameterError(f"n_times must be >= 2, got {n_times}")
    times = np.linspace(0.0, schedule.period, int(n_times))
    return trace_from_hamiltonians(times, *schedule_arrays(schedule, L, times), SITES_PER_CELL[schedule.kind])


# ---------------------------------------------------------------------------
# Analytic edge states
# ---------------------------------------------------------------------------


def coupling_ratio_norm_sq(lam, L: int):
    """Xi^2 = (1 - lam^2) / (1 - lam^(2L)), continued to 1/L at |lam| = 1;
    elementwise when ``lam`` is an array, a numpy scalar when it is one."""
    lam2 = np.multiply(lam, lam)  # numpy division rules, but a scalar stays a scalar, powered by scalar pow
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at |lam| = 1, not selected
        return np.where(lam2 == 1.0, 1.0 / L, (1.0 - lam2) / (1.0 - lam2**L))[()]


@dataclass(frozen=True, eq=False)
class EdgeStatePair:
    """Closed-form SSH edge states: left on odd sites with amplitude
    Xi*lam^(n-1), right on even sites with Xi*lam^(L-n), lam = -a/b."""

    left: np.ndarray
    right: np.ndarray
    lam: float
    xi_norm: float


def analytic_edge_states(a: float, b: float, L: int) -> EdgeStatePair:
    if abs(a) >= abs(b):
        raise PhaseDomainError(f"edge states need |a| < |b|, got a={a}, b={b}")
    L = int(L)
    lam = -a / b
    xi = np.sqrt(coupling_ratio_norm_sq(lam, L))
    n = np.arange(1, L + 1)
    left = np.zeros(2 * L)
    right = np.zeros(2 * L)
    left[0::2] = xi * lam ** (n - 1)
    right[1::2] = xi * lam ** (L - n)
    return EdgeStatePair(left, right, lam, xi)
