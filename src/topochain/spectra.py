"""Diagonalization, instantaneous spectra and analytic edge states.

A trace takes H as the stacked arrays of ``models.schedule_arrays``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import tridiag_eigh
from .errors import InvalidParameterError, NumericError, PhaseDomainError
from .models import SITES_PER_CELL, ChainHamiltonian, Schedule, schedule_arrays

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


def eigendecompose(h: ChainHamiltonian) -> Spectrum:
    """Eigensystem of a chain from LAPACK's tridiagonal solver (dstevd), in the
    sign gauge of ``_fix_signs``."""
    if not (np.all(np.isfinite(h.diagonal)) and np.all(np.isfinite(h.offdiagonal))):
        raise NumericError("non-finite Hamiltonian entries")
    vals, vecs = tridiag_eigh(h.diagonal, h.offdiagonal)
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
    ``EDGE_FLAG_THRESHOLD``."""

    times: np.ndarray
    energies: np.ndarray
    edge_flags: np.ndarray
    axis_name: str = "t"


def trace_from_hamiltonians(times, diag, off, n_edge_sites: int, axis_name: str = "t") -> SpectrumTrace:
    """Spectra of a stack of chains: row i of ``diag[k, n]`` and
    ``off[k, n-1]`` is the chain at axis value ``times[i]``."""
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
    energies = np.empty(diag.shape)
    flags = np.empty(diag.shape, dtype=bool)
    for i in range(times.size):
        energies[i], vectors = tridiag_eigh(diag[i], off[i])
        flags[i] = edge_weight(vectors, n_edge_sites) >= EDGE_FLAG_THRESHOLD
    return SpectrumTrace(times, energies, flags, axis_name)


def instantaneous_spectrum(schedule: Schedule, L: int, n_times: int) -> SpectrumTrace:
    """Diagonalize the schedule on a uniform grid over one period."""
    if int(n_times) < 2:
        raise InvalidParameterError(f"n_times must be >= 2, got {n_times}")
    times = np.linspace(0.0, schedule.period, int(n_times))
    return trace_from_hamiltonians(times, *schedule_arrays(schedule, L, times), SITES_PER_CELL[schedule.kind])


# ---------------------------------------------------------------------------
# Analytic edge states
# ---------------------------------------------------------------------------


def coupling_ratio_norm_sq(lam: float, L: int) -> float:
    """Xi^2 = (1 - lam^2) / (1 - lam^(2L)), continued to 1/L at |lam| = 1."""
    lam2 = lam * lam
    if lam2 == 1.0:
        return 1.0 / L
    return (1.0 - lam2) / (1.0 - lam2**L)


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


@dataclass(frozen=True, eq=False)
class TrimerEdgeStates:
    """The four SSH3 edge states of the mirror-symmetric (a = b) trimer
    chain; the left family lives on (A, B) sites, the right on (B, C)."""

    left_plus: np.ndarray
    left_minus: np.ndarray
    right_plus: np.ndarray
    right_minus: np.ndarray
    lam: float
    xi_norm: float

    def all_states(self):
        return (self.left_plus, self.left_minus, self.right_plus, self.right_minus)


def trimer_edge_states(a: float, c: float, L: int) -> TrimerEdgeStates:
    if abs(a) >= abs(c):
        raise PhaseDomainError(f"trimer edge states need |a| < |c|, got a={a}, c={c}")
    L = int(L)
    lam = a / c
    xi = np.sqrt(coupling_ratio_norm_sq(lam, L))
    n = np.arange(1, L + 1)
    states = {}
    for pm in (+1.0, -1.0):
        fac_left = xi * (-pm * lam) ** (n - 1) / np.sqrt(2.0)
        fac_right = xi * (-pm * lam) ** (L - n) / np.sqrt(2.0)
        left = np.zeros(3 * L)
        right = np.zeros(3 * L)
        left[0::3] = fac_left
        left[1::3] = pm * fac_left
        right[1::3] = fac_right
        right[2::3] = pm * fac_right
        states[pm] = (left, right)
    return TrimerEdgeStates(states[1.0][0], states[-1.0][0], states[1.0][1], states[-1.0][1], lam, xi)


def localization_length(a: float, b: float) -> float:
    """xi = 1 / (ln|b| - ln|a|); a = 0 gives 0 (perfect localization)."""
    if a == 0.0:
        return 0.0
    if abs(a) >= abs(b):
        raise PhaseDomainError(f"localization length needs |a| < |b|, got a={a}, b={b}")
    return 1.0 / (np.log(abs(b)) - np.log(abs(a)))
