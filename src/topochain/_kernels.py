"""Numerical kernels: the tridiagonal eigensolver and fixed-step RK4.

``tridiag_eigh`` calls LAPACK's MRRR solver (``?stemr``, Dhillon & Parlett
2004) through ``scipy.linalg.eigh_tridiagonal``.  ``rk4_integrate`` is the
classical fourth-order Runge-Kutta scheme for i dpsi/dt = H(t) psi, where
H(t) comes from a vectorized evaluator ``times -> (diag[k, n], off[k, n-1])``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import NumericError


def tridiag_eigh(diagonal: np.ndarray, offdiagonal: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    real symmetric tridiagonal matrix."""
    d = np.asarray(diagonal, dtype=np.float64)
    e = np.asarray(offdiagonal, dtype=np.float64)
    try:
        vals, vecs = eigh_tridiagonal(d, e)
    except LinAlgError as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    return vals[order], np.ascontiguousarray(vecs[:, order])


def apply_minus_ih(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-i H x for the tridiagonal H with the given diagonal and bonds."""
    out = diag * x
    if off.size:
        out[:-1] += off * x[1:]
        out[1:] += off * x[:-1]
    return -1j * out


def rk4_integrate(h_of_times, psi0, rec_times, max_step):
    """Propagate ``psi0`` through H(t), returning one state row per entry of
    ``rec_times`` (the first entry must be the start time).

    Each record segment is split into equal substeps no longer than
    ``max_step``; H(t) is evaluated once per segment on its step and
    half-step grid, so memory stays bounded by one segment.
    """
    rec_times = np.asarray(rec_times, dtype=np.float64)
    psi = np.array(psi0, dtype=np.complex128)
    out = np.empty((rec_times.size, psi.size), dtype=np.complex128)
    out[0] = psi
    for r in range(1, rec_times.size):
        ta, tb = rec_times[r - 1], rec_times[r]
        nsub = max(int(np.ceil((tb - ta) / max_step)), 1)
        dt = (tb - ta) / nsub
        half = 0.5 * dt
        sixth = dt / 6.0
        diag, off = h_of_times(np.linspace(ta, tb, 2 * nsub + 1))
        for s in range(0, 2 * nsub, 2):
            k1 = apply_minus_ih(diag[s], off[s], psi)
            k2 = apply_minus_ih(diag[s + 1], off[s + 1], psi + half * k1)
            k3 = apply_minus_ih(diag[s + 1], off[s + 1], psi + half * k2)
            k4 = apply_minus_ih(diag[s + 2], off[s + 2], psi + dt * k3)
            psi = psi + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[r] = psi
    return out
