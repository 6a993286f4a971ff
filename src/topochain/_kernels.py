"""Numerical kernels: the tridiagonal eigensolver and the -iH band product.

``tridiag_eigh`` calls LAPACK's MRRR solver (``?stemr``, Dhillon & Parlett
2004) through ``scipy.linalg.eigh_tridiagonal``.  ``apply_minus_ih`` is the
one -iHx kernel of both integrators: a single BLAS ``zhbmv`` on the
Hermitian upper band storage that ``hermitian_band`` builds from
``(diag, off)``.  ``rk4_integrate`` is the classical fourth-order
Runge-Kutta scheme for i dpsi/dt = H(t) psi, where H(t) comes from a
vectorized evaluator ``times -> (diag[k, n], off[k, n-1])``; its stages run
through ``zhbmv`` and in-place ``zaxpy``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.blas import zaxpy, zhbmv

from .errors import NumericError

# substeps per evaluation of H(t) in rk4_integrate: 2049 rows of (n, 2)
# complex bands, 1.3 MiB at n = 21
RK4_CHUNK = 1024


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


def hermitian_band(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Upper band storage of the tridiagonal H with diagonals ``diag[..., n]``
    and bonds ``off[..., n-1]``: a complex ``(..., n, 2)`` array holding the
    bond ``off[j-1]`` at ``[..., j, 0]`` (``[..., 0, 0]`` is unused) and
    ``diag[j]`` at ``[..., j, 1]``.

    Complex and C-ordered, so that ``band[k].T`` is the Fortran-ordered
    ``(2, n)`` block ``zhbmv`` reads without a copy or a conversion.
    """
    diag = np.asarray(diag)
    band = np.zeros(diag.shape + (2,), dtype=np.complex128)
    band[..., 1:, 0] = off
    band[..., 1] = diag
    return band


def apply_minus_ih(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-i H x for the H of one ``(n, 2)`` block of ``hermitian_band``."""
    return zhbmv(1, -1j, band.T, x)


def rk4_substeps(rec_times, max_step) -> np.ndarray:
    """Equal substeps, each no longer than ``max_step``, of every segment
    between consecutive ``rec_times`` (at least one per segment)."""
    return np.maximum(np.ceil(np.diff(rec_times) / max_step), 1).astype(np.int64)


def rk4_integrate(h_of_times, psi0, rec_times, max_step):
    """Propagate ``psi0`` through H(t), returning one state row per entry of
    ``rec_times`` (the first entry must be the start time).

    Each record segment is split into equal substeps no longer than
    ``max_step``.  H(t) is evaluated on the step and half-step grid of up to
    ``RK4_CHUNK`` substeps at a time, so memory stays bounded whatever the
    step count of a segment.
    """
    rec_times = np.asarray(rec_times, dtype=np.float64)
    psi = np.array(psi0, dtype=np.complex128)
    out = np.empty((rec_times.size, psi.size), dtype=np.complex128)
    out[0] = psi
    substeps = rk4_substeps(rec_times, max_step)
    for r in range(1, rec_times.size):
        ta, tb = rec_times[r - 1], rec_times[r]
        nsub = int(substeps[r - 1])
        dt = (tb - ta) / nsub
        half = 0.5 * dt
        third = dt / 3.0
        sixth = dt / 6.0
        grid = np.linspace(ta, tb, 2 * nsub + 1)
        for first in range(0, nsub, RK4_CHUNK):
            steps = min(RK4_CHUNK, nsub - first)
            bands = hermitian_band(*h_of_times(grid[2 * first:2 * (first + steps) + 1]))
            for s in range(0, 2 * steps, 2):
                # apply_minus_ih inlined, each block transposed once (calling
                # it costs 1.2 us of a 17 us loop step at n = 14, same bits);
                # acc collects psi + dt/6 (k1 + 2 k2 + 2 k3 + k4), and each
                # zaxpy writes into the buffer it is given as y
                start, mid, end = bands[s].T, bands[s + 1].T, bands[s + 2].T
                k = zhbmv(1, -1j, start, psi)
                acc = zaxpy(k, psi.copy(), a=sixth)
                k = zhbmv(1, -1j, mid, zaxpy(k, psi.copy(), a=half))
                zaxpy(k, acc, a=third)
                k = zhbmv(1, -1j, mid, zaxpy(k, psi.copy(), a=half))
                zaxpy(k, acc, a=third)
                k = zhbmv(1, -1j, end, zaxpy(k, psi.copy(), a=dt))
                psi = zaxpy(k, acc, a=sixth)
        out[r] = psi
    return out
