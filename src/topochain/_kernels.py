"""Numerical kernels: the tridiagonal eigensolver, the -iH band product and
the two time steppers.

``tridiag_eigh`` calls LAPACK's divide-and-conquer solver ``dstevd``, the
routine ``scipy.linalg.eigh_tridiagonal`` picks for a full spectrum, without
that wrapper's per-call argument handling (same bits).  ``apply_minus_ih``
is the one -iHx kernel of BDF and RK4: a single BLAS ``zhbmv`` on the
Hermitian upper band storage that ``hermitian_band`` builds from
``(diag, off)``.  ``rk4_integrate`` is the classical fourth-order
Runge-Kutta scheme for i dpsi/dt = H(t) psi, where H(t) comes from a
vectorized evaluator ``times -> (diag[k, n], off[k, n-1])``; its stages run
through ``zhbmv`` and in-place ``zaxpy``.  ``cfm4_integrate`` is the
fourth-order commutator-free Magnus scheme on the same evaluator, each of
its exponentials from ``tridiag_eigh``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import zaxpy, zhbmv
from scipy.linalg.lapack import dstevd

from .errors import NumericError

# substeps per evaluation of H(t) in rk4_integrate and cfm4_integrate: 2049
# rows of (n, 2) complex bands, 1.3 MiB at n = 21
RK4_CHUNK = 1024

# fourth-order commutator-free Magnus (Blanes & Moan, Appl. Numer. Math. 56
# (2006) 1519): a step of length dt from t samples H at the Gauss nodes
# t + c dt and applies exp(-i dt (w1 H1 + w2 H2)), then
# exp(-i dt (w2 H1 + w1 H2)); each exponential weighs H by 1/2 in all
_ROOT3 = 3.0**0.5
CFM4_NODES = (0.5 - _ROOT3 / 6.0, 0.5 + _ROOT3 / 6.0)
CFM4_WEIGHTS = (0.25 + _ROOT3 / 6.0, 0.25 - _ROOT3 / 6.0)


def tridiag_eigh(diagonal: np.ndarray, offdiagonal: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    real symmetric tridiagonal matrix."""
    d = np.asarray(diagonal, dtype=np.float64)
    e = np.asarray(offdiagonal, dtype=np.float64)
    if d.size == 1:  # dstevd's wrapper wants an off-diagonal of length >= 1
        return d.copy(), np.ones((1, 1))
    # a non-finite entry gives NaN results (info 0) or info > 0; the callers
    # reject non-finite H, or report the non-finite state it leads to
    vals, vecs, info = dstevd(d, e)
    if info != 0:
        raise NumericError(f"tridiagonal eigensolver failed: LAPACK dstevd info {info}")
    # ascending eigenvalues, and the vectors C-ordered as before
    return vals, np.ascontiguousarray(vecs)


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


def segment_steps(rec_times, max_step) -> np.ndarray:
    """Equal steps, each no longer than ``max_step``, of every segment
    between consecutive ``rec_times`` (at least one per segment).  The
    counts are whole floats, so a tiny ``max_step`` gives a huge count
    instead of an overflowed integer."""
    return np.maximum(np.ceil(np.diff(rec_times) / max_step), 1.0)


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
    substeps = segment_steps(rec_times, max_step)
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


def cfm4_integrate(h_of_times, psi0, rec_times, steps):
    """Propagate ``psi0`` through H(t) by the commutator-free Magnus scheme
    of ``CFM4_NODES`` and ``CFM4_WEIGHTS``, returning one state row per
    entry of ``rec_times`` (the first entry must be the start time).

    Record segment r is split into ``steps[r]`` equal steps.  Each
    exponential is V exp(-i dt E) V^T psi from ``tridiag_eigh`` of its real
    tridiagonal generator, so the scheme is unitary to rounding and exact
    for a constant H.  H(t) is evaluated at both Gauss nodes of up to
    ``RK4_CHUNK`` steps at a time.  Where H is the same at every node of
    such a chunk, its steps are one exponential of H over the chunk, from
    the eigensystem of the last constant chunk if H is still the same.
    """
    rec_times = np.asarray(rec_times, dtype=np.float64)
    psi = np.array(psi0, dtype=np.complex128)
    out = np.empty((rec_times.size, psi.size), dtype=np.complex128)
    out[0] = psi
    nodes = np.array(CFM4_NODES)
    weights = np.array([CFM4_WEIGHTS, CFM4_WEIGHTS[::-1]])  # generator x node
    constant = None  # (diag, off, eigenvalues, eigenvectors) of a constant H
    for r in range(1, rec_times.size):
        ta, tb = rec_times[r - 1], rec_times[r]
        nsub = int(steps[r - 1])
        dt = (tb - ta) / nsub
        for first in range(0, nsub, RK4_CHUNK):
            count = min(RK4_CHUNK, nsub - first)
            times = ta + dt * (np.arange(first, first + count)[:, np.newaxis] + nodes)
            diag, off = h_of_times(times.ravel())
            if np.all(diag == diag[0]) and np.all(off == off[0]):
                if constant is None or not (np.array_equal(constant[0], diag[0])
                                            and np.array_equal(constant[1], off[0])):
                    constant = (diag[0], off[0], *tridiag_eigh(diag[0], off[0]))
                vals, vecs = constant[2:]
                psi = vecs @ (np.exp(-1j * (count * dt) * vals) * (vecs.T @ psi))
                continue
            # (count, 2 generators, n) and (count, 2, n - 1)
            gen_diag = weights @ np.reshape(diag, (count, 2, -1))
            gen_off = weights @ np.reshape(off, (count, 2, -1))
            for s in range(count):
                for g in (0, 1):
                    vals, vecs = tridiag_eigh(gen_diag[s, g], gen_off[s, g])
                    psi = vecs @ (np.exp(-1j * dt * vals) * (vecs.T @ psi))
        out[r] = psi
    return out
