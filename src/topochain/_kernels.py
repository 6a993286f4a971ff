"""Numerical kernels: the tridiagonal eigensolver, the -iH band product and
the two time steppers.

``tridiag_eigh`` calls LAPACK's divide-and-conquer solver ``dstevd``, the
routine ``scipy.linalg.eigh_tridiagonal`` picks for a full spectrum, without
that wrapper's per-call argument handling (same bits).  ``apply_minus_ih``
is the one -iHx kernel of BDF and RK4: a single BLAS ``zhbmv`` on the
Hermitian upper band storage that ``hermitian_band`` builds from
``(diag, off)``.  ``rk4_integrate`` is the classical fourth-order
Runge-Kutta scheme for i dpsi/dt = H(t) psi, where H(t) comes from a
vectorized evaluator ``times -> (diag[k, n], off[k, n-1])``; a step is
four ``zhbmv`` and three in-place ``zaxpy``.  ``cfm4_integrate`` is the
fourth-order commutator-free Magnus scheme on the same evaluator, each of
its exponentials from ``tridiag_eigh``, for one state or the columns of an
(n, k) array at once; where ``mirror_applies`` (H real and
R H(t) R = H(t0 + t1 - t), R the reversal of the site order, as in both
paper pumps) it integrates the first half only and reads the second off
that half's propagators.  ``one_blas_thread`` holds every OpenBLAS library
loaded into the process at one thread for the length of a run.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import numpy as np
from scipy.linalg.blas import zaxpy, zhbmv
from scipy.linalg.lapack import dstevd

from .errors import NumericError

# substeps per evaluation of H(t) in rk4_integrate and cfm4_integrate: 2049
# rows of (n, 2) complex bands, 1.3 MiB at n = 21
RK4_CHUNK = 1024

# relative slack of segment_steps: the differences of n record times
# spanning T are off by up to about n ulp(T) / T relative, 2.2e-11 at the
# 100,000 records a config allows, so that 25 steps of 0.002 in a segment
# 0.05 long read as 25.000000000000004 steps
STEP_SLACK = 1e-9

# fourth-order commutator-free Magnus (Blanes & Moan, Appl. Numer. Math. 56
# (2006) 1519): a step of length dt from t samples H at the Gauss nodes
# t + c dt and applies exp(-i dt (w1 H1 + w2 H2)), then
# exp(-i dt (w2 H1 + w1 H2)); each exponential weighs H by 1/2 in all
_ROOT3 = 3.0**0.5
CFM4_NODES = (0.5 - _ROOT3 / 6.0, 0.5 + _ROOT3 / 6.0)
CFM4_WEIGHTS = (0.25 + _ROOT3 / 6.0, 0.25 - _ROOT3 / 6.0)

# the time-reversal mirror of cfm4_integrate (see mirror_applies).  Its
# n columns of the identity over half the run take 0.6 / 0.65 / 0.8 /
# 0.93-0.96 / 1.0-1.05 of the direct run's time at 14 / 50 / 100 / 150 /
# 200 sites (plain pump, two steps a record segment, one BLAS thread, two
# runs; BENCH_reversal.json), so it runs up to 150 sites.  Its first-half
# propagators, (records + 1) / 2 * n^2 * 16 B, may take 64 MiB: up to
# 19,019 records at 21 sites and 371 at 150.  H(tau) and
# R H(t0 + t1 - tau) R must agree within MIRROR_TOL of the largest |entry|
# of H; at the nodes of the four symmetric paths of the figures (the Bell
# and plain pumps, the lz arc and line) they differ by at most 9.4e-16 of it.
# spectra.trace_from_hamiltonians mirrors a stack of chains by the same
# tolerance
MIRROR_MAX_SITES = 150
MIRROR_MAX_BYTES = 64 * 2**20
MIRROR_TOL = 1e-14

# OpenBLAS's C thread-count calls as (setter, getter) names: the numpy and
# scipy wheels prefix them with scipy_, and numpy's 64-bit-integer build
# also suffixes them with 64_ (the names ending in _64_ are the Fortran
# calls, which take a pointer)
OPENBLAS_THREAD_CALLS = tuple((f"{pre}openblas_set_num_threads{suf}", f"{pre}openblas_get_num_threads{suf}")
                              for pre in ("scipy_", "") for suf in ("64_", ""))


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
    return vals, vecs  # ascending eigenvalues


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(file name, getter, setter) of each OpenBLAS library mapped into this
    process, found by its path in /proc/self/maps, that exports a pair of
    ``OPENBLAS_THREAD_CALLS``.  Found once: numpy's and scipy's copies are
    both loaded by the time this module is, as it imports scipy.linalg."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # no /proc on this platform: nothing to pin
        return ()
    controls = []
    for path in dict.fromkeys(f[5].strip() for f in fields if len(f) == 6):
        name = os.path.basename(path)
        if "openblas" not in name.lower() or not os.path.isfile(path):
            continue
        library = ctypes.CDLL(path)  # the loaded copy: dlopen of a mapped path adds no second one
        for set_name, get_name in OPENBLAS_THREAD_CALLS:
            setter, getter = getattr(library, set_name, None), getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((name, getter, setter))
                break
    return tuple(sorted(controls, key=lambda control: control[0]))


@contextmanager
def one_blas_thread():
    """Hold every OpenBLAS library of the process at one thread inside the
    ``with`` block, and give each its previous count back on leaving it,
    also when the block raises.

    At one thread each BLAS call sums in one fixed order, so the bits of a
    run do not follow the machine's core count or ``OPENBLAS_NUM_THREADS``;
    and the small banded and level-2 calls of the solvers run faster than
    split over threads.  Yields the manifest record of the pin: the file
    names of the pinned libraries and the thread count, ``None`` where no
    library exports a setter and the libraries keep their own counts.
    """
    controls = _openblas_thread_controls()
    previous = [getter() for _, getter, _ in controls]
    for _, _, setter in controls:
        setter(1)
    try:
        yield {"libraries": [name for name, _, _ in controls], "threads": 1 if controls else None}
    finally:
        for (_, _, setter), count in zip(controls, previous):
            setter(count)


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
    """Equal steps, each no longer than ``max_step / (1 - STEP_SLACK)``, of
    every segment between consecutive ``rec_times`` (at least one per
    segment): a segment within that relative slack of a whole number of
    ``max_step`` takes that number.  The counts are whole floats, so a tiny
    ``max_step`` gives a huge count instead of an overflowed integer."""
    return np.maximum(np.ceil(np.diff(rec_times) / max_step * (1.0 - STEP_SLACK)), 1.0)


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
        half = -0.5j * dt
        full = -1j * dt
        sixth = -1j * dt / 6.0
        grid = np.linspace(ta, tb, 2 * nsub + 1)
        for first in range(0, nsub, RK4_CHUNK):
            steps = min(RK4_CHUNK, nsub - first)
            bands = hermitian_band(*h_of_times(grid[2 * first:2 * (first + steps) + 1]))
            for s in range(0, 2 * steps, 2):
                # the zhbmv of apply_minus_ih inlined, each block transposed
                # once.  With the stage inputs u2, u3, u4 = psi + dt/2 k1,
                # psi + dt/2 k2, psi + dt k3 (one zhbmv each, onto a copy of
                # psi), psi + dt/6 (k1 + 2 k2 + 2 k3 + k4) is
                # (u2 + 2 u3 + u4 - psi) / 3 + dt/6 k4; the sum is formed in
                # u2's buffer, as zaxpy writes into the y it is given
                start, mid, end = bands[s].T, bands[s + 1].T, bands[s + 2].T
                u2 = zhbmv(1, half, start, psi, beta=1.0, y=psi)
                u3 = zhbmv(1, half, mid, u2, beta=1.0, y=psi)
                u4 = zhbmv(1, full, mid, u3, beta=1.0, y=psi)
                acc = zaxpy(u3, u2, a=2.0)
                zaxpy(u4, acc)
                zaxpy(psi, acc, a=-1.0)
                psi = zhbmv(1, sixth, end, u4, beta=1.0 / 3.0, y=acc, overwrite_y=1)
        out[r] = psi
    return out


def _chunks(rec_times, steps):
    """(record, dt, node times) of each run of up to ``RK4_CHUNK`` steps in
    record order, the node times a (count, 2) array."""
    nodes = np.array(CFM4_NODES)
    for r in range(1, rec_times.size):
        ta, tb = rec_times[r - 1], rec_times[r]
        nsub = int(steps[r - 1])
        dt = (tb - ta) / nsub
        for first in range(0, nsub, RK4_CHUNK):
            count = min(RK4_CHUNK, nsub - first)
            yield r, dt, ta + dt * (np.arange(first, first + count)[:, np.newaxis] + nodes)


def _node_batches(rec_times, steps, size=RK4_CHUNK // 2):
    # the node times of _chunks as 1-D runs of ``size`` times (the last may
    # be shorter), so that H is evaluated once per run, not once per record
    # segment, and H and its mirror take less memory than a chunk's H and
    # generators
    batch, count = [], 0
    for _, _, times in _chunks(rec_times, steps):
        batch.append(times.ravel())
        count += times.size
        while count >= size:
            joined = np.concatenate(batch)
            yield joined[:size]
            batch, count = [joined[size:]], count - size
    if count:
        yield np.concatenate(batch)


def _largest_entry(diag, off):
    return max(np.abs(diag).max(), np.abs(off).max(initial=0.0))


def mirror_applies(h_of_times, rec_times, steps, n_sites: int) -> bool:
    """Whether ``cfm4_integrate`` runs the time-reversal mirror: an odd
    number of records symmetric about the middle one (within ``MIRROR_TOL``
    of the largest |time|), a step grid that reads
    the same backwards, at most ``MIRROR_MAX_SITES`` sites, the first half's
    propagators within ``MIRROR_MAX_BYTES``, and at every Gauss node tau of
    the first half, H(tau) = R H(t0 + t1 - tau) R within ``MIRROR_TOL`` of
    the largest |entry| of H there or at the record times, R the reversal
    of the site order; H not the same at all of those nodes (a constant H
    costs one eigensolve)."""
    rec_times = np.asarray(rec_times, dtype=np.float64)
    steps = np.asarray(steps)
    half = rec_times.size // 2
    end = rec_times[0] + rec_times[-1]
    if (rec_times.size % 2 == 0 or n_sites > MIRROR_MAX_SITES
            or (half + 1) * n_sites**2 * 16 > MIRROR_MAX_BYTES or not np.array_equal(steps, steps[::-1])
            or not np.abs(rec_times + rec_times[::-1] - end).max() <= MIRROR_TOL * np.abs(rec_times).max()):
        return False
    # the scale of the run, also where H passes through 0 in a batch
    run_scale = _largest_entry(*h_of_times(rec_times))
    varies, start = False, None
    for times in _node_batches(rec_times[:half + 1], steps[:half]):
        diag, off = h_of_times(times)
        mirror_diag, mirror_off = h_of_times(end - times)
        scale = max(run_scale, _largest_entry(diag, off), _largest_entry(mirror_diag, mirror_off))
        # written so that a NaN anywhere reads as asymmetric
        if not (np.abs(diag - mirror_diag[:, ::-1]).max() <= MIRROR_TOL * scale
                and np.abs(off - mirror_off[:, ::-1]).max(initial=0.0) <= MIRROR_TOL * scale):
            return False
        if start is None:
            start = diag[0], off[0]
        varies = varies or not (np.all(diag == start[0]) and np.all(off == start[1]))
    return varies


def cfm4_integrate(h_of_times, psi0, rec_times, steps, stats=None):
    """Propagate ``psi0``, one state of shape (n,) or k states as the columns
    of an (n, k) array, by the commutator-free Magnus scheme of
    ``CFM4_NODES`` and ``CFM4_WEIGHTS``.  Returns one record per entry of
    ``rec_times`` (the first entry must be the start time), each of the
    shape of ``psi0``.

    Record segment r is split into ``steps[r]`` equal steps.  Each
    exponential is V exp(-i dt E) V^T psi from ``tridiag_eigh`` of its real
    tridiagonal generator, so the scheme is unitary to rounding and exact
    for a constant H.  The eigensolves do not depend on the state, so the k
    columns share them; one column gives the same bits as a single state.
    H(t) is evaluated at both Gauss nodes of up to ``RK4_CHUNK`` steps at a
    time.  Where H is the same at every node of such a chunk, its steps are
    one exponential of H over the chunk, from the eigensystem of the last
    constant chunk if H is still the same.

    Where ``mirror_applies``, only the first half is integrated.  With
    R H(t) R = H(t0 + t1 - t) and H real, a mirrored step is R S^T R for the
    step S it mirrors (the nodes c1 = 1 - c2 swap, and the exponentials of
    complex symmetric generators are symmetric), so U(t1, t1 - s) =
    R P_s^T R with P_s = U(t0 + s, t0).  The n columns of the identity are
    propagated to every first-half record, which gives P_s there and
    P = U(middle, t0), and a second-half record t is
    R conj(P_s) (P^T R P psi0) at s = t0 + t1 - t: the same steps, in
    other rounding.  A ``stats`` dict gets ``mirrored``, whether it did.
    """
    rec_times = np.asarray(rec_times, dtype=np.float64)
    shape = np.shape(psi0)
    psi = np.array(psi0, dtype=np.complex128).reshape(shape[0], -1)
    mirrored = mirror_applies(h_of_times, rec_times, steps, shape[0])
    if stats is not None:
        stats["mirrored"] = mirrored
    if mirrored:
        out = _cfm4_mirrored(h_of_times, psi, rec_times, steps)
    else:
        out = _cfm4_direct(h_of_times, psi, rec_times, steps)
    return out.reshape(rec_times.shape + shape)


def _cfm4_mirrored(h_of_times, psi, rec_times, steps):
    # the (records, n, k) states of cfm4_integrate's mirror: out[half + j]
    # is R conj(P_{half - j}) final, computed as the conjugate of
    # P_{half - j} conj(final), with rows reversed, so that no conjugate of
    # a stored propagator is formed
    half = rec_times.size // 2
    props = _cfm4_direct(h_of_times, np.eye(psi.shape[0], dtype=np.complex128), rec_times[:half + 1], steps[:half])
    out = np.empty((rec_times.size,) + psi.shape, dtype=np.complex128)
    np.matmul(props, psi, out=out[:half + 1])
    final = props[half].T @ out[half, ::-1]
    out[half + 1:] = np.matmul(props[:half], final.conj())[::-1, ::-1].conj()
    return out


def _cfm4_direct(h_of_times, psi, rec_times, steps):
    # cfm4_integrate's step loop over every record, for (n, k) states
    out = np.empty((rec_times.size,) + psi.shape, dtype=np.complex128)
    out[0] = psi
    weights = np.array([CFM4_WEIGHTS, CFM4_WEIGHTS[::-1]])  # generator x node
    constant = None  # (diag, off, eigenvalues, eigenvectors) of a constant H
    for r, dt, times in _chunks(rec_times, steps):
        count = times.shape[0]
        diag, off = h_of_times(times.ravel())
        if np.all(diag == diag[0]) and np.all(off == off[0]):
            if constant is None or not (np.array_equal(constant[0], diag[0])
                                        and np.array_equal(constant[1], off[0])):
                constant = (diag[0], off[0], *tridiag_eigh(diag[0], off[0]))
            vals, vecs = constant[2:]
            psi = vecs @ (np.exp(-1j * (count * dt) * vals)[:, np.newaxis] * (vecs.T @ psi))
        else:
            # (count, 2 generators, n) and (count, 2, n - 1)
            gen_diag = weights @ np.reshape(diag, (count, 2, -1))
            gen_off = weights @ np.reshape(off, (count, 2, -1))
            for s in range(count):
                for g in (0, 1):
                    vals, vecs = tridiag_eigh(gen_diag[s, g], gen_off[s, g])
                    psi = vecs @ (np.exp(-1j * dt * vals)[:, np.newaxis] * (vecs.T @ psi))
        out[r] = psi
    return out
