"""The kernels against independent references."""

from functools import partial

import numpy as np
import pytest
from scipy.linalg.blas import zaxpy, zhbmv

from topochain import _kernels as K
from topochain import basis_state, pump_schedule
from topochain.models import FunctionSpec, schedule_arrays

from conftest import dense, random_chain


def test_ql_matches_dense_oracle(rng):
    for _ in range(100):
        h = random_chain(rng)
        vals, vecs = K.tridiag_eigh(*h)
        ref = np.linalg.eigvalsh(dense(h))
        assert np.abs(vals - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        resid = np.abs(dense(h) @ vecs - vecs * vals).max()
        assert resid <= 1e-12 * max(1.0, np.abs(ref).max())
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(h[0].size)).max() <= 1e-12


def test_ql_single_site():
    vals, vecs = K.tridiag_eigh(np.array([3.5]), np.zeros(0))
    assert vals[0] == 3.5 and vecs[0, 0] == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 21, 200])
def test_apply_minus_ih_matches_dense_product(rng, n):
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    out = K.apply_minus_ih(K.hermitian_band(diag, off), x)
    bound = 1e-14 * np.linalg.norm(h, 2) * np.linalg.norm(x)
    assert np.abs(out - (-1j * (h @ x))).max() <= bound


def test_hermitian_band_stacks_times():
    diag = np.arange(6.0).reshape(2, 3)
    off = -np.arange(1.0, 5.0).reshape(2, 2)
    band = K.hermitian_band(diag, off)
    assert band.shape == (2, 3, 2) and band.dtype == np.complex128
    assert band.flags.c_contiguous and band[1].T.flags.f_contiguous
    assert np.array_equal(band[1, :, 1], diag[1]) and np.array_equal(band[1, 1:, 0], off[1])
    assert band[1, 0, 0] == 0.0


def test_rk4_chunks_give_the_same_bits(monkeypatch):
    # one record segment of 40 substeps, H(t) evaluated 3 substeps at a time
    def h_of_times(t):
        rows.append(t.size)
        return np.cos(t)[:, None] * [1.0, -1.0, 0.5], np.sin(t)[:, None] * [0.3, 0.7]

    psi0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    rows = []
    whole = K.rk4_integrate(h_of_times, psi0, [0.0, 0.4], 0.01)
    assert rows == [81]
    monkeypatch.setattr(K, "RK4_CHUNK", 3)
    rows = []
    chunked = K.rk4_integrate(h_of_times, psi0, [0.0, 0.4], 0.01)
    assert rows == [7] * 13 + [3]
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("max_step, per_segment", [(0.002, 25), (0.01, 5)])
def test_segment_steps_count_whole_multiples_exactly(max_step, per_segment):
    # the 2001 records of the RK4 cross-checks: each segment is 0.05 to
    # within an ulp of 100, so a bare ceil read 25.000000000000004 steps of
    # 0.002 as 26 in 808 of the 2000 segments (50,808 steps, not 50,000)
    counts = K.segment_steps(np.linspace(0.0, 100.0, 2001), max_step)
    assert np.all(counts == per_segment) and counts.sum() == 2000 * per_segment
    # past the slack a segment takes one step more, none longer than the bound
    segment = per_segment * max_step * (1.0 + 2.0 * K.STEP_SLACK)
    assert K.segment_steps([0.0, segment], max_step)[0] == per_segment + 1
    assert K.segment_steps([0.0, 0.5 * max_step], max_step)[0] == 1


def _rk4_fourteen_calls(h_of_times, psi0, rec_times, max_step):
    # the RK4 step as four zhbmv, seven zaxpy and three copies, one stage
    # after the other: k_i from zhbmv, acc = psi + dt/6 (k1 + 2 k2 + 2 k3 + k4)
    psi = np.array(psi0, dtype=np.complex128)
    out = [psi]
    for ta, tb, nsub in zip(rec_times[:-1], rec_times[1:], K.segment_steps(rec_times, max_step)):
        nsub = int(nsub)
        dt = (tb - ta) / nsub
        half, third, sixth = 0.5 * dt, dt / 3.0, dt / 6.0
        bands = K.hermitian_band(*h_of_times(np.linspace(ta, tb, 2 * nsub + 1)))
        for s in range(0, 2 * nsub, 2):
            start, mid, end = bands[s].T, bands[s + 1].T, bands[s + 2].T
            k = zhbmv(1, -1j, start, psi)
            acc = zaxpy(k, psi.copy(), a=sixth)
            k = zhbmv(1, -1j, mid, zaxpy(k, psi.copy(), a=half))
            zaxpy(k, acc, a=third)
            k = zhbmv(1, -1j, mid, zaxpy(k, psi.copy(), a=half))
            zaxpy(k, acc, a=third)
            k = zhbmv(1, -1j, end, zaxpy(k, psi.copy(), a=dt))
            psi = zaxpy(k, acc, a=sixth)
        out.append(psi)
    return np.array(out)


def test_rk4_seven_calls_match_the_stage_by_stage_step():
    # the plain pump at dt 0.002, 50,000 steps: the step regrouped into seven
    # BLAS calls rounds differently, 1.9e-12 from the stage-by-stage step by
    # the end, and loses 2.6e-12 of norm against 5.0e-14
    provider = partial(schedule_arrays, pump_schedule(100.0), 7)
    times = np.linspace(0.0, 100.0, 201)
    ours = K.rk4_integrate(provider, basis_state(14, 1), times, 0.002)
    reference = _rk4_fourteen_calls(provider, basis_state(14, 1), times, 0.002)
    assert np.abs(ours - reference).max() <= 1e-11
    assert np.abs(np.linalg.norm(ours, axis=1) - 1.0).max() <= 1e-11


def test_rk4_static_rabi():
    def h_of_times(t):
        return np.zeros((t.size, 2)), np.full((t.size, 1), 0.3)

    psi0 = np.array([1.0, 0.0], dtype=np.complex128)
    times = np.linspace(0.0, 12.0, 25)
    out = K.rk4_integrate(h_of_times, psi0, times, 0.002)
    assert np.abs(np.abs(out[:, 1]) ** 2 - np.sin(0.3 * times) ** 2).max() < 1e-10


def test_param_forms():
    # every form over an array of times; omega = 2*pi*m/T
    t = np.array([0.0, 0.25, 1.2, 7.5])
    period, m = 7.5, 3.0
    const = FunctionSpec("const", offset=2.0, amplitude=5.0, frequency_multiple=1.0, phase=1.0)
    assert np.array_equal(const.value(t, period), np.full(4, 2.0))
    linear = FunctionSpec("linear", offset=1.0, amplitude=2.0)
    assert np.array_equal(linear.value(np.array([0.0, 0.25, 1.0]), 1.0), [1.0, 1.5, 3.0])
    x = FunctionSpec("sin", offset=0.0, amplitude=2.0, frequency_multiple=m, phase=0.5).value(t, period)
    assert np.abs(x - 2.0 * np.sin(2.0 * np.pi * m * t / period + 0.5)).max() < 1e-15
    y = FunctionSpec("cos", offset=-1.0, amplitude=2.0, frequency_multiple=m, phase=0.5).value(t, period)
    assert np.abs(y - (-1.0 + 2.0 * np.cos(2.0 * np.pi * m * t / period + 0.5))).max() < 1e-15
