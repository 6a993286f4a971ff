"""The kernels against independent references."""

import numpy as np
import pytest

from topochain import _kernels as K
from topochain.models import FunctionSpec

from conftest import random_chain


def test_ql_matches_dense_oracle(rng):
    for _ in range(100):
        h = random_chain(rng)
        vals, vecs = K.tridiag_eigh(h.diagonal, h.offdiagonal)
        ref = np.linalg.eigvalsh(h.to_dense())
        assert np.abs(vals - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        dense = h.to_dense()
        resid = np.abs(dense @ vecs - vecs * vals).max()
        assert resid <= 1e-12 * max(1.0, np.abs(ref).max())
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(h.n_sites)).max() <= 1e-12


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
