"""The kernels against independent references."""

import numpy as np

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
