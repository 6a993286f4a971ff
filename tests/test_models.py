"""Builders, disorder and schedules."""

import numpy as np
import pytest

from topochain import (
    FunctionSpec,
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    Schedule,
    apply_disorder,
    bell_transfer_schedule,
    eigendecompose,
    optimized_schedule,
    pump_schedule,
    quench,
)

from topochain import models
from topochain.models import SITES_PER_CELL, schedule_arrays

from conftest import dense_eigvals, make_chain


def test_ssh_two_sites_has_no_b_bond():
    diag, off = make_chain("ssh", 1, a=0.5, b=1.0)
    assert np.array_equal(diag, [0.0, 0.0])
    assert np.array_equal(off, [0.5])


def test_ssh_14_site_layout():
    diag, off = make_chain("ssh", 7, a=0.1, b=1.0)
    assert diag.size == 14
    assert np.array_equal(off[0::2], np.full(7, 0.1))
    assert np.array_equal(off[1::2], np.full(6, 1.0))
    assert off[0] == 0.1 and off[-1] == 0.1


def test_ssh_four_site_eigenvalues_match_quartic_roots():
    a, b = 0.1, 1.0
    h = make_chain("ssh", 2, a=a, b=b)
    # characteristic polynomial E^4 - (2a^2+b^2) E^2 + a^4 = 0, solved
    # through an independent polynomial-root oracle
    e_sq = np.roots([1.0, -(2 * a * a + b * b), a**4])
    expected = np.sort(np.concatenate([np.sqrt(e_sq), -np.sqrt(e_sq)]))
    assert np.abs(dense_eigvals(h) - expected).max() < 1e-6


def test_ssh_rejects_zero_cells():
    with pytest.raises(InvalidDimensionError):
        eigendecompose(np.zeros(0), np.zeros(0))
    with pytest.raises(InvalidDimensionError):
        schedule_arrays(Schedule("ssh", 1.0, {"a": models.const(0.1), "b": models.const(1.0)}), 0, 0.0)


def test_rice_mele_staggers_and_isolates_first_site_at_a0():
    diag, off = make_chain("rm", 7, a=0.0, b=1.0, u=1.0)
    assert np.array_equal(diag[0::2], np.ones(7))
    assert np.array_equal(diag[1::2], -np.ones(7))
    assert off[0] == 0.0  # site 1 decoupled


def test_rice_mele_dimer_eigenvalues():
    h = make_chain("rm", 1, a=1.0, b=0.0, u=3.0)
    # 2x2 analytic diagonalization oracle: +-sqrt(a^2+u^2)
    assert np.allclose(dense_eigvals(h), [-np.sqrt(10), np.sqrt(10)], atol=1e-12)


def test_rice_mele_reduces_to_ssh_at_zero_potential(rng):
    for _ in range(20):
        L = int(rng.integers(1, 9))
        a, b = rng.normal(size=2)
        rm, ssh = make_chain("rm", L, a=a, b=b, u=0.0), make_chain("ssh", L, a=a, b=b)
        assert np.array_equal(rm[0], ssh[0]) and np.array_equal(rm[1], ssh[1])


def test_trimer_layout_and_reductions(rng):
    diag, off = make_chain("trimer", 8, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0)
    assert diag.size == 24
    assert np.array_equal(off[2::3], np.full(7, 2.0))  # final c bond absent
    # decoupled-site limit
    h0 = make_chain("trimer", 1, a=0.0, b=0.0, c=5.0, u=1.0, v=2.0, w=3.0)
    assert np.allclose(dense_eigvals(h0), [1.0, 2.0, 3.0])
    # trimer with zero potentials is the SSH3 chain with couplings (a, b, c)
    for _ in range(10):
        L = int(rng.integers(1, 6))
        a, b, c = rng.normal(size=3)
        diag, off = make_chain("trimer", L, a=a, b=b, c=c, u=0.0, v=0.0, w=0.0)
        assert np.array_equal(diag, np.zeros(3 * L))
        assert np.array_equal(off, np.resize([a, b, c], 3 * L - 1))


def test_trimer_small_spectra_symmetric():
    # 6x6 brute-force oracle: spectrum symmetric about 0; an exact zero
    # eigenvalue needs odd length (det of the even chain is (a*c*a)^2 != 0)
    vals6 = dense_eigvals(make_chain("trimer", 2, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0))
    assert np.abs(vals6 + vals6[::-1]).max() < 1e-12
    assert np.abs(vals6).min() > 0.5
    vals9 = dense_eigvals(make_chain("trimer", 3, a=1.0, b=1.0, c=2.0, u=0.0, v=0.0, w=0.0))
    assert np.abs(vals9 + vals9[::-1]).max() < 1e-12
    assert np.abs(vals9).min() < 1e-12


def test_builders_are_strictly_tridiagonal():
    # a chain is its n sites and n - 1 bonds: the layout has no room for a
    # longer-range term
    for (diag, off), n in (
        (make_chain("ssh", 5, a=0.3, b=1.1, omega=0.2), 10),
        (make_chain("rm", 5, a=0.3, b=1.1, u=0.7), 10),
        (make_chain("trimer", 4, a=0.3, b=0.3, c=1.1, u=0.1, v=0.2, w=0.3), 12),
    ):
        assert diag.shape == (n,) and off.shape == (n - 1,)
        assert diag.dtype == off.dtype == np.float64


def test_chain_rejects_bad_shapes_and_values():
    # the eigensolver's and the quench's doors check the chain they are given
    for door in (eigendecompose, lambda diag, off: quench(diag, off, 1, 1.0)):
        with pytest.raises(InvalidDimensionError):
            door(np.zeros(3), np.zeros(3))
        with pytest.raises(InvalidDimensionError):
            door(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(NumericError):
        eigendecompose(np.array([0.0, np.inf]), np.array([1.0]))


# -- disorder ---------------------------------------------------------------


def test_disorder_zero_sigma_is_identity():
    diag, off = make_chain("ssh", 7, a=0.1, b=1.0)
    out_diag, out_off = apply_disorder(diag, off, 0.0, 3)
    assert np.array_equal(out_diag, diag)
    assert np.array_equal(out_off, off)


def test_disorder_deterministic_and_input_untouched():
    diag, off = make_chain("ssh", 7, a=0.1, b=1.0)
    one = apply_disorder(diag, off, 0.01, 42)
    two = apply_disorder(diag, off, 0.01, 42)
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])
    assert np.array_equal(diag, np.zeros(14)) and np.array_equal(off, make_chain("ssh", 7, a=0.1, b=1.0)[1])
    other = apply_disorder(diag, off, 0.01, 43)
    assert not np.array_equal(one[0], other[0])


def test_disorder_rejects_negative_sigma():
    diag, off = make_chain("ssh", 2, a=0.1, b=1.0)
    for sigma in (-0.1, np.inf, np.nan):
        with pytest.raises(InvalidParameterError):
            apply_disorder(diag, off, sigma, 0)


def test_disorder_sample_statistics():
    # >= 1e5 draws across both targets of one large chain
    n_cells = 30000
    diag, off = make_chain("ssh", n_cells, a=0.1, b=1.0)
    sigma = 0.01
    out_diag, out_off = apply_disorder(diag, off, sigma, 7)
    noise = np.concatenate([out_diag - diag, out_off - off])
    n = noise.size
    assert n >= 1e5
    assert abs(noise.mean()) <= 5 * sigma / np.sqrt(n)
    assert abs(noise.std() - sigma) <= 0.02 * sigma


def test_extreme_raw_draws_give_bounded_deviates(monkeypatch):
    # the smallest raw draw, the largest, and the smallest whose top 53 bits
    # are all ones; the last two once mapped to a uniform of exactly 1.0
    raw = np.array([0, 2**64 - 1, 2**64 - 2**11], dtype=np.uint64)

    class FixedDraws:
        def __init__(self, key):
            pass

        def random_raw(self, count):
            return raw[:count]

    monkeypatch.setattr(models, "Philox", FixedDraws)
    deviates = models._gaussian_draws(0, 0, raw.size)
    assert np.all(np.isfinite(deviates))
    assert np.abs(deviates).max() <= models.MAX_DEVIATE


# -- schedules ---------------------------------------------------------------


def test_pump_schedule_waypoint_values():
    sch = pump_schedule(100.0)
    v0 = sch.values(0.0)
    assert (v0["a"], v0["b"], abs(v0["u"])) == (0.0, 1.0, 0.0)
    vh = sch.values(50.0)
    assert abs(vh["a"] - 2.0) < 1e-12 and abs(vh["u"]) < 1e-12


def test_optimized_schedule_midpoint():
    vh = optimized_schedule(100.0).values(50.0)
    assert abs(vh["a"] - 1.0) < 1e-12 and abs(vh["u"]) < 1e-12


def test_bell_schedule_start_values():
    v0 = bell_transfer_schedule(1000.0).values(0.0)
    assert abs(v0["a"] - 0.1) < 1e-12
    assert abs(v0["b"] - 0.1) < 1e-12
    assert v0["c"] == 1.0 and v0["v"] == 2.0
    assert abs(v0["u"] - 2.0) < 1e-12 and abs(v0["w"]) < 1e-12


def test_sample_schedule_dispatch_and_periodicity():
    for sch, L in ((pump_schedule(100.0, cycles=2), 7), (optimized_schedule(100.0, cycles=2), 7)):
        t = 13.7
        h1 = schedule_arrays(sch, L, t)
        h2 = schedule_arrays(sch, L, t + sch.period)
        assert np.allclose(h1[0], h2[0], rtol=0, atol=1e-12)
        assert np.allclose(h1[1], h2[1], rtol=0, atol=1e-12)
    h, ssh = schedule_arrays(pump_schedule(100.0), 7, 0.0), make_chain("ssh", 7, a=0.0, b=1.0)
    assert np.allclose(h[0], ssh[0], rtol=0, atol=1e-12)
    assert np.allclose(h[1], ssh[1], rtol=0, atol=1e-12)


_SSH_SCHEDULE = Schedule(
    "ssh",
    40.0,
    {"a": FunctionSpec("linear", offset=0.2, amplitude=0.6), "b": FunctionSpec("sin", 1.0, 0.3, 1.5, 0.7)},
    cycles=2,
)


@pytest.mark.parametrize(
    "schedule, L",
    [(_SSH_SCHEDULE, 5), (pump_schedule(100.0, cycles=2), 7), (bell_transfer_schedule(1000.0), 7)],
    ids=["ssh", "rm", "trimer"],
)
def test_schedule_arrays_match_per_time_sampling_bitwise(schedule, L):
    # The vectorized evaluator must reproduce, bit for bit, what the chain
    # layout makes of the scalar parameter values at each time.
    names = {"ssh": "ab", "rm": "abu", "trimer": "abcuvw"}[schedule.kind]
    times = np.concatenate(([0.0], np.linspace(0.0, schedule.total_time, 53)[1:-1] + 0.137, [schedule.total_time]))
    diag, off = schedule_arrays(schedule, L, times)
    assert diag.shape == (times.size, SITES_PER_CELL[schedule.kind] * L)
    for k, t in enumerate(times):
        h = schedule_arrays(schedule, L, t)
        scalars = make_chain(schedule.kind, L, **{x: schedule.params[x].value(float(t), schedule.period)
                                                  for x in names})
        for ref in (h, scalars):
            assert diag[k].tobytes() == ref[0].tobytes()
            assert off[k].tobytes() == ref[1].tobytes()


def test_schedule_validates_parameter_set():
    with pytest.raises(InvalidParameterError):
        Schedule("ssh", 10.0, {"a": FunctionSpec("const", offset=1.0)})
    with pytest.raises(InvalidParameterError):
        Schedule(
            "ssh",
            10.0,
            {
                "a": FunctionSpec("const", offset=1.0),
                "b": FunctionSpec("const", offset=1.0),
                "u": FunctionSpec("const", offset=1.0),
            },
        )


def test_function_spec_forms():
    lin = FunctionSpec("linear", offset=-1.0, amplitude=2.0)
    assert lin.value(0.0, 10.0) == -1.0
    assert lin.value(10.0, 10.0) == 1.0
    with pytest.raises(InvalidParameterError):
        FunctionSpec("tanh")
