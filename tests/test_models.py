"""Builders, disorder and schedules."""

import numpy as np
import pytest

from topochain import (
    ChainHamiltonian,
    DisorderSpec,
    FunctionSpec,
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    Schedule,
    apply_disorder,
    bell_transfer_schedule,
    build_rice_mele,
    build_ssh,
    build_trimer,
    optimized_schedule,
    pump_schedule,
)

from topochain import models
from topochain.models import SITES_PER_CELL, schedule_arrays

from conftest import dense_eigvals


def test_ssh_two_sites_has_no_b_bond():
    h = build_ssh(1, 0.5, 1.0, 0.0)
    assert np.array_equal(h.diagonal, [0.0, 0.0])
    assert np.array_equal(h.offdiagonal, [0.5])


def test_ssh_14_site_layout():
    h = build_ssh(7, 0.1, 1.0, 0.0)
    assert h.n_sites == 14
    assert np.array_equal(h.offdiagonal[0::2], np.full(7, 0.1))
    assert np.array_equal(h.offdiagonal[1::2], np.full(6, 1.0))
    assert h.offdiagonal[0] == 0.1 and h.offdiagonal[-1] == 0.1


def test_ssh_four_site_eigenvalues_match_quartic_roots():
    a, b = 0.1, 1.0
    h = build_ssh(2, a, b, 0.0)
    # characteristic polynomial E^4 - (2a^2+b^2) E^2 + a^4 = 0, solved
    # through an independent polynomial-root oracle
    e_sq = np.roots([1.0, -(2 * a * a + b * b), a**4])
    expected = np.sort(np.concatenate([np.sqrt(e_sq), -np.sqrt(e_sq)]))
    assert np.abs(dense_eigvals(h) - expected).max() < 1e-6


def test_ssh_rejects_zero_cells():
    with pytest.raises(InvalidDimensionError):
        build_ssh(0, 0.1, 1.0, 0.0)


def test_rice_mele_staggers_and_isolates_first_site_at_a0():
    h = build_rice_mele(7, 0.0, 1.0, 1.0)
    assert np.array_equal(h.diagonal[0::2], np.ones(7))
    assert np.array_equal(h.diagonal[1::2], -np.ones(7))
    assert h.offdiagonal[0] == 0.0  # site 1 decoupled


def test_rice_mele_dimer_eigenvalues():
    h = build_rice_mele(1, 1.0, 0.0, 3.0)
    # 2x2 analytic diagonalization oracle: +-sqrt(a^2+u^2)
    assert np.allclose(dense_eigvals(h), [-np.sqrt(10), np.sqrt(10)], atol=1e-12)


def test_rice_mele_reduces_to_ssh_at_zero_potential(rng):
    for _ in range(20):
        L = int(rng.integers(1, 9))
        a, b = rng.normal(size=2)
        assert build_rice_mele(L, a, b, 0.0).allclose(build_ssh(L, a, b, 0.0))


def test_trimer_layout_and_reductions(rng):
    h = build_trimer(8, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0)
    assert h.n_sites == 24
    assert np.array_equal(h.offdiagonal[2::3], np.full(7, 2.0))  # final c bond absent
    # decoupled-site limit
    h0 = build_trimer(1, 0.0, 0.0, 5.0, 1.0, 2.0, 3.0)
    assert np.allclose(dense_eigvals(h0), [1.0, 2.0, 3.0])
    # trimer with zero potentials is the SSH3 chain with couplings (a, b, c)
    for _ in range(10):
        L = int(rng.integers(1, 6))
        a, b, c = rng.normal(size=3)
        ht = build_trimer(L, a, b, c, 0.0, 0.0, 0.0)
        assert np.array_equal(ht.diagonal, np.zeros(3 * L))
        off = np.resize([a, b, c], 3 * L - 1)
        assert np.array_equal(ht.offdiagonal, off)


def test_trimer_small_spectra_symmetric():
    # 6x6 brute-force oracle: spectrum symmetric about 0; an exact zero
    # eigenvalue needs odd length (det of the even chain is (a*c*a)^2 != 0)
    vals6 = dense_eigvals(build_trimer(2, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0))
    assert np.abs(vals6 + vals6[::-1]).max() < 1e-12
    assert np.abs(vals6).min() > 0.5
    vals9 = dense_eigvals(build_trimer(3, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0))
    assert np.abs(vals9 + vals9[::-1]).max() < 1e-12
    assert np.abs(vals9).min() < 1e-12


def test_builders_are_strictly_tridiagonal(rng):
    for build in (
        lambda: build_ssh(5, 0.3, 1.1, 0.2),
        lambda: build_rice_mele(5, 0.3, 1.1, 0.7),
        lambda: build_trimer(4, 0.3, 0.3, 1.1, 0.1, 0.2, 0.3),
    ):
        h = build()
        dense = h.to_dense()
        beyond = dense - np.diag(np.diag(dense)) - np.diag(np.diag(dense, 1), 1) - np.diag(np.diag(dense, -1), -1)
        assert np.all(beyond == 0.0)
        assert np.array_equal(dense, dense.T)


def test_chain_rejects_bad_shapes_and_values():
    with pytest.raises(InvalidDimensionError):
        ChainHamiltonian(np.zeros(3), np.zeros(3))
    with pytest.raises(NumericError):
        ChainHamiltonian(np.array([0.0, np.inf]), np.array([1.0]))


def test_chain_is_immutable():
    h = build_ssh(2, 0.1, 1.0)
    with pytest.raises(ValueError):
        h.diagonal[0] = 1.0


# -- disorder ---------------------------------------------------------------


def test_disorder_zero_sigma_is_identity():
    h = build_ssh(7, 0.1, 1.0)
    out = apply_disorder(h, DisorderSpec(0.0, seed=3))
    assert np.array_equal(out.diagonal, h.diagonal)
    assert np.array_equal(out.offdiagonal, h.offdiagonal)


def test_disorder_deterministic_and_input_untouched():
    h = build_ssh(7, 0.1, 1.0)
    s = DisorderSpec(0.01, seed=42)
    one = apply_disorder(h, s)
    two = apply_disorder(h, s)
    assert np.array_equal(one.diagonal, two.diagonal)
    assert np.array_equal(one.offdiagonal, two.offdiagonal)
    assert np.array_equal(h.diagonal, np.zeros(14))
    other = apply_disorder(h, DisorderSpec(0.01, seed=43))
    assert not np.array_equal(one.diagonal, other.diagonal)


def test_disorder_targets_subset():
    h = build_ssh(7, 0.1, 1.0)
    diag_only = apply_disorder(h, DisorderSpec(0.01, seed=1, targets=frozenset({"diagonal"})))
    assert np.array_equal(diag_only.offdiagonal, h.offdiagonal)
    assert not np.array_equal(diag_only.diagonal, h.diagonal)


def test_disorder_rejects_negative_sigma():
    with pytest.raises(InvalidParameterError):
        DisorderSpec(-0.1, seed=0)


def test_disorder_sample_statistics():
    # >= 1e5 draws across both targets of one large chain
    n_cells = 30000
    h = build_ssh(n_cells, 0.1, 1.0)
    sigma = 0.01
    out = apply_disorder(h, DisorderSpec(sigma, seed=7))
    noise = np.concatenate([out.diagonal - h.diagonal, out.offdiagonal - h.offdiagonal])
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
        h1 = ChainHamiltonian(*schedule_arrays(sch, L, t))
        h2 = ChainHamiltonian(*schedule_arrays(sch, L, t + sch.period))
        assert h1.allclose(h2, tol=1e-12)
    h = ChainHamiltonian(*schedule_arrays(pump_schedule(100.0), 7, 0.0))
    assert h.allclose(build_ssh(7, 0.0, 1.0, 0.0), tol=1e-12)


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
    # builders make of the scalar parameter values at each time.
    builders = {"ssh": build_ssh, "rm": build_rice_mele, "trimer": build_trimer}
    names = {"ssh": "ab", "rm": "abu", "trimer": "abcuvw"}[schedule.kind]
    times = np.concatenate(([0.0], np.linspace(0.0, schedule.total_time, 53)[1:-1] + 0.137, [schedule.total_time]))
    diag, off = schedule_arrays(schedule, L, times)
    assert diag.shape == (times.size, SITES_PER_CELL[schedule.kind] * L)
    for k, t in enumerate(times):
        h = ChainHamiltonian(*schedule_arrays(schedule, L, t))
        scalars = builders[schedule.kind](L, *(schedule.params[x].value(float(t), schedule.period) for x in names))
        for ref in (h, scalars):
            assert diag[k].tobytes() == ref.diagonal.tobytes()
            assert off[k].tobytes() == ref.offdiagonal.tobytes()


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
