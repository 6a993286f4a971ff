"""The Magnus (CFM4) production integrator against independent references:
the dense exact propagator, the conftest CFM4 oracle, criterion 13's RK4
Bell runs and the Landau-Zener closed form; its step-halving ladder against
the ladder started at one step per record segment; and k initial states
propagated at once against their single runs."""

import json
from functools import lru_cache, partial

import numpy as np
import pytest

import topochain.dynamics as dynamics
from topochain import (
    DisorderSpec,
    IntegratorConfig,
    InvalidParameterError,
    apply_disorder,
    basis_state,
    bell_transfer_schedule,
    build_ssh,
    evolve,
    lz_evolve,
    pump,
    pump_schedule,
    quench,
    transfer_fidelity,
)
from topochain import _kernels as K
from topochain.config import parse_config
from topochain.effective import LZPath
from topochain.models import ChainHamiltonian, FunctionSpec, const, schedule_arrays
from topochain.presets import PRESETS

from conftest import exact_propagator_state, plain_pump_cfm4
from test_acceptance import _bell_run, _bell_state

MAGNUS = IntegratorConfig()
PLAIN_PUMP_FIDELITY = 0.52907785017  # T = 100, 14 sites, converged (CHANGES.md, d01f70d)

BELL = bell_transfer_schedule(1000.0)


@lru_cache(maxsize=None)
def _bell_magnus(signs):
    # one propagation of the Bell states of ``signs``: a 1-D state for a
    # float, the columns of an (n, k) array for a tuple
    if isinstance(signs, float):
        return pump(BELL, 7, _bell_state(21, signs, left=True), MAGNUS, 201)
    columns = np.stack([_bell_state(21, sign, left=True) for sign in signs], axis=1)
    return pump(BELL, 7, columns, MAGNUS, 201)


def test_plain_pump_lands_on_the_converged_fidelity():
    traj = pump(pump_schedule(100.0), 7, basis_state(14, 1), MAGNUS, 201)
    assert abs(transfer_fidelity(traj.final_state, basis_state(14, 14)) - PLAIN_PUMP_FIDELITY) <= 1e-9
    oracle = plain_pump_cfm4(100.0, basis_state(14, 1), 4000)
    assert np.abs(traj.final_state - oracle).max() <= 1e-8
    record = traj.integration
    assert record["error_estimate"] <= MAGNUS.rel_tol and record["norm_drift"] <= 1e-12


@pytest.mark.parametrize("a, seed", [(0.1, 11), (1.0, 12)])
def test_static_disordered_quench_matches_exact_propagator(a, seed):
    # H is constant, so every step is exact to rounding (BDF at its default
    # tolerances misses these records by up to 4.9e-6)
    targets = frozenset(("diagonal", "offdiagonal"))
    chain = apply_disorder(build_ssh(7, a, 1.0), DisorderSpec(0.01, seed, targets))
    traj = quench(chain, 1, 100.0, MAGNUS, 401)
    exact = np.array([exact_propagator_state(chain, basis_state(14, 1), t) for t in traj.times])
    assert np.abs(traj.states - exact).max() <= 1e-10
    assert traj.integration["norm_drift"] <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_bell_pump_matches_criterion_13_rk4(sign):
    # the first cycle's 201 records of criterion 13's RK4 run (dt 0.002),
    # each up to the global phase that RK4 picks up in the lab frame (4.5e-8
    # rad for the plus sign by the end of the cycle)
    traj = _bell_magnus(sign)
    rk4 = _bell_run(sign, "rk4").states[:201]
    overlaps = np.einsum("ij,ij->i", traj.states.conj(), rk4)
    aligned = traj.states * (overlaps / np.abs(overlaps))[:, np.newaxis]
    assert np.abs(aligned - rk4).max() <= 1e-8
    assert traj.integration["norm_drift"] <= 1e-12
    assert traj.integration["steps_total"] == traj.integration["steps"] + traj.integration["steps"] // 2


def _ground(u, g):
    return np.linalg.eigh([[u, g], [g, -u]])[1][:, 0].astype(np.complex128)


@pytest.mark.parametrize("ratio", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
def test_lz_custom_path_matches_landau_zener(ratio):
    # u = v t - A, g constant, over t in [0, 2A/v]: the excited-state
    # population is exp(-pi g^2 / v) as A -> infinity.  Starting and ending
    # in the adiabatic states of the end points keeps the finite-A
    # correction small: at A = 20 it measured at most 2.0e-5 over these
    # ratios (projected on the diabatic states instead, 1e-2 at A = 40)
    v, A = 1.0, 20.0
    g = np.sqrt(ratio * v)
    path = LZPath.from_functions(FunctionSpec("linear", offset=-A, amplitude=2.0 * A), const(g), 2.0 * A / v)
    traj = lz_evolve(path, _ground(-A, g), MAGNUS)
    excited = 1.0 - abs(np.vdot(_ground(A, g), traj.final_state)) ** 2
    assert abs(excited - np.exp(-np.pi * ratio)) <= 3e-5


def test_uniform_drive_is_a_phase():
    # H(t) = H0 + f(t) I: the exact state is exp(-i F(t)) exp(-i H0 t) psi0
    # with F the integral of f, so the steps' Gauss nodes meet a closed form
    h0 = build_ssh(5, 0.4, 1.0)

    def provider(times):
        times = np.asarray(times)
        return h0.diagonal + 0.7 * np.cos(times)[..., np.newaxis], np.broadcast_to(h0.offdiagonal,
                                                                                  times.shape + (9,))

    traj = evolve(provider, basis_state(10, 2), 0.0, 30.0, MAGNUS, 31)
    exact = np.array([np.exp(-0.7j * np.sin(t)) * exact_propagator_state(h0, basis_state(10, 2), t)
                      for t in traj.times])
    assert np.abs(traj.states - exact).max() <= 1e-8


def test_constant_chunks_take_one_exponential(monkeypatch):
    # a constant H costs one eigensolve per integration pass, and gives the
    # same states as the steps it stands for
    h0 = build_ssh(3, 0.3, 1.0)
    calls = []
    eigh = K.tridiag_eigh

    def counting(d, e):
        calls.append(len(d))
        return eigh(d, e)

    monkeypatch.setattr(K, "tridiag_eigh", counting)
    provider = lambda t: (np.broadcast_to(h0.diagonal, np.shape(t) + (6,)),
                          np.broadcast_to(h0.offdiagonal, np.shape(t) + (5,)))
    times = np.linspace(0.0, 10.0, 6)
    states = K.cfm4_integrate(provider, basis_state(6, 1), times, np.full(5, 7))
    assert calls == [6]
    exact = np.array([exact_propagator_state(h0, basis_state(6, 1), t) for t in times])
    assert np.abs(states - exact).max() <= 1e-13


def _ladder_from_one_step(provider, psi0, times, rel_tol):
    # the halving ladder started at one step per record segment, each pass
    # doubling the last, as the integrator ran before it started inside the
    # convergence radius
    steps, total, states = np.ones(times.size - 1), 0.0, None
    while True:
        total += steps.sum()
        coarse, states = states, K.cfm4_integrate(provider, psi0, times, steps)
        if coarse is not None and not np.abs(states - coarse).max() / 15.0 > rel_tol:
            return states, int(steps.sum()), int(total)
        steps = 2.0 * steps


def test_bell_pump_skips_the_rungs_outside_the_convergence_radius():
    # the ladder from one step per segment accepts 6,400 steps after 12,600;
    # starting at 3,200 returns the same bits after 9,600
    traj = _bell_magnus(1.0)
    psi0 = _bell_state(21, 1.0, left=True)
    states, steps, total = _ladder_from_one_step(partial(schedule_arrays, BELL, 7), psi0, traj.times, MAGNUS.rel_tol)
    assert (steps, total) == (6400, 12600)
    assert np.array_equal(traj.states, states)
    assert traj.integration["steps"] == 6400 and traj.integration["steps_total"] == 9600


class _FirstPass(Exception):
    pass


def _lz1_path_a():
    cfg = parse_config(json.dumps(dict(PRESETS["lz1"])["lz1_path_a"]))
    return cfg.options["path"], cfg.options["n_records"]


def _start_cases():
    # (provider, psi0, t1, n_records, max_step, first-pass steps)
    path, n_records = _lz1_path_a()
    chain = build_ssh(7, 0.1, 1.0)
    return {
        "bell": (partial(schedule_arrays, BELL, 7), _bell_state(21, 1.0, left=True), 1000.0, 201, None, 3200),
        "bell-max_step": (partial(schedule_arrays, BELL, 7), _bell_state(21, 1.0, left=True), 1000.0, 201, 2.0,
                          2400),
        "plain-pump": (partial(schedule_arrays, pump_schedule(100.0), 7), basis_state(14, 1), 100.0, 201, None, 200),
        "lz1-a": (partial(schedule_arrays, path.schedule, 1), np.array([1.0, 0.0], dtype=np.complex128),
                  path.schedule.total_time, n_records, None, 200),
        "quench": (lambda t: dynamics.static_arrays(chain, t), basis_state(14, 1), 100.0, 401, None, 400),
    }


@pytest.mark.parametrize("case", ["bell", "bell-max_step", "plain-pump", "lz1-a", "quench"])
def test_first_pass_is_the_first_rung_inside_the_convergence_radius(monkeypatch, case):
    # R is the largest absolute row sum of the dense H at the record times;
    # the first pass is the base rung (one step per segment, or
    # ceil(segment / max_step)) doubled until every step has dt R < pi
    provider, psi0, t1, n_records, max_step, expected = _start_cases()[case]
    first = []

    def record(provider, psi0, times, steps):
        first.append(np.array(steps))
        raise _FirstPass

    monkeypatch.setattr(dynamics, "cfm4_integrate", record)
    with pytest.raises(_FirstPass):
        evolve(provider, psi0, 0.0, t1, IntegratorConfig(max_step=max_step), n_records)
    times = np.linspace(0.0, t1, n_records)
    radius = max(np.abs(ChainHamiltonian(*provider(t)).to_dense()).sum(axis=1).max() for t in times)
    base = np.ones(n_records - 1) if max_step is None else np.ceil(np.diff(times) / max_step)
    steps = first[0]
    rungs = steps / base
    assert np.all(rungs == rungs[0]) and rungs[0] == 2.0 ** round(np.log2(rungs[0]))
    assert (np.diff(times) / steps).max() * radius < np.pi
    if rungs[0] > 1:
        assert (np.diff(times) / (steps / 2)).max() * radius >= np.pi
    assert steps.sum() == expected


def test_lz1_path_a_keeps_its_step_count():
    # path A starts inside the radius: its ladder and its bits are as before
    path, n_records = _lz1_path_a()
    traj = lz_evolve(path, np.array([1.0, 0.0], dtype=np.complex128), MAGNUS, n_records)
    assert traj.integration["steps"] == 3200 and traj.integration["steps_total"] == 6200


def test_bell_signs_in_one_propagation_match_their_single_runs():
    # the columns share each step's eigensolves; matrix products in place of
    # matrix-vector ones move the states by rounding only
    pair = _bell_magnus((1.0, -1.0))
    assert len(pair) == 2
    for traj, sign in zip(pair, (1.0, -1.0)):
        single = _bell_magnus(sign)
        assert traj.states.shape == single.states.shape == (201, 21)
        assert np.abs(traj.states - single.states).max() <= 1e-13
        record, alone = traj.integration, single.integration
        assert (record["method"], record["steps"], record["steps_total"]) == ("magnus", 6400, 9600)
        assert (alone["steps"], alone["steps_total"]) == (6400, 9600)
        assert abs(record["error_estimate"] - alone["error_estimate"]) <= 1e-6 * alone["error_estimate"]
        assert record["norm_drift"] <= 1e-12


@pytest.mark.parametrize("method", ["magnus", "bdf", "rk4"])
def test_one_column_gives_the_bits_of_a_single_state(method):
    cfg = IntegratorConfig(method=method)
    schedule = pump_schedule(100.0)
    single = pump(schedule, 7, basis_state(14, 1), cfg)
    (column,) = pump(schedule, 7, basis_state(14, 1)[:, np.newaxis], cfg)
    assert np.array_equal(column.states, single.states) and np.array_equal(column.sz, single.sz)
    assert column.integration == single.integration


@pytest.mark.parametrize("method", ["bdf", "rk4"])
def test_bdf_and_rk4_columns_are_their_single_runs(method, rng):
    # BDF and RK4 run the columns one after the other, so each is bit-equal
    # to its own run, with its own counts
    cfg = IntegratorConfig(method=method)
    schedule = pump_schedule(100.0)
    other = rng.normal(size=14) + 1j * rng.normal(size=14)
    columns = np.stack([basis_state(14, 1), other / np.linalg.norm(other)], axis=1)
    runs = pump(schedule, 7, columns, cfg)
    for traj, psi0 in zip(runs, columns.T):
        single = pump(schedule, 7, psi0.copy(), cfg)
        assert np.array_equal(traj.states, single.states)
        assert traj.integration == single.integration


def test_states_of_other_shapes_are_rejected():
    with pytest.raises(InvalidParameterError, match=r"shape \(n,\) or \(n, k\)"):
        pump(pump_schedule(100.0), 7, np.ones((14, 1, 1)) / np.sqrt(14.0))
    with pytest.raises(InvalidParameterError, match="state norm"):
        pump(pump_schedule(100.0), 7, np.stack([basis_state(14, 1), 2.0 * basis_state(14, 2)], axis=1))
