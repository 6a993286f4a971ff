"""The Magnus (CFM4) production integrator against independent references:
the dense exact propagator, the conftest CFM4 oracle, criterion 13's RK4
Bell runs and the Landau-Zener closed form; its step-halving ladder against
the ladder started at one step per record segment; k initial states
propagated at once against their single runs; and the time-reversal mirror
against the direct step loop."""

import json
from functools import lru_cache, partial

import numpy as np
import pytest

import topochain.dynamics as dynamics
from topochain import (
    IntegratorConfig,
    InvalidParameterError,
    apply_disorder,
    basis_state,
    bell_transfer_schedule,
    evolve,
    pump,
    pump_schedule,
    quench,
    transfer_fidelity,
)
from topochain import _kernels as K
from topochain.config import parse_config
from topochain.effective import from_functions, line
from topochain.models import FunctionSpec, Schedule, const, schedule_arrays
from topochain.presets import PRESETS

from conftest import dense, exact_propagator_state, make_chain, plain_pump_cfm4
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
    chain = apply_disorder(*make_chain("ssh", 7, a=a, b=1.0), 0.01, seed)
    traj = quench(*chain, 1, 100.0, MAGNUS, 401)
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
    path = from_functions(FunctionSpec("linear", offset=-A, amplitude=2.0 * A), const(g), 2.0 * A / v)
    traj = pump(path, 1, _ground(-A, g), MAGNUS)
    excited = 1.0 - abs(np.vdot(_ground(A, g), traj.final_state)) ** 2
    assert abs(excited - np.exp(-np.pi * ratio)) <= 3e-5


def test_uniform_drive_is_a_phase():
    # H(t) = H0 + f(t) I: the exact state is exp(-i F(t)) exp(-i H0 t) psi0
    # with F the integral of f, so the steps' Gauss nodes meet a closed form
    h0 = make_chain("ssh", 5, a=0.4, b=1.0)

    def provider(times):
        times = np.asarray(times)
        return h0[0] + 0.7 * np.cos(times)[..., np.newaxis], np.broadcast_to(h0[1], times.shape + (9,))

    traj = evolve(provider, basis_state(10, 2), 0.0, 30.0, MAGNUS, 31)
    exact = np.array([np.exp(-0.7j * np.sin(t)) * exact_propagator_state(h0, basis_state(10, 2), t)
                      for t in traj.times])
    assert np.abs(traj.states - exact).max() <= 1e-8


def test_constant_chunks_take_one_exponential(monkeypatch):
    # a constant H costs one eigensolve per integration pass, and gives the
    # same states as the steps it stands for
    h0 = make_chain("ssh", 3, a=0.3, b=1.0)
    calls = []
    eigh = K.tridiag_eigh

    def counting(d, e):
        calls.append(len(d))
        return eigh(d, e)

    monkeypatch.setattr(K, "tridiag_eigh", counting)
    provider = lambda t: (np.broadcast_to(h0[0], np.shape(t) + (6,)), np.broadcast_to(h0[1], np.shape(t) + (5,)))
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
    # (provider, psi0, t1, n_records, first-pass steps)
    path, n_records = _lz1_path_a()
    chain = make_chain("ssh", 7, a=0.1, b=1.0)
    return {
        "bell": (partial(schedule_arrays, BELL, 7), _bell_state(21, 1.0, left=True), 1000.0, 201, 3200),
        "plain-pump": (partial(schedule_arrays, pump_schedule(100.0), 7), basis_state(14, 1), 100.0, 201, 200),
        "lz1-a": (partial(schedule_arrays, path, 1), np.array([1.0, 0.0], dtype=np.complex128),
                  path.total_time, n_records, 200),
        "quench": (lambda t: dynamics.static_arrays(*chain, t), basis_state(14, 1), 100.0, 401, 400),
    }


@pytest.mark.parametrize("case", ["bell", "plain-pump", "lz1-a", "quench"])
def test_first_pass_is_the_first_rung_inside_the_convergence_radius(monkeypatch, case):
    # R is the largest absolute row sum of the dense H at the record times;
    # the first pass is the base rung (one step per segment) doubled until
    # every step has dt R < pi
    provider, psi0, t1, n_records, expected = _start_cases()[case]
    first = []

    def record(provider, psi0, times, steps, stats=None):
        first.append(np.array(steps))
        raise _FirstPass

    monkeypatch.setattr(dynamics, "cfm4_integrate", record)
    with pytest.raises(_FirstPass):
        evolve(provider, psi0, 0.0, t1, MAGNUS, n_records)
    times = np.linspace(0.0, t1, n_records)
    radius = max(np.abs(dense(provider(t))).sum(axis=1).max() for t in times)
    steps = first[0]
    assert np.all(steps == steps[0]) and steps[0] == 2.0 ** round(np.log2(steps[0]))
    assert (np.diff(times) / steps).max() * radius < np.pi
    if steps[0] > 1:
        assert (np.diff(times) / (steps / 2)).max() * radius >= np.pi
    assert steps.sum() == expected


def test_lz1_path_a_keeps_its_step_count():
    # path A starts inside the radius: its ladder and its bits are as before
    path, n_records = _lz1_path_a()
    traj = pump(path, 1, np.array([1.0, 0.0], dtype=np.complex128), MAGNUS, n_records)
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


# the time-reversal mirror: runs with R H(t) R = H(t0 + t1 - t) integrate
# their first half and read the second off its propagators.  The bounds are
# set from measurement against the direct loop at the same steps: the
# states differ by up to 1.5e-13 on the Bell pair at its accepted 6,400
# steps (the largest of these cases), and its <sigma^z> columns, which the
# figure CSVs hold, by up to 4.1e-13
MIRROR_BOUND = 5e-13
MIRROR_SZ_BOUND = 1e-12


def _direct(provider, psi0, times, steps):
    # the direct loop, which cfm4_integrate runs where the mirror does not
    # apply, on one state (n,) or an (n, k) array
    psi = np.asarray(psi0, dtype=np.complex128)
    states = K._cfm4_direct(provider, psi.reshape(psi.shape[0], -1), times, steps)
    return states.reshape(times.shape + psi.shape)


def _segment_steps(record, times):
    return np.full(times.size - 1, record["steps"] / (times.size - 1))


def test_bell_pair_mirrors_and_keeps_its_ladder():
    # both signs as one (21, 2) state: the accepted 6,400 steps and their
    # error estimate are those of the direct loop's ladder
    pair = _bell_magnus((1.0, -1.0))
    provider = partial(schedule_arrays, BELL, 7)
    times = pair[0].times
    columns = np.stack([_bell_state(21, sign, left=True) for sign in (1.0, -1.0)], axis=1)
    steps = _segment_steps(pair[0].integration, times)
    fine = _direct(provider, columns, times, steps)
    coarse = _direct(provider, columns, times, steps / 2)
    errors = np.abs(fine - coarse).max(axis=(0, 1)) / 15.0
    for c, traj in enumerate(pair):
        record = traj.integration
        assert record["mirrored"] is True
        assert (record["steps"], record["steps_total"]) == (6400, 9600)
        assert abs(record["error_estimate"] - errors[c]) <= 1e-6 * errors[c]
        assert np.abs(traj.states - fine[..., c]).max() <= MIRROR_BOUND
        assert np.abs(traj.sz - dynamics.sigma_z(fine[..., c])).max() <= MIRROR_SZ_BOUND


def test_three_bell_cycles_mirror():
    # R H(t) R = H(3T - t) holds over an odd number of cycles: u and w trade
    # places once per cycle.  Eight steps per record segment are enough to
    # compare the two paths' rounding
    schedule = bell_transfer_schedule(1000.0, cycles=3)
    provider = partial(schedule_arrays, schedule, 7)
    times = np.linspace(0.0, schedule.total_time, 601)
    steps = np.full(600, 8.0)
    columns = np.stack([_bell_state(21, sign, left=True) for sign in (1.0, -1.0)], axis=1)
    assert K.mirror_applies(provider, times, steps, 21)
    mirrored = K.cfm4_integrate(provider, columns, times, steps)
    assert np.abs(mirrored - _direct(provider, columns, times, steps)).max() <= MIRROR_BOUND


def test_plain_pump_and_lz1_paths_mirror():
    path_a, n_records = _lz1_path_a()
    path_b = line(1.0, path_a.period)
    runs = [(partial(schedule_arrays, pump_schedule(100.0), 7), basis_state(14, 1),
             pump(pump_schedule(100.0), 7, basis_state(14, 1), MAGNUS, 201))]
    for path in (path_a, path_b):
        psi0 = np.array([1.0, 0.0], dtype=np.complex128)
        runs.append((partial(schedule_arrays, path, 1), psi0, pump(path, 1, psi0, MAGNUS, n_records)))
    for provider, psi0, traj in runs:
        assert traj.integration["mirrored"] is True
        direct = _direct(provider, psi0, traj.times, _segment_steps(traj.integration, traj.times))
        assert np.abs(traj.states - direct).max() <= MIRROR_BOUND
        assert np.abs(traj.sz - dynamics.sigma_z(direct)).max() <= MIRROR_SZ_BOUND


def _record_zero_bond():
    # the plain pump with b = 1 + 0.1 sin(20 pi t/T): b(T - t) != b(t), but
    # the difference vanishes at each of 21 records t = r T/20
    params = dict(pump_schedule(100.0).params, b=FunctionSpec("sin", offset=1.0, amplitude=0.1,
                                                                frequency_multiple=10.0))
    return Schedule("rm", 100.0, params)


def _direct_cases():
    # (provider, psi0, record times, steps) of runs that must not mirror
    bell2 = bell_transfer_schedule(1000.0, cycles=2)
    quench_chain = apply_disorder(*make_chain("ssh", 7, a=0.1, b=1.0), 0.01, 11)
    return {
        # constant H, and R H R != H
        "disordered-quench": (lambda t: dynamics.static_arrays(*quench_chain, t), basis_state(14, 1),
                              np.linspace(0.0, 100.0, 401), np.full(400, 2.0)),
        # constant H with R H R = H: one eigensolve either way
        "clean-quench": (lambda t: dynamics.static_arrays(*make_chain("ssh", 7, a=0.1, b=1.0), t), basis_state(14, 1),
                         np.linspace(0.0, 100.0, 401), np.full(400, 2.0)),
        # u(2T - t) = u(t), which is not w(t)
        "bell-2-cycles": (partial(schedule_arrays, bell2, 7), _bell_state(21, 1.0, left=True),
                          np.linspace(0.0, 2000.0, 401), np.full(400, 2.0)),
        "even-records": (partial(schedule_arrays, pump_schedule(100.0), 7), basis_state(14, 1),
                         np.linspace(0.0, 100.0, 200), np.full(199, 2.0)),
        # steps that do not read the same backwards
        "uneven-steps": (partial(schedule_arrays, pump_schedule(100.0), 7), basis_state(14, 1),
                         np.linspace(0.0, 100.0, 11), np.array([3.0] + [2.0] * 9)),
        # 152 sites, above MIRROR_MAX_SITES
        "above-size": (partial(schedule_arrays, pump_schedule(100.0), 76), basis_state(152, 1),
                       np.linspace(0.0, 100.0, 5), np.full(4, 2.0)),
        "asymmetric-at-nodes": (partial(schedule_arrays, _record_zero_bond(), 7), basis_state(14, 1),
                                np.linspace(0.0, 100.0, 21), np.full(20, 4.0)),
    }


@pytest.mark.parametrize("case", ["disordered-quench", "clean-quench", "bell-2-cycles", "even-records", "uneven-steps",
                                  "above-size", "asymmetric-at-nodes"])
def test_runs_without_the_symmetry_stay_on_the_direct_loop(case):
    provider, psi0, times, steps = _direct_cases()[case]
    assert not K.mirror_applies(provider, times, steps, psi0.shape[0])
    assert np.array_equal(K.cfm4_integrate(provider, psi0, times, steps), _direct(provider, psi0, times, steps))


def test_disordered_quench_records_no_mirror():
    chain = apply_disorder(*make_chain("ssh", 7, a=0.1, b=1.0), 0.01, 11)
    assert quench(*chain, 1, 100.0, MAGNUS, 401).integration["mirrored"] is False


def test_the_check_reads_the_gauss_nodes():
    # at the record times the bond's asymmetry 0.2 |sin(20 pi t/T)| is
    # rounding; at the Gauss nodes it is not, and the run stays direct
    # (test above)
    provider, _, times, _ = _direct_cases()["asymmetric-at-nodes"]
    diag, off = provider(times)
    mirror_diag, mirror_off = provider(times[-1] - times)
    assert np.abs(diag - mirror_diag[:, ::-1]).max() <= K.MIRROR_TOL
    assert np.abs(off - mirror_off[:, ::-1]).max() <= K.MIRROR_TOL
    # the same run without the bond term mirrors
    symmetric = partial(schedule_arrays, pump_schedule(100.0), 7)
    assert K.mirror_applies(symmetric, times, np.full(20, 4.0), 14)


def test_size_crossover_is_the_bound():
    times, steps = np.linspace(0.0, 100.0, 5), np.full(4, 2.0)
    at = K.MIRROR_MAX_SITES // 2
    assert K.mirror_applies(partial(schedule_arrays, pump_schedule(100.0), at), times, steps, 2 * at)
    assert not K.mirror_applies(partial(schedule_arrays, pump_schedule(100.0), at + 1), times, steps, 2 * at + 2)


def test_propagators_over_the_byte_cap_stay_direct(monkeypatch):
    # 11 records store 6 propagators of 14 x 14: 18,816 B
    provider = partial(schedule_arrays, pump_schedule(100.0), 7)
    psi0, times, steps = basis_state(14, 1), np.linspace(0.0, 100.0, 11), np.full(10, 8.0)
    monkeypatch.setattr(K, "MIRROR_MAX_BYTES", 6 * 14 * 14 * 16)
    assert K.mirror_applies(provider, times, steps, 14)
    monkeypatch.setattr(K, "MIRROR_MAX_BYTES", 6 * 14 * 14 * 16 - 1)
    assert not K.mirror_applies(provider, times, steps, 14)
    assert np.array_equal(K.cfm4_integrate(provider, psi0, times, steps), _direct(provider, psi0, times, steps))


@pytest.mark.parametrize("scale, mirrors", [(0.5, True), (4.0, False)])
def test_mirror_tolerance(scale, mirrors):
    # a constant on-site term on the first site breaks R H(t) R = H(T - t)
    # by its size; the plain pump's largest |entry| is 2 (a at T/2)
    pump_arrays = partial(schedule_arrays, pump_schedule(100.0), 7)

    def provider(times):
        diag, off = pump_arrays(times)
        diag = diag.copy()
        diag[..., 0] += scale * 2.0 * K.MIRROR_TOL
        return diag, off

    times = np.linspace(0.0, 100.0, 21)
    assert K.mirror_applies(provider, times, np.full(20, 2.0), 14) is mirrors
