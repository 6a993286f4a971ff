"""The Magnus (CFM4) production integrator against independent references:
the dense exact propagator, the conftest CFM4 oracle, criterion 13's RK4
Bell runs and the Landau-Zener closed form."""

import numpy as np
import pytest

from topochain import (
    DisorderSpec,
    IntegratorConfig,
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
from topochain.effective import LZPath
from topochain.models import FunctionSpec, const

from conftest import exact_propagator_state, plain_pump_cfm4
from test_acceptance import _bell_run, _bell_state

MAGNUS = IntegratorConfig()
PLAIN_PUMP_FIDELITY = 0.52907785017  # T = 100, 14 sites, converged (CHANGES.md, d01f70d)


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
    traj = pump(bell_transfer_schedule(1000.0), 7, _bell_state(21, sign, left=True), MAGNUS, 201)
    rk4 = _bell_run(sign, "rk4").states[:201]
    overlaps = np.einsum("ij,ij->i", traj.states.conj(), rk4)
    aligned = traj.states * (overlaps / np.abs(overlaps))[:, np.newaxis]
    assert np.abs(aligned - rk4).max() <= 1e-8
    assert traj.integration["norm_drift"] <= 1e-12
    assert traj.integration["steps_total"] == 2 * traj.integration["steps"] - 200


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

