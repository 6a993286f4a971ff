"""Integrator contracts, quench and pump behavior."""

from functools import partial

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import topochain.dynamics as dynamics
from topochain import (
    ChainHamiltonian,
    IntegratorConfig,
    InvalidParameterError,
    LZPath,
    basis_state,
    bell_transfer_schedule,
    build_ssh,
    evolve,
    optimized_schedule,
    pump,
    pump_schedule,
    quench,
    sigma_z,
    transfer_fidelity,
)
from topochain._kernels import apply_minus_ih, hermitian_band
from topochain.dynamics import static_arrays
from topochain.models import schedule_arrays

from conftest import exact_propagator_state

BDF_TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, method="bdf")
BDF = IntegratorConfig(method="bdf")
RK4 = IntegratorConfig(method="rk4", max_step=0.005)


def test_zero_hamiltonian_is_stationary():
    h = ChainHamiltonian(np.zeros(4), np.zeros(3))
    traj = evolve(lambda t: static_arrays(h, t), basis_state(4, 2), 0.0, 5.0, BDF_TIGHT, 6)
    assert np.abs(traj.states - traj.states[0]).max() < 1e-9


@pytest.mark.parametrize("method", ["bdf", "rk4"])
def test_two_site_rabi(method):
    cfg = BDF_TIGHT if method == "bdf" else RK4
    h = ChainHamiltonian(np.zeros(2), np.array([0.4]))
    traj = evolve(lambda t: static_arrays(h, t), basis_state(2, 1), 0.0, 15.0, cfg, 31)
    expected = np.sin(0.4 * traj.times) ** 2
    assert np.abs(np.abs(traj.states[:, 1]) ** 2 - expected).max() < 1e-8


def test_static_chain_matches_exact_propagator():
    h = build_ssh(7, 0.4, 1.0, 0.3)
    psi0 = basis_state(14, 1)
    traj = evolve(lambda t: static_arrays(h, t), psi0, 0.0, 100.0, BDF_TIGHT, 11)
    exact = exact_propagator_state(h, psi0, 100.0)
    assert 1.0 - abs(np.vdot(exact, traj.final_state)) <= 1e-6


def test_time_reversal_returns_start(rng):
    h = build_ssh(5, 0.3, 1.0)
    psi0 = basis_state(10, 3)
    fwd = evolve(lambda t: static_arrays(h, t), psi0, 0.0, 25.0, BDF_TIGHT, 3)
    reversed_h = ChainHamiltonian(-h.diagonal, -h.offdiagonal)
    back = evolve(lambda t: static_arrays(reversed_h, t), fwd.final_state, 0.0, 25.0, BDF_TIGHT, 3)
    assert abs(np.vdot(psi0, back.final_state)) >= 1.0 - 1e-8


def test_excitation_number_conserved():
    traj = pump(pump_schedule(30.0), 5, basis_state(10, 1), BDF_TIGHT, 61)
    totals = ((1.0 + traj.sz) / 2.0).sum(axis=1)
    assert np.abs(totals - 1.0).max() <= 1e-8
    assert traj.sz.min() >= -1.0 - 1e-12 and traj.sz.max() <= 1.0 + 1e-12


def test_evolve_rejects_bad_inputs():
    h = build_ssh(2, 0.1, 1.0)
    provider = lambda t: static_arrays(h, t)
    with pytest.raises(InvalidParameterError):
        evolve(provider, basis_state(4, 1) * 2.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        evolve(provider, basis_state(4, 1), 1.0, 1.0)


def test_quench_decoupled_first_site_stays_up():
    h = build_ssh(3, 0.0, 1.0)
    traj = quench(h, 1, 50.0, BDF_TIGHT, 26)
    assert np.abs(traj.sz[:, 0] - 1.0).max() < 1e-9


def test_quench_uniform_chain_spreads_and_reflects():
    h = build_ssh(7, 1.0, 1.0)
    traj = quench(h, 1, 30.0, IntegratorConfig(), 301)
    assert traj.sz[:, 0].min() < 0.0
    assert traj.sz[:, 13].max() > -0.5


def test_rk4_one_site_quench_is_a_phase():
    # H = [omega]: psi(t) = exp(-i omega t), and the kernel has no bond
    omega = 0.7
    traj = quench(ChainHamiltonian(np.array([omega]), np.zeros(0)), 1, 20.0, RK4, 41)
    assert np.abs(traj.states[:, 0] - np.exp(-1j * omega * traj.times)).max() < 1e-10


def test_quench_rejects_site_out_of_range():
    with pytest.raises(InvalidParameterError):
        quench(build_ssh(2, 0.1, 1.0), 5, 1.0)


def test_sigma_z_values():
    assert np.array_equal(sigma_z(basis_state(4, 1)), [1.0, -1.0, -1.0, -1.0])
    assert np.allclose(sigma_z(np.array([1, 1]) / np.sqrt(2)), [0.0, 0.0])
    assert np.allclose(sigma_z(np.array([1, 1, 0]) / np.sqrt(2)), [0.0, 0.0, -1.0])


def test_transfer_fidelity_limits():
    psi = np.array([0.6, 0.8j], dtype=complex)
    assert transfer_fidelity(psi, psi) == pytest.approx(1.0)
    assert transfer_fidelity(basis_state(3, 1), basis_state(3, 2)) == 0.0


def test_pump_transfers_to_far_end():
    traj = pump(pump_schedule(100.0), 7, basis_state(14, 1), IntegratorConfig(), 201)
    assert int(np.argmax(traj.sz[-1])) == 13
    fid = transfer_fidelity(traj.final_state, basis_state(14, 14))
    assert fid > 0.5  # T=100 is marginally adiabatic at this size


def test_pump_adiabatic_convergence():
    fid = {}
    for period in (100.0, 200.0):
        traj = pump(pump_schedule(period), 7, basis_state(14, 1), IntegratorConfig())
        fid[period] = transfer_fidelity(traj.final_state, basis_state(14, 14))
    assert fid[200.0] >= fid[100.0] - 1e-3


def test_optimized_pump_round_trip():
    traj = pump(optimized_schedule(100.0, cycles=2), 7, basis_state(14, 1), IntegratorConfig())
    assert transfer_fidelity(traj.final_state, basis_state(14, 1)) >= 0.99


def test_integrators_agree_on_pump():
    psi0 = basis_state(14, 1)
    a = pump(pump_schedule(40.0), 7, psi0, BDF_TIGHT, 41)
    b = pump(pump_schedule(40.0), 7, psi0, IntegratorConfig(method="rk4", max_step=0.002), 41)
    assert 1.0 - abs(np.vdot(a.final_state, b.final_state)) <= 1e-6


def test_tolerance_tightening_is_converged():
    psi0 = basis_state(14, 1)
    base = pump(pump_schedule(100.0), 7, psi0, IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, method="bdf"), 51)
    tight = pump(pump_schedule(100.0), 7, psi0, IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, method="bdf"), 51)
    assert 1.0 - abs(np.vdot(base.final_state, tight.final_state)) <= 1e-6


def test_generic_rk4_provider_path():
    # a provider written by hand, not built from a schedule or a chain
    provider = lambda t: (np.zeros((t.size, 2)), np.full((t.size, 1), 0.4))
    traj = evolve(provider, basis_state(2, 1), 0.0, 10.0, RK4, 21)
    assert np.abs(np.abs(traj.states[:, 1]) ** 2 - np.sin(0.4 * traj.times) ** 2).max() < 1e-9


def test_norm_drift_raises_integration_error():
    from topochain.dynamics import _renormalize
    from topochain.errors import IntegrationError

    good = np.ones((3, 2), dtype=complex) / np.sqrt(2.0)
    good[1] *= 1.0 + 5e-7  # within the per-segment budget
    renorm = _renormalize(good.copy())
    assert np.abs(np.linalg.norm(renorm, axis=1) - 1.0).max() < 1e-15
    bad = good.copy()
    bad[2] *= 1.0 + 5e-6  # one segment drifts past 1e-6
    with pytest.raises(IntegrationError):
        _renormalize(bad)


def test_records_shape_and_times():
    traj = pump(pump_schedule(10.0, cycles=2), 3, basis_state(6, 1), RK4)
    assert traj.times.size == 401  # 200 records per cycle plus t = 0
    assert traj.times[0] == 0.0 and traj.times[-1] == 20.0
    assert traj.states.shape == (401, 6)
    assert np.allclose(traj.state_at(10.0), traj.states[200])


@pytest.mark.parametrize(
    "provider, psi0, t1",
    [
        (partial(schedule_arrays, pump_schedule(40.0), 7), basis_state(14, 1), 40.0),
        (LZPath.arc(1.0, 50.0).hamiltonian_arrays, basis_state(2, 1), 50.0),
    ],
    ids=["plain-pump", "lz-arc"],
)
def test_bdf_matches_stock_scipy_bdf(monkeypatch, provider, psi0, t1):
    times = np.linspace(0.0, t1, 41)
    cfg = BDF

    def rhs(t, y):
        return apply_minus_ih(hermitian_band(*provider(t)), y)

    def jac(t, y):
        return -1j * ChainHamiltonian(*provider(t)).to_dense()

    ref = solve_ivp(rhs, (0.0, t1), psi0, method="BDF", t_eval=times,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, jac=jac)

    seen = {}

    def recording_solve_ivp(*args, **kwargs):
        seen["sol"] = solve_ivp(*args, **kwargs)
        return seen["sol"]

    calls = []

    def counting_provider(t):
        calls.append(float(t))
        return provider(t)

    monkeypatch.setattr(dynamics, "solve_ivp", recording_solve_ivp)
    states = dynamics._evolve_bdf(counting_provider, psi0, times, cfg)
    assert np.array_equal(states, ref.y.T)
    sol = seen["sol"]
    assert (sol.nfev, sol.njev, sol.nlu) == (ref.nfev, ref.njev, ref.nlu)
    assert len(calls) == len(set(calls))  # H(t) once per distinct time


def _bdf_counts(traj):
    return tuple(traj.integration[key] for key in ("nfev", "njev", "nlu"))


@pytest.mark.parametrize("omega", [0.37, 5.0, -3.3])
def test_bdf_onsite_energy_is_only_a_phase(omega):
    # a uniform on-site omega is a constant shift: BDF integrates in its
    # frame, so the records are the omega = 0 records times exp(-i omega t),
    # at the same cost
    base = quench(build_ssh(7, 0.3, 1.0), 1, 100.0, BDF)
    shifted = quench(build_ssh(7, 0.3, 1.0, omega), 1, 100.0, BDF)
    assert shifted.integration["energy_shift"] == pytest.approx(omega, abs=1e-15)
    expected = np.exp(-1j * omega * base.times)[:, np.newaxis] * base.states
    assert np.abs(shifted.states - expected).max() <= 1e-12
    assert _bdf_counts(shifted) == _bdf_counts(base)


def test_bdf_with_onsite_energy_matches_exact_propagator():
    h = build_ssh(7, 0.3, 1.0, 5.0)
    traj = quench(h, 1, 100.0, BDF)
    exact = np.array([exact_propagator_state(h, basis_state(14, 1), t) for t in traj.times])
    assert np.abs(traj.states - exact).max() <= 2e-6


def test_bdf_frame_matches_stock_scipy_bdf_on_shifted_h(monkeypatch):
    provider = partial(schedule_arrays, bell_transfer_schedule(50.0), 7)
    psi0 = np.zeros(21, dtype=np.complex128)
    psi0[:2] = 1.0 / np.sqrt(2.0)
    times = np.linspace(0.0, 50.0, 41)
    cfg = BDF
    eps0 = np.mean(provider(0.0)[0])
    assert eps0 == pytest.approx(4.0 / 3.0, abs=1e-15)  # (u + v + w) / 3

    def rhs(t, y):
        diag, off = provider(t)
        return apply_minus_ih(hermitian_band(diag - eps0, off), y)

    def jac(t, y):
        diag, off = provider(t)
        return -1j * ChainHamiltonian(diag - eps0, off).to_dense()

    ref = solve_ivp(rhs, (0.0, 50.0), psi0, method="BDF", t_eval=times,
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, jac=jac)
    expected = ref.y.T * np.exp(-1j * eps0 * (times - times[0]))[:, np.newaxis]

    calls = []

    def counting_provider(t):
        calls.append(float(t))
        return provider(t)

    stats = {}
    states = dynamics._evolve_bdf(counting_provider, psi0, times, cfg, stats)
    assert np.array_equal(states, expected)
    assert (stats["nfev"], stats["njev"], stats["nlu"]) == (ref.nfev, ref.njev, ref.nlu)
    assert stats["energy_shift"] == eps0
    assert len(calls) == len(set(calls))  # H(t) once per distinct time

