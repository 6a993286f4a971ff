"""Time evolution in the single-excitation sector.

The production integrator is scipy's adaptive BDF (the stiff multistep
family) with its LU hooks bound straight to LAPACK ``getrf``/``getrs``;
fixed-step RK4 with substep control serves as the independent
cross-check.  Both read H(t) from one vectorized evaluator,
``times -> (diag[k, n], off[k, n-1])``, wrapped in a HamiltonianProvider:
BDF asks it for one time per call and evaluates each distinct time once,
RK4 for one record segment of times.  Both apply -iH through the same
kernel, one BLAS ``zhbmv`` on the Hermitian band storage of H
(``_kernels.hermitian_band``); RK4 also combines its stages with ``zaxpy``.
Schedules are evaluated analytically at whatever times are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import BDF, solve_ivp
from scipy.linalg import get_lapack_funcs

from ._kernels import apply_minus_ih, hermitian_band, rk4_integrate
from .errors import IntegrationError, InvalidParameterError
from .models import ChainHamiltonian, Schedule, schedule_arrays

NORM_DRIFT_LIMIT = 1e-6
DEFAULT_RK4_STEP = 0.01
RECORDS_PER_CYCLE = 200


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: Optional[float] = None  # BDF: unlimited; RK4: substep cap (default 0.01)
    method: str = "bdf"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParameterError("tolerances must be > 0")
        if self.max_step is not None and self.max_step <= 0:
            raise InvalidParameterError("max_step must be > 0")
        if self.method not in ("bdf", "rk4"):
            raise InvalidParameterError(f"unknown integrator method {self.method!r}")

    @property
    def rk4_step(self) -> float:
        return self.max_step if self.max_step is not None else DEFAULT_RK4_STEP


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states and per-site <sigma_j^z> along an evolution."""

    times: np.ndarray
    states: np.ndarray  # (n_records, n_sites) complex
    sz: np.ndarray      # (n_records, n_sites) real

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise InvalidParameterError(f"t={t} is not a recorded time")
        return self.states[i]


class HamiltonianProvider:
    """H(t) of a chain: ``provider(times)`` returns the diagonals (k, n) and
    bonds (k, n-1) at each of a 1-D array of k times, and (n,), (n-1,) for a
    single time (the BDF right-hand side asks for one time per call)."""

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, times) -> Tuple[np.ndarray, np.ndarray]:
        return self._fn(times)

    @classmethod
    def from_static(cls, h: ChainHamiltonian) -> "HamiltonianProvider":
        def fn(times):
            shape = np.shape(times)
            return (np.broadcast_to(h.diagonal, shape + h.diagonal.shape),
                    np.broadcast_to(h.offdiagonal, shape + h.offdiagonal.shape))

        return cls(fn)

    @classmethod
    def from_schedule(cls, schedule: Schedule, L: int) -> "HamiltonianProvider":
        return cls(lambda times: schedule_arrays(schedule, L, times))


def basis_state(n_sites: int, site: int) -> np.ndarray:
    """|e_site> with 1-based site index."""
    if not 1 <= site <= n_sites:
        raise InvalidParameterError(f"site {site} outside 1..{n_sites}")
    psi = np.zeros(n_sites, dtype=np.complex128)
    psi[site - 1] = 1.0
    return psi


def sigma_z(psi: np.ndarray) -> np.ndarray:
    """Per-site <sigma_j^z> = 2|psi_j|^2 - 1."""
    return 2.0 * np.abs(np.asarray(psi)) ** 2 - 1.0


def transfer_fidelity(psi: np.ndarray, target: np.ndarray) -> float:
    """|<target|psi>|^2."""
    return float(np.abs(np.vdot(target, psi)) ** 2)


def _check_normalized(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError(f"state norm {norm} is not 1 within 1e-9")
    return psi


def _renormalize(states: np.ndarray) -> np.ndarray:
    # The evolution is linear, so dividing record r by its accumulated norm
    # equals renormalizing segment by segment; the drift limit applies to
    # each recording segment individually.
    norms = np.linalg.norm(states, axis=1)
    segment_drift = np.abs(norms[1:] / norms[:-1] - 1.0)
    drift = segment_drift.max() if segment_drift.size else abs(norms[0] - 1.0)
    if not np.isfinite(drift):
        raise IntegrationError("the state became non-finite during integration")
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"per-segment norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; tighten tolerances"
        )
    return states / norms[:, np.newaxis]


class _LapackBDF(BDF):
    """scipy's BDF with its dense LU hooks calling LAPACK getrf/getrs
    directly: the same routines ``lu_factor``/``lu_solve`` call, without
    their per-call batch dispatch and finiteness scan (``_renormalize``
    rejects a non-finite state instead)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (self.I,))

        def lu(a):
            self.nlu += 1
            lu_factors, piv, info = getrf(a, overwrite_a=True)
            if info != 0:
                raise IntegrationError(f"LAPACK getrf failed in BDF (info {info})")
            return lu_factors, piv

        def solve_lu(lu_and_piv, b):
            x, info = getrs(*lu_and_piv, b, overwrite_b=True)
            if info != 0:
                raise IntegrationError(f"LAPACK getrs failed in BDF (info {info})")
            return x

        self.lu = lu
        self.solve_lu = solve_lu


def _evolve_bdf(provider, psi0, times, cfg) -> np.ndarray:
    # The Newton iterations and the Jacobian of a step all ask for H at the
    # same t_new, so H is evaluated once per distinct time, and kept both as
    # (diag, off) for the Jacobian and as the band the right-hand side
    # reads.  Two times are kept because start-up asks for t0 again after
    # its trial step.
    recent = {}

    def h_at(t):
        if t not in recent:
            if len(recent) == 2:
                del recent[next(iter(recent))]
            diag, off = provider(t)
            recent[t] = diag, off, hermitian_band(diag, off)
        return recent[t]

    def rhs(t, y):
        return apply_minus_ih(h_at(t)[2], y)

    def jac(t, y):
        diag, off, _ = h_at(t)
        return -1j * ChainHamiltonian(diag, off).to_dense()

    kwargs = {}
    if cfg.max_step is not None:
        kwargs["max_step"] = cfg.max_step
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        psi0,
        method=_LapackBDF,
        t_eval=times,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        jac=jac,
        **kwargs,
    )
    if not sol.success:
        raise IntegrationError(f"BDF integration failed: {sol.message}")
    return np.ascontiguousarray(sol.y.T)


def evolve(
    provider,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: int = 201,
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi and record uniform samples.

    ``provider`` is a HamiltonianProvider (or any callable with its
    contract).  Norm drift beyond 1e-6 raises IntegrationError; smaller
    drift is renormalized away at the record times.
    """
    if not t1 > t0:
        raise InvalidParameterError(f"need t1 > t0, got [{t0}, {t1}]")
    if int(n_records) < 2:
        raise InvalidParameterError("n_records must be >= 2")
    psi0 = _check_normalized(psi0)
    times = np.linspace(t0, t1, int(n_records))
    # an overflowing state is reported once, by _renormalize's finiteness
    # check, instead of by a numpy warning from every kernel it passes
    with np.errstate(all="ignore"):
        if cfg.method == "bdf":
            states = _evolve_bdf(provider, psi0, times, cfg)
        else:
            states = rk4_integrate(provider, psi0, times, cfg.rk4_step)
        states = _renormalize(states)
    return Trajectory(times, states, sigma_z(states))


def quench(
    h: ChainHamiltonian,
    flip_site: int,
    t_final: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: int = 201,
) -> Trajectory:
    """Flip one qubit of an otherwise spin-down chain and watch it evolve."""
    psi0 = basis_state(h.n_sites, flip_site)
    return evolve(HamiltonianProvider.from_static(h), psi0, 0.0, t_final, cfg, n_records)


def pump(
    schedule: Schedule,
    L: int,
    psi0: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: Optional[int] = None,
) -> Trajectory:
    """Drive the chain through ``schedule.cycles`` pump cycles."""
    if n_records is None:
        n_records = RECORDS_PER_CYCLE * schedule.cycles + 1
    provider = HamiltonianProvider.from_schedule(schedule, L)
    return evolve(provider, psi0, 0.0, schedule.total_time, cfg, n_records)
