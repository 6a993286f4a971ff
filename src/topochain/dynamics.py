"""Time evolution in the single-excitation sector.

The production integrator is the fourth-order commutator-free Magnus scheme
(``_kernels.cfm4_integrate``; Blanes & Moan, Appl. Numer. Math. 56 (2006)
1519; Alvermann & Fehske, J. Comput. Phys. 230 (2011) 5930): two exponentials
of H at the Gauss nodes per step, each V exp(-i dt E) V^T from the one
tridiagonal eigensolver.  It is unitary to rounding and exact for a static
H.  Its step count follows from ``rel_tol`` by step halving: one step per
record segment (or ``ceil(segment / max_step)``), doubled until the
Richardson estimate max |psi_2N - psi_N| / 15 over all records is within
``rel_tol``; the finer run is returned.

Two cross-checks remain: scipy's adaptive BDF (the stiff multistep family)
with its LU hooks bound straight to LAPACK ``getrf``/``getrs``, and
fixed-step RK4 with substep control.  All three read H(t) from a function
``times -> (diag[k, n], off[k, n-1])``, such as ``models.schedule_arrays``
bound to a schedule: BDF asks it for one time per call and evaluates each
distinct time once, RK4 and Magnus for up to ``RK4_CHUNK`` steps of times.
BDF and RK4 apply -iH through the same kernel, one BLAS ``zhbmv`` on the
Hermitian band storage of H (``_kernels.hermitian_band``); RK4 also
combines its stages with ``zaxpy``.  Schedules are evaluated analytically
at whatever times are asked for.

BDF runs in the trace-free frame: it integrates under H - eps0, where eps0
is the mean on-site energy of H(t0), and multiplies the records by
exp(-i eps0 (t - t0)).  The shift is exact, since it only turns a global
phase, and it removes the common rotation that limits BDF's step (4/3 on
the Bell pump's trimer, a uniform on-site omega in a quench).  Rice-Mele
and two-level Hamiltonians have eps0 = 0 and integrate exactly as without
the frame.  RK4 and Magnus stay in the lab frame, an independent check of
the shift.  BDF and RK4 records are renormalized; Magnus records keep the
norm they have, and only their drift is reported.  Each Trajectory carries
an ``integration`` record of what ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from ._kernels import apply_minus_ih, cfm4_integrate, hermitian_band, rk4_integrate, segment_steps
from .errors import IntegrationError, InvalidParameterError
from .models import ChainHamiltonian, Schedule, schedule_arrays

NORM_DRIFT_LIMIT = 1e-6
DEFAULT_RK4_STEP = 0.01
RECORDS_PER_CYCLE = 200
METHODS = ("magnus", "bdf", "rk4")

# Magnus steps of one integration, all halving passes included.  Where H(t)
# changes, a step costs two tridiagonal eigensolves and their products:
# about 125 us at 21 sites on 2 cores (50 s at the budget), 25 us at 2 sites
# and 0.2 s at 1000 sites.  The Bell pump (21 sites, T = 1000, rel_tol 1e-8)
# takes 12,600 a cycle, an lz arc at the phase bound (T = 10,000) 102,200
MAGNUS_MAX_STEPS = 400_000


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    # Magnus: starting step cap (default one step per record segment);
    # BDF: unlimited; RK4: substep cap (default 0.01)
    max_step: Optional[float] = None
    method: str = "magnus"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParameterError("tolerances must be > 0")
        if self.max_step is not None and self.max_step <= 0:
            raise InvalidParameterError("max_step must be > 0")
        if self.method not in METHODS:
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
    # what ran: method; steps, steps_total and error_estimate (Magnus),
    # energy_shift and nfev/njev/nlu (BDF) or energy_shift and steps (RK4);
    # and norm_drift, the largest per-segment drift (before renormalizing)
    integration: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise InvalidParameterError(f"t={t} is not a recorded time")
        return self.states[i]


def static_arrays(h: ChainHamiltonian, times):
    """H(t) of a fixed chain at ``times``, laid out as ``models.schedule_arrays``."""
    shape = np.shape(times)
    return (np.broadcast_to(h.diagonal, shape + h.diagonal.shape),
            np.broadcast_to(h.offdiagonal, shape + h.offdiagonal.shape))


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


def _renormalize(states: np.ndarray, stats=None, rescale: bool = True) -> np.ndarray:
    # The evolution is linear, so dividing record r by its accumulated norm
    # equals renormalizing segment by segment; the drift limit applies to
    # each recording segment individually.  Without ``rescale`` the drift is
    # only checked and reported.
    norms = np.linalg.norm(states, axis=1)
    segment_drift = np.abs(norms[1:] / norms[:-1] - 1.0)
    drift = segment_drift.max() if segment_drift.size else abs(norms[0] - 1.0)
    if stats is not None:
        stats["norm_drift"] = float(drift)
    if not np.isfinite(drift):
        raise IntegrationError("the state became non-finite during integration")
    if drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"per-segment norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; tighten tolerances"
        )
    return states / norms[:, np.newaxis] if rescale else states


def _evolve_magnus(provider, psi0, times, cfg, stats) -> np.ndarray:
    # step halving: the scheme is 4th order, so psi_2N - psi_N is about 15
    # times the error of psi_2N.  A non-finite estimate ends the loop too,
    # and _renormalize reports the state
    span = times[-1] - times[0]
    steps = np.ones(times.size - 1) if cfg.max_step is None else segment_steps(times, cfg.max_step)
    total, states, error = 0.0, None, np.inf
    while True:
        if total + steps.sum() > MAGNUS_MAX_STEPS:
            raise IntegrationError(
                f"Magnus step halving over t = {span:g} would pass its budget of {MAGNUS_MAX_STEPS:,} steps "
                f"before the error estimate ({error:.2e}) reaches rel_tol {cfg.rel_tol:g}; "
                "loosen rel_tol or shorten the run"
            )
        total += steps.sum()
        coarse, states = states, cfm4_integrate(provider, psi0, times, steps)
        if coarse is not None:
            error = float(np.abs(states - coarse).max()) / 15.0
            if not error > cfg.rel_tol:
                break
        steps = 2.0 * steps
    stats.update(steps=int(steps.sum()), steps_total=int(total), error_estimate=error)
    return states


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first BDF run.

    scipy.integrate loads scipy.optimize, scipy.special and scipy.sparse,
    which only the runs that integrate with BDF need.  ``_evolve_bdf``
    calls through this module attribute, so that it can be replaced."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@cache
def _lapack_bdf():
    """scipy's BDF with its dense LU hooks calling LAPACK getrf/getrs
    directly: the same routines ``lu_factor``/``lu_solve`` call, without
    their per-call batch dispatch and finiteness scan (``_renormalize``
    rejects a non-finite state instead).  Built on first use, as
    ``solve_ivp`` is imported."""
    from scipy.integrate import BDF

    class _LapackBDF(BDF):
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

    return _LapackBDF


def _evolve_bdf(provider, psi0, times, cfg, stats=None) -> np.ndarray:
    # BDF runs under H - eps0, eps0 = mean(diag H(t0)), and the records get
    # the phase exp(-i eps0 (t - t0)) back (see the module docstring); with
    # eps0 = 0 they are left as BDF returns them.
    # The Newton iterations and the Jacobian of a step all ask for H at the
    # same t_new, so H is evaluated once per distinct time, and kept both as
    # (diag - eps0, off) for the Jacobian and as the band the right-hand
    # side reads.  Two times are kept because start-up asks for t0 again
    # after its trial step.
    recent = {}

    def remember(t, diag, off):
        if len(recent) == 2:
            del recent[next(iter(recent))]
        diag = diag - shift
        recent[t] = diag, off, hermitian_band(diag, off)

    def h_at(t):
        if t not in recent:
            remember(t, *provider(t))
        return recent[t]

    diag0, off0 = provider(times[0])
    shift = float(np.mean(diag0))
    remember(times[0], diag0, off0)

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
        method=_lapack_bdf(),
        t_eval=times,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        jac=jac,
        **kwargs,
    )
    if not sol.success:
        raise IntegrationError(f"BDF integration failed: {sol.message}")
    if stats is not None:
        stats.update(energy_shift=shift, nfev=int(sol.nfev), njev=int(sol.njev), nlu=int(sol.nlu))
    states = np.ascontiguousarray(sol.y.T)
    if shift:
        states *= np.exp(-1j * shift * (times - times[0]))[:, np.newaxis]
    return states


def evolve(
    h_of_times,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: int = 201,
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi and record uniform samples.

    ``h_of_times`` maps times to ``(diag, off)`` (see the module
    docstring).  Norm drift beyond 1e-6 raises IntegrationError; smaller
    drift is renormalized away at the record times.
    """
    if not t1 > t0:
        raise InvalidParameterError(f"need t1 > t0, got [{t0}, {t1}]")
    if int(n_records) < 2:
        raise InvalidParameterError("n_records must be >= 2")
    psi0 = _check_normalized(psi0)
    times = np.linspace(t0, t1, int(n_records))
    stats = {"method": cfg.method}
    # an overflowing state is reported once, by _renormalize's finiteness
    # check, instead of by a numpy warning from every kernel it passes
    with np.errstate(all="ignore"):
        if cfg.method == "magnus":
            states = _evolve_magnus(h_of_times, psi0, times, cfg, stats)
        elif cfg.method == "bdf":
            states = _evolve_bdf(h_of_times, psi0, times, cfg, stats)
        else:
            # RK4 stays in the lab frame, so it cross-checks BDF's frame as well
            states = rk4_integrate(h_of_times, psi0, times, cfg.rk4_step)
            stats.update(energy_shift=0.0, steps=int(segment_steps(times, cfg.rk4_step).sum()))
        states = _renormalize(states, stats, rescale=cfg.method != "magnus")
    return Trajectory(times, states, sigma_z(states), stats)


def quench(
    h: ChainHamiltonian,
    flip_site: int,
    t_final: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: int = 201,
) -> Trajectory:
    """Flip one qubit of an otherwise spin-down chain and watch it evolve."""
    psi0 = basis_state(h.n_sites, flip_site)
    return evolve(lambda times: static_arrays(h, times), psi0, 0.0, t_final, cfg, n_records)


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
    return evolve(lambda times: schedule_arrays(schedule, L, times), psi0, 0.0, schedule.total_time, cfg, n_records)
