"""Time evolution in the single-excitation sector.

The production integrator is the fourth-order commutator-free Magnus scheme
(``_kernels.cfm4_integrate``; Blanes & Moan, Appl. Numer. Math. 56 (2006)
1519; Alvermann & Fehske, J. Comput. Phys. 230 (2011) 5930): two exponentials
of H at the Gauss nodes per step, each V exp(-i dt E) V^T from the one
tridiagonal eigensolver.  It is unitary to rounding and exact for a static
H.  Its step count follows from ``rel_tol`` by step halving on a ladder of
one step per record segment (or ``segment_steps`` of ``max_step``), doubled.
The first pass is the first rung on which every step has dt R < pi, R the
largest Gershgorin row sum of H at the record times (inside the Magnus
series' convergence radius), and the steps are doubled until the
Richardson estimate max |psi_2N - psi_N| / 15 over all records is within
``rel_tol``; the finer run is returned.  k initial states, the columns of
an (n, k) array, share each step's eigensolves and one step count, set by
the largest of their estimates; BDF and RK4 run them one after the other.
A run symmetric in time (R H(t) R = H(t0 + t1 - t), R the reversal of the
site order, on a mirrored record and step grid, as in both paper pumps and
the lz arc and line) integrates only its first half, as the n columns of
the identity, and reads the second half off those propagators: the same
steps and estimates, with states moved by rounding (about 1e-13 on the
Bell pump).  ``_kernels.mirror_applies`` decides from the run's own H,
grids and size, and the record says which path ran.

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
# changes, a step costs two tridiagonal eigensolves and their products, at
# the one BLAS thread of a run: about 80 us at 21 sites (32 s at the
# budget), 16 us at 2 sites and 0.13 s at 1000 sites, and a run under the
# time-reversal mirror integrates half of its steps.  The Bell pump (21 sites,
# T = 1000, rel_tol 1e-8) takes 9,600 a cycle, an lz arc at the phase bound
# (T = 10,000) 96,000.
# The config's phase bound (span ||H|| <= 20,000) keeps a first pass
# doubled past its base rung to 2 x 20,000 / pi, about 12,700 steps
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
    # what ran: method; steps, steps_total, mirrored and error_estimate (Magnus),
    # energy_shift and nfev/njev/nlu (BDF) or energy_shift and steps (RK4);
    # and norm_drift, the largest per-segment drift (before renormalizing)
    integration: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


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
    if psi.ndim not in (1, 2) or psi.size == 0:
        raise InvalidParameterError(f"initial states must have shape (n,) or (n, k), got {psi.shape}")
    for column in psi.reshape(psi.shape[0], -1).T:
        norm = np.linalg.norm(column)
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


def _start_steps(provider, times, cfg) -> np.ndarray:
    # the first rung of the halving ladder (one step per record segment, or
    # segment_steps of max_step, doubled) on which every step has dt R < pi,
    # R the largest Gershgorin row sum of H at the record times: the Magnus
    # series is only sure to converge below pi (Moan & Niesen, Found.
    # Comput. Math. 8 (2008) 291), so the passes below that rung would be
    # thrown away.  A non-finite R leaves the ladder where it starts, and
    # _renormalize reports the state
    steps = np.ones(times.size - 1) if cfg.max_step is None else segment_steps(times, cfg.max_step)
    diag, off = provider(times)
    rows = np.abs(diag)
    rows[..., 1:] += np.abs(off)
    rows[..., :-1] += np.abs(off)
    radius = rows.max()
    segments = np.diff(times)
    if np.isfinite(radius):
        while steps.sum() <= MAGNUS_MAX_STEPS and not (segments / steps).max() * radius < np.pi:
            steps = 2.0 * steps
    return steps


def _evolve_magnus(provider, psi0, times, cfg):
    # step halving for the (n, k) states psi0 at once: the scheme is 4th
    # order, so psi_2N - psi_N is about 15 times the error of psi_2N, and
    # the largest estimate over the columns decides.  A non-finite estimate
    # ends the loop too, and _renormalize reports the state.  Returns the
    # (records, n, k) states, the step counts with whether the returned pass
    # ran the time-reversal mirror, and each column's estimate
    span = times[-1] - times[0]
    steps = _start_steps(provider, times, cfg)
    total, states, errors, stats = 0.0, None, np.full(psi0.shape[1], np.inf), {}
    while True:
        if total + steps.sum() > MAGNUS_MAX_STEPS:
            raise IntegrationError(
                f"Magnus step halving over t = {span:g} would pass its budget of {MAGNUS_MAX_STEPS:,} steps "
                f"before the error estimate ({errors.max():.2e}) reaches rel_tol {cfg.rel_tol:g}; "
                "loosen rel_tol or shorten the run"
            )
        total += steps.sum()
        coarse, states = states, cfm4_integrate(provider, psi0, times, steps, stats)
        if coarse is not None:
            errors = np.abs(states - coarse).max(axis=(0, 1)) / 15.0
            if not errors.max() > cfg.rel_tol:
                break
        steps = 2.0 * steps
    return states, {"steps": int(steps.sum()), "steps_total": int(total), **stats}, errors


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
) -> Trajectory | list[Trajectory]:
    """Integrate i dpsi/dt = H(t) psi and record uniform samples.

    ``h_of_times`` maps times to ``(diag, off)`` (see the module
    docstring).  ``psi0`` is one state of shape (n,), or k states as the
    columns of an (n, k) array, which give a list of k trajectories: Magnus
    propagates the columns together, on one step count, and BDF and RK4
    one after the other.  Norm drift beyond 1e-6 raises IntegrationError;
    smaller drift is renormalized away at the record times (not for
    Magnus, which only reports it).
    """
    if not t1 > t0:
        raise InvalidParameterError(f"need t1 > t0, got [{t0}, {t1}]")
    if int(n_records) < 2:
        raise InvalidParameterError("n_records must be >= 2")
    psi0 = _check_normalized(psi0)
    columns = psi0.reshape(psi0.shape[0], -1)
    times = np.linspace(t0, t1, int(n_records))
    runs = []
    # an overflowing state is reported once, by _renormalize's finiteness
    # check, instead of by a numpy warning from every kernel it passes
    with np.errstate(all="ignore"):
        if cfg.method == "magnus":
            states, counts, errors = _evolve_magnus(h_of_times, columns, times, cfg)
            for c, error in enumerate(errors):
                stats = {"method": cfg.method, **counts, "error_estimate": float(error)}
                runs.append((np.ascontiguousarray(states[..., c]), stats))
        else:
            for psi in columns.T:
                stats = {"method": cfg.method}
                if cfg.method == "bdf":
                    states = _evolve_bdf(h_of_times, psi, times, cfg, stats)
                else:
                    # RK4 stays in the lab frame, so it cross-checks BDF's frame as well
                    states = rk4_integrate(h_of_times, psi, times, cfg.rk4_step)
                    stats.update(energy_shift=0.0, steps=int(segment_steps(times, cfg.rk4_step).sum()))
                runs.append((states, stats))
        trajectories = []
        for states, stats in runs:
            states = _renormalize(states, stats, rescale=cfg.method != "magnus")
            trajectories.append(Trajectory(times, states, sigma_z(states), stats))
    return trajectories[0] if psi0.ndim == 1 else trajectories


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
) -> Trajectory | list[Trajectory]:
    """Drive the chain through ``schedule.cycles`` pump cycles from ``psi0``,
    one state (n,) or the k columns of an (n, k) array (see ``evolve``)."""
    if n_records is None:
        n_records = RECORDS_PER_CYCLE * schedule.cycles + 1
    return evolve(lambda times: schedule_arrays(schedule, L, times), psi0, 0.0, schedule.total_time, cfg, n_records)
