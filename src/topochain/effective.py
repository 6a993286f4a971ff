"""Two-level reduction of the chain in its edge-state subspace.

In the topological phase the chain dynamics restricted to the two edge
states is a Landau-Zener model H = [[u, g], [g, -u]]: u is the staggered
potential and g = Xi^2 a lam^(L-1) the exponentially small edge-edge
coupling.  That is the one-cell Rice-Mele chain (on-site +-u, bond g), which
``reduced_arrays`` lays out like a chain, so a schedule's reduced H(t) comes
from the chain's own evaluator, ``schedule_arrays(..., reduced_arrays)``;
an LZ path is a one-cell schedule, evolved by ``pump``.

The trimer edge states of one pair share the B sublattice and so are not
orthogonal; their blocks are the symmetric (Loewdin) orthonormalization
S^-1/2 H S^-1/2 of the pair, whose splitting is the pair's in-gap splitting,
laid out together as a 4-site chain with a zero bond at the join.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Tuple

import numpy as np

from .dynamics import IntegratorConfig, evolve
from .errors import InvalidParameterError, PhaseDomainError
from .models import FunctionSpec, Schedule, chain_arrays, const, schedule_arrays
from .spectra import analytic_edge_states, coupling_ratio_norm_sq


def edge_coupling(a, b, L: int):
    """Xi^2 * a * lam^(L-1) with lam = -a/b, elementwise when a or b is an array.

    No phase-domain guard: outside |a| < |b| this is the analytic
    continuation used to draw closed pump paths through the trivial region.
    There it is evaluated in mu = -b/a = 1/lam, as Xi^2(mu) * a * mu^(L-1),
    the same closed form, which stays finite where lam^(L-1) overflows and
    gives g = 0 at b = 0 (L >= 2); a = b = 0 gives g = 0.
    """
    L = int(L)
    # both ratios are formed and one is selected: the other may divide by
    # zero or overflow, and a = b = 0 makes both 0/0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(np.abs(a) > np.abs(b), np.divide(-b, a), np.divide(-a, b))[()]
        g = coupling_ratio_norm_sq(ratio, L) * a * ratio ** (L - 1)
        return np.where((a == 0) & (b == 0), 0.0, g)[()]


class TrimerPair(NamedTuple):
    """One trimer edge pair in its non-orthogonal basis {|L>, |R>}."""

    e_left: float   # <L|H|L>
    e_right: float  # <R|H|R>
    g: float        # <L|H|R>
    overlap: float  # <L|R>


def trimer_pair_elements(a: float, c: float, u: float, v: float, w: float, L: int, upper: bool) -> TrimerPair:
    """Bare elements of the upper (+) or lower (-) edge pair, lam = a/c and
    K = Xi^2 (-+lam)^(L-1) / 2, elementwise when the parameters are arrays:

    <L|H|L> = (u+v)/2 +- a, <R|H|R> = (v+w)/2 +- a,
    <L|H|R> = K [L(a +- v) + a], <L|R> = +-L K.
    """
    pm = 1.0 if upper else -1.0
    lam = a / c
    k = coupling_ratio_norm_sq(lam, L) * (-pm * lam) ** (L - 1) / 2.0
    return TrimerPair((u + v) / 2.0 + pm * a, (v + w) / 2.0 + pm * a, k * (L * (a + pm * v) + a), pm * L * k)


def reduced_arrays(kind: str, L: int, p: Mapping, shape: tuple = ()):
    """Diagonal and bonds of the chain reduced to its edge states, with the
    signature and column convention of ``models.chain_arrays``.

    ``rm``: the one-cell chain with on-site +-u and bond g =
    ``edge_coupling(a, b, L)``.  Mirror ``trimer`` (a = b): the upper (+)
    and lower (-) pairs' blocks as a 4-site chain, sites [e+ + d+, e+ - d+,
    e- + d-, e- - d-] and bonds [g+, 0, g-].  A block is the Loewdin form
    S^-1/2 [[e_L, g], [g, e_R]] S^-1/2 of the pair's bare elements
    (``trimer_pair_elements``), S = [[1, s], [s, 1]], so its levels are the
    chain's projected onto the pair: with e = (e_L + e_R)/2, offset
    (e - s g)/(1 - s^2), detuning (e_L - e_R)/(2 sqrt(1 - s^2)) and coupling
    (g - s e)/(1 - s^2) = K [a +- L(2v - u - w)/4] / (1 - s^2); at u = w the
    pair's in-gap splitting is 2|g+-|.

    |a| >= |b| (rm) or |a| >= |c| (trimer) at any point raises
    PhaseDomainError: outside the topological phase there are no edge
    states to project on.
    """
    if kind not in ("rm", "trimer") or (kind == "trimer" and np.any(p["a"] != p["b"])):
        raise InvalidParameterError(f"reduction needs a Rice-Mele or a mirror (a = b) trimer chain, got {kind!r}")
    strong = "b" if kind == "rm" else "c"  # the bond that |a| must stay below
    bad = np.abs(p["a"]) >= np.abs(p[strong])
    if np.any(bad):
        a, s = (np.broadcast_to(p[name], bad.shape).flat[np.argmax(bad)] for name in ("a", strong))
        raise PhaseDomainError(f"reduction needs |a| < |{strong}|, got a={a}, {strong}={s}")
    L = int(L)
    if kind == "rm":
        return chain_arrays("rm", 1, {"u": p["u"], "a": edge_coupling(p["a"], p["b"], L), "b": 0.0}, shape)
    diag, off = np.empty(shape + (4,)), np.zeros(shape + (3,))
    for i, upper in enumerate((True, False)):
        e_left, e_right, g, s = trimer_pair_elements(p["a"], p["c"], p["u"], p["v"], p["w"], L, upper)
        mean, q = (e_left + e_right) / 2.0, 1.0 - s * s
        detuning, offset = (e_left - e_right) / (2.0 * np.sqrt(q)), (mean - s * g) / q
        diag[..., 2 * i:2 * i + 1] = offset + detuning
        diag[..., 2 * i + 1:2 * i + 2] = offset - detuning
        off[..., 2 * i:2 * i + 1] = (g - s * mean) / q
    return diag, off


# ---------------------------------------------------------------------------
# Parameter-space paths
# ---------------------------------------------------------------------------


class PathClass(enum.Enum):
    AROUND_CRITICAL = "around-critical"
    THROUGH_CRITICAL = "through-critical"
    NO_CROSSING = "no-crossing"


def from_functions(u: FunctionSpec, g: FunctionSpec, period: float) -> Schedule:
    """The path t -> (u(t), g(t)) over [0, T]: the one-cell Rice-Mele
    schedule with on-site +-u and bond g, which ``pump`` evolves at L = 1
    and ``schedule_arrays`` samples."""
    return Schedule("rm", period, {"u": u, "a": g, "b": const(0.0)})


def arc(alpha: float, period: float) -> Schedule:
    """Path A: the half circle u = alpha*cos(pi t/T - pi), g = alpha*sin(pi t/T - pi)."""
    u = FunctionSpec("cos", amplitude=alpha, frequency_multiple=0.5, phase=-np.pi)
    g = FunctionSpec("sin", amplitude=alpha, frequency_multiple=0.5, phase=-np.pi)
    return from_functions(u, g, period)


def line(alpha: float, period: float) -> Schedule:
    """Path B: u = alpha*(2t/T - 1) straight through the critical point, g = 0."""
    u = FunctionSpec("linear", offset=-alpha, amplitude=2.0 * alpha)
    return from_functions(u, const(0.0), period)


def line_at_angle(alpha: float, theta: float, period: float) -> Schedule:
    """Path C: the path-B ramp tilted so that g = tan(theta) * u."""
    u = FunctionSpec("linear", offset=-alpha, amplitude=2.0 * alpha)
    tan = float(np.tan(theta))  # a float product overflows to inf without a warning
    g = FunctionSpec("linear", offset=-alpha * tan, amplitude=2.0 * alpha * tan)
    return from_functions(u, g, period)


def from_schedule(schedule: Schedule, L: int, n_samples: int = 201):
    """(times, u, g): the trace a Rice-Mele pump schedule induces via the
    reduction at ``n_samples`` times over one period, with g from one array
    call of ``edge_coupling``: continued analytically through the trivial
    region, which the plain pump crosses and where ``reduced_arrays`` raises."""
    if schedule.kind != "rm":
        raise InvalidParameterError("path extraction needs a Rice-Mele schedule")
    times = np.linspace(0.0, schedule.period, int(n_samples))
    vals = schedule.values(times)
    return times, vals["u"], edge_coupling(vals["a"], vals["b"], L)


def classify_path(u: np.ndarray, g: np.ndarray) -> PathClass:
    """Around vs through the critical point u = g = 0 (or neither), from the
    ordered samples of a path; their times do not enter.

    |u| at most 1e-6 of the largest path radius (0 on the zero path) counts
    as zero, and a path whose radius dips below it passes through the
    critical point.
    """
    radius = np.hypot(u, g)
    tol = 1e-6 * float(radius.max())
    nonzero = u[np.abs(u) > tol]
    # the signs compared, not multiplied: a product of two |u| above 1e154 overflows
    changes_sign = nonzero.size >= 2 and (nonzero[0] > 0) != (nonzero[-1] > 0)
    if not changes_sign:
        return PathClass.NO_CROSSING
    if radius.min() < tol:
        return PathClass.THROUGH_CRITICAL
    return PathClass.AROUND_CRITICAL


# ---------------------------------------------------------------------------
# Reduced-vs-full comparison and reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReductionComparison:
    times: np.ndarray
    populations_full: np.ndarray     # (nt, 2): |<L|psi>|^2, |<R|psi>|^2
    populations_reduced: np.ndarray  # (nt, 2)
    max_deviation: float


def compare_reduction(
    schedule: Schedule,
    L: int,
    cfg: IntegratorConfig = IntegratorConfig(),
    window: Tuple[float, float] = (0.0, 0.1),
    n_records: int = 101,
) -> ReductionComparison:
    """Evolve the full chain and its two-level reduction from |L> over a
    window (given as fractions of T) and report the worst population gap.

    The projectors use the instantaneous analytic edge states of
    (a(t), b(t)); the window must stay inside the topological phase.
    """
    if schedule.kind != "rm":
        raise InvalidParameterError("reduction comparison needs a Rice-Mele schedule")
    t0, t1 = (f * schedule.period for f in window)
    if not t1 > t0:
        raise InvalidParameterError("empty comparison window")

    vals0 = schedule.values(t0)
    pair0 = analytic_edge_states(vals0["a"], vals0["b"], L)
    psi0 = pair0.left.astype(np.complex128)

    # first, as reduced_arrays raises PhaseDomainError where the window leaves the topological phase
    reduced = evolve(lambda times: schedule_arrays(schedule, L, times, reduced_arrays),
                     np.array([1.0, 0.0], dtype=np.complex128), t0, t1, cfg, n_records)
    full = evolve(lambda times: schedule_arrays(schedule, L, times), psi0, t0, t1, cfg, n_records)

    pop_full = np.empty((full.times.size, 2))
    for i, t in enumerate(full.times):
        vals = schedule.values(t)
        pair = analytic_edge_states(vals["a"], vals["b"], L)
        pop_full[i, 0] = abs(np.vdot(pair.left, full.states[i])) ** 2
        pop_full[i, 1] = abs(np.vdot(pair.right, full.states[i])) ** 2
    pop_reduced = np.abs(reduced.states) ** 2
    dev = float(np.abs(pop_full - pop_reduced).max())
    return ReductionComparison(full.times, pop_full, pop_reduced, dev)
