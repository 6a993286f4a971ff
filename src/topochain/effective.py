"""Two-level reduction of the chain in its edge-state subspace.

In the topological phase the chain dynamics restricted to the two edge
states is a Landau-Zener model H = [[u, g], [g, -u]] (plus an identity
shift for the trimer blocks): u is the staggered potential and
g = Xi^2 a lam^(L-1) the exponentially small edge-edge coupling.  That
model is the one-cell Rice-Mele chain (on-site +-u, bond g): an LZ path is
its schedule, evolved by ``pump`` through the chain's own H(t) evaluator.

The trimer edge states of one pair share the B sublattice and so are not
orthogonal; their blocks are the symmetric (Loewdin) orthonormalization
S^-1/2 H S^-1/2 of the pair, whose splitting is the pair's in-gap splitting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, evolve, pump
from .errors import InvalidParameterError, PhaseDomainError
from .models import ChainHamiltonian, FunctionSpec, Schedule, chain_arrays, const, schedule_arrays
from .spectra import analytic_edge_states, coupling_ratio_norm_sq, eigendecompose
from . import models


@dataclass(frozen=True)
class TwoLevelSystem:
    """H = offset*I + [[u, g], [g, -u]]; eigenvalues offset -+ sqrt(u^2+g^2)."""

    u: float
    g: float
    offset: float = 0.0

    def to_chain(self) -> ChainHamiltonian:
        return ChainHamiltonian([self.offset + self.u, self.offset - self.u], [self.g])


def lz_eigen(sys: TwoLevelSystem) -> Tuple[float, float]:
    """(E_minus, E_plus), ascending; elementwise when u and g are arrays."""
    r = np.hypot(sys.u, sys.g)
    return (sys.offset - r, sys.offset + r)


def edge_coupling(a: float, b: float, L: int) -> float:
    """Xi^2 * a * lam^(L-1) with lam = -a/b.

    No phase-domain guard: outside |a| < |b| this is the analytic
    continuation used to draw closed pump paths through the trivial region.
    There it is evaluated in mu = -b/a = 1/lam, as Xi^2(mu) * a * mu^(L-1),
    the same closed form, which stays finite where lam^(L-1) overflows and
    gives g = 0 at b = 0 (L >= 2); a = b = 0 gives g = 0.
    """
    if not (a or b):
        return 0.0
    ratio = -b / a if abs(a) > abs(b) else -a / b
    return coupling_ratio_norm_sq(ratio, int(L)) * a * ratio ** (int(L) - 1)


def reduce_rm(a: float, b: float, u: float, L: int) -> TwoLevelSystem:
    """Project the Rice-Mele chain onto its two edge states."""
    if abs(a) >= abs(b):
        raise PhaseDomainError(f"reduction needs |a| < |b|, got a={a}, b={b}")
    return TwoLevelSystem(u=u, g=edge_coupling(a, b, L), offset=0.0)


class TrimerPair(NamedTuple):
    """One trimer edge pair in its non-orthogonal basis {|L>, |R>}."""

    e_left: float   # <L|H|L>
    e_right: float  # <R|H|R>
    g: float        # <L|H|R>
    overlap: float  # <L|R>


def trimer_pair_elements(a: float, c: float, u: float, v: float, w: float, L: int, upper: bool) -> TrimerPair:
    """Bare elements of the upper (+) or lower (-) edge pair, lam = a/c and
    K = Xi^2 (-+lam)^(L-1) / 2:

    <L|H|L> = (u+v)/2 +- a, <R|H|R> = (v+w)/2 +- a,
    <L|H|R> = K [L(a +- v) + a], <L|R> = +-L K.
    """
    pm = 1.0 if upper else -1.0
    lam = a / c
    k = coupling_ratio_norm_sq(lam, L) * (-pm * lam) ** (L - 1) / 2.0
    return TrimerPair((u + v) / 2.0 + pm * a, (v + w) / 2.0 + pm * a, k * (L * (a + pm * v) + a), pm * L * k)


def _trimer_block(a: float, c: float, u: float, v: float, w: float, L: int, upper: bool) -> TwoLevelSystem:
    """S^-1/2 [[e_L, g], [g, e_R]] S^-1/2 with S = [[1, s], [s, 1]]: with
    mean e = (e_L + e_R)/2 the block has detuning (e_L - e_R)/(2 sqrt(1 - s^2)),
    coupling (g - s e)/(1 - s^2) and offset (e - s g)/(1 - s^2)."""
    e_left, e_right, g, s = trimer_pair_elements(a, c, u, v, w, L, upper)
    mean = (e_left + e_right) / 2.0
    q = 1.0 - s * s
    return TwoLevelSystem((e_left - e_right) / (2.0 * np.sqrt(q)), (g - s * mean) / q, (mean - s * g) / q)


def reduce_trimer(
    a: float,
    c: float,
    u: float,
    v: float,
    w: float,
    L: int,
    b: Optional[float] = None,
) -> Tuple[TwoLevelSystem, TwoLevelSystem]:
    """Two-level blocks (H_plus, H_minus) of the mirror-symmetric trimer
    chain in its upper/lower edge-state pairs.

    Each block is S^-1/2 [[<L|H|L>, <L|H|R>], [<L|H|R>, <R|H|R>]] S^-1/2 of
    the pair's bare elements (``trimer_pair_elements``), S = [[1, s], [s, 1]]
    its overlap matrix, so its eigenvalues are those of the chain projected
    onto the pair.  Its coupling g_pm = K [a +- L(2v - u - w)/4] / (1 - s^2);
    at u = w the pair's in-gap splitting is 2|g_pm|.
    """
    if b is not None and b != a:
        raise InvalidParameterError(f"trimer reduction needs the mirror case a = b, got a={a}, b={b}")
    if abs(a) >= abs(c):
        raise PhaseDomainError(f"trimer reduction needs |a| < |c|, got a={a}, c={c}")
    L = int(L)
    return _trimer_block(a, c, u, v, w, L, upper=True), _trimer_block(a, c, u, v, w, L, upper=False)


# ---------------------------------------------------------------------------
# Parameter-space paths
# ---------------------------------------------------------------------------


class PathClass(enum.Enum):
    AROUND_CRITICAL = "around-critical"
    THROUGH_CRITICAL = "through-critical"
    NO_CROSSING = "no-crossing"


@dataclass(frozen=True, eq=False)
class LZPath:
    """A path t -> (u(t), g(t)) over [0, T], sampled.  Built from function
    terms, it keeps them as ``schedule``: the one-cell Rice-Mele chain with
    on-site +-u and bond g.  A path only sampled (``from_schedule``) has none."""

    times: np.ndarray
    u: np.ndarray
    g: np.ndarray
    period: float
    schedule: Optional[Schedule] = None

    def __post_init__(self):
        if self.times.size < 3:
            raise InvalidParameterError("a path needs at least 3 samples")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidParameterError("path times must increase strictly")

    @classmethod
    def from_functions(cls, u: FunctionSpec, g: FunctionSpec, period: float, n_samples: int = 201) -> "LZPath":
        schedule = Schedule("rm", period, {"u": u, "a": g, "b": const(0.0)})
        times = np.linspace(0.0, period, int(n_samples))
        return cls(times, u.value(times, period), g.value(times, period), period, schedule)

    @classmethod
    def arc(cls, alpha: float, period: float, n_samples: int = 201) -> "LZPath":
        """Path A: the half circle u = alpha*cos(pi t/T - pi), g = alpha*sin(pi t/T - pi)."""
        u = FunctionSpec("cos", amplitude=alpha, frequency_multiple=0.5, phase=-np.pi)
        g = FunctionSpec("sin", amplitude=alpha, frequency_multiple=0.5, phase=-np.pi)
        return cls.from_functions(u, g, period, n_samples)

    @classmethod
    def line(cls, alpha: float, period: float, n_samples: int = 201) -> "LZPath":
        """Path B: u = alpha*(2t/T - 1) straight through the critical point, g = 0."""
        u = FunctionSpec("linear", offset=-alpha, amplitude=2.0 * alpha)
        return cls.from_functions(u, const(0.0), period, n_samples)

    @classmethod
    def line_at_angle(cls, alpha: float, theta: float, period: float, n_samples: int = 201) -> "LZPath":
        """Path C: the path-B ramp tilted so that g = tan(theta) * u."""
        u = FunctionSpec("linear", offset=-alpha, amplitude=2.0 * alpha)
        tan = float(np.tan(theta))  # a float product overflows to inf without a warning
        g = FunctionSpec("linear", offset=-alpha * tan, amplitude=2.0 * alpha * tan)
        return cls.from_functions(u, g, period, n_samples)

    @classmethod
    def from_schedule(cls, schedule: Schedule, L: int, n_samples: int = 201) -> "LZPath":
        """The (u, g) trace a Rice-Mele pump schedule induces via the
        reduction, continued analytically through the trivial region."""
        if schedule.kind != "rm":
            raise InvalidParameterError("path extraction needs a Rice-Mele schedule")
        times = np.linspace(0.0, schedule.period, int(n_samples))
        vals = schedule.values(times)
        g = np.array([edge_coupling(a, b, L) for a, b in zip(vals["a"], vals["b"])])
        return cls(times, vals["u"], g, schedule.period)


def classify_path(path: LZPath, tol: Optional[float] = None) -> PathClass:
    """Around vs through the critical point u = g = 0 (or neither).

    The default tolerance is 1e-6 of the largest path radius; the result
    depends only on the ordered samples, not on their time stamps.
    """
    radius = np.hypot(path.u, path.g)
    if tol is None:
        tol = 1e-6 * float(radius.max())
    if tol <= 0:
        raise InvalidParameterError("tol must be > 0")
    nonzero = path.u[np.abs(path.u) > tol]
    changes_sign = nonzero.size >= 2 and nonzero[0] * nonzero[-1] < 0
    if not changes_sign:
        return PathClass.NO_CROSSING
    if radius.min() < tol:
        return PathClass.THROUGH_CRITICAL
    return PathClass.AROUND_CRITICAL


def path_c_hamiltonian(u: float, theta: float) -> np.ndarray:
    """H = u/cos(theta) * [[cos, sin], [sin, -cos]](theta) of the tilted ramp."""
    if abs(np.cos(theta)) < 1e-12:
        raise InvalidParameterError("theta = +-pi/2 is singular")
    return u / np.cos(theta) * np.array([[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]])


def path_c_frame(theta: float) -> np.ndarray:
    """Rotation R taking {|L>, |R>} to the time-independent eigenbasis of
    the path-C Hamiltonian: R H R^T is diagonal with entries +-u/cos(theta).

    Rows are (cos t/2, sin t/2) and (-sin t/2, cos t/2); the upper state is
    cos(t/2)|L> + sin(t/2)|R>.  The sign of the second row makes R a proper
    rotation, which the printed symmetric form (det = cos theta) is not.
    """
    if not abs(theta) < np.pi / 2:
        raise InvalidParameterError(f"|theta| must be < pi/2, got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def lz_evolve(
    path: LZPath,
    psi0: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_records: int = 201,
) -> Trajectory:
    """Integrate the two-level Schroedinger equation along the path: one
    period of its schedule, pumped on the one-cell chain."""
    if path.schedule is None:
        raise InvalidParameterError("a path only sampled has no schedule to evolve; build it from function terms")
    return pump(path.schedule, 1, psi0, cfg, n_records)


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

    full = evolve(lambda times: schedule_arrays(schedule, L, times), psi0, t0, t1, cfg, n_records)

    # reduce_rm raises PhaseDomainError once the window leaves the topological phase
    reduced_g = np.vectorize(lambda a, b: reduce_rm(a, b, 0.0, L).g)

    def reduced_arrays(times):  # the one-cell chain with on-site +-u and bond g
        vals = schedule.values(times)
        column = np.shape(times) + (1,)
        p = {"u": np.reshape(vals["u"], column), "a": np.reshape(reduced_g(vals["a"], vals["b"]), column), "b": 0.0}
        return chain_arrays("rm", 1, p, np.shape(times))

    reduced = evolve(reduced_arrays, np.array([1.0, 0.0], dtype=np.complex128), t0, t1, cfg, n_records)

    pop_full = np.empty((full.times.size, 2))
    for i, t in enumerate(full.times):
        vals = schedule.values(t)
        pair = analytic_edge_states(vals["a"], vals["b"], L)
        pop_full[i, 0] = abs(np.vdot(pair.left, full.states[i])) ** 2
        pop_full[i, 1] = abs(np.vdot(pair.right, full.states[i])) ** 2
    pop_reduced = np.abs(reduced.states) ** 2
    dev = float(np.abs(pop_full - pop_reduced).max())
    return ReductionComparison(full.times, pop_full, pop_reduced, dev)


def reduction_report(a: float, b: float, u: float, L: int) -> dict:
    """Closed-form reduction next to the exact mid-gap splitting of the
    matching Rice-Mele chain; ``rel_err`` compares 2*sqrt(u^2+g^2) with it."""
    sys = reduce_rm(a, b, u, L)
    spectrum = eigendecompose(models.build_rice_mele(L, a, b, u))
    order = np.argsort(np.abs(spectrum.eigenvalues))
    pair = np.sort(spectrum.eigenvalues[order[:2]])
    exact_splitting = float(pair[1] - pair[0])
    model_splitting = 2.0 * float(np.hypot(sys.u, sys.g))
    rel_err = abs(model_splitting - exact_splitting) / exact_splitting if exact_splitting else np.inf
    lam = -a / b
    return {
        "u": float(u),
        "g": sys.g,
        "offset": sys.offset,
        "lambda": lam,
        "xi_norm_sq": coupling_ratio_norm_sq(lam, int(L)),
        "exact_splitting": exact_splitting,
        "rel_err": rel_err,
    }
