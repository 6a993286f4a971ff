"""Single-excitation chain Hamiltonians, drive schedules and disorder.

Units: hbar = 1 and the strong coupling b = 1 set the energy scale; time is
measured in 1/b.  Sites are 1-based in documentation and file output,
0-based in arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np
from numpy.random import Philox

from .errors import InvalidDimensionError, InvalidParameterError

MODEL_KINDS = ("ssh", "rm", "trimer")
SCHEDULE_PARAMS = {"ssh": ("a", "b"), "rm": ("a", "b", "u"), "trimer": ("a", "b", "c", "u", "v", "w")}
SITES_PER_CELL = {"ssh": 2, "rm": 2, "trimer": 3}

FUNCTION_FORMS = ("const", "sin", "cos", "linear")


def chain_arrays(kind: str, size: int, p: Mapping, shape: tuple = ()):
    """Diagonal and bonds of a chain of ``size`` cells from its parameters.

    This is the one layout of every chain kind: a static model passes scalars,
    the schedule evaluator and the sweeps pass scalars or arrays of shape
    ``shape + (1,)`` so that each leading index is one time or sweep point.
    """
    n = SITES_PER_CELL[kind] * size
    diag = np.empty(shape + (n,))
    off = np.empty(shape + (n - 1,))
    if kind == "trimer":
        for i, (site, bond) in enumerate((("u", "a"), ("v", "b"), ("w", "c"))):
            diag[..., i::3] = p[site]
            off[..., i::3] = p[bond]
        return diag, off
    if kind == "ssh":
        diag[...] = p.get("omega", 0.0)
    else:
        diag[..., 0::2] = p["u"]
        diag[..., 1::2] = -p["u"]
    off[..., 0::2] = p["a"]
    off[..., 1::2] = p["b"]
    return diag, off


def max_row_sum(diag, off) -> float:
    """The largest absolute row sum of the chains ``diag[..., n]``,
    ``off[..., n-1]`` (Gershgorin's bound on ||H||), each row summed as
    |diag| + |left bond| + |right bond|."""
    rows = np.abs(diag)
    rows[..., 1:] += np.abs(off)
    rows[..., :-1] += np.abs(off)
    return float(rows.max())


# ---------------------------------------------------------------------------
# Disorder
# ---------------------------------------------------------------------------


# the largest |deviate| _gaussian_draws returns: ndtri of the smallest
# uniform it forms, 2^-54, is -8.29; the largest, 1 - 2^-53, gives 8.21.
# A literal, so that importing the package does not load scipy.special;
# tests/test_coldstart.py checks it against ndtri
MAX_DEVIATE = 8.292361075813597


def _gaussian_draws(seed: int, tag: int, count: int) -> np.ndarray:
    from scipy.special import ndtri

    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)], dtype=np.uint64)
    raw = Philox(key=key).random_raw(count)
    uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    # a draw whose top 53 bits are all ones rounds to 1.0, whose deviate is +inf
    return ndtri(np.minimum(uniform, np.nextafter(1.0, 0.0)))


def apply_disorder(diag, off, sigma: float, seed: int):
    """Copies of a chain's sites and bonds with independent Gaussian noise of
    standard deviation sigma (units of b) added to each; the inputs are untouched.

    Draws are reproducible and order-independent: entry i of the sites (tag
    0) or of the bonds (tag 1) reads stream position i of a Philox
    counter-based generator keyed by (seed, tag), and is mapped to a normal
    deviate by the inverse CDF (uniform in (0,1) from the top 53 bits of the
    raw draw, at most 1 - 2^-53).
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    diag, off = np.array(diag, dtype=np.float64), np.array(off, dtype=np.float64)
    if sigma > 0:
        diag += sigma * _gaussian_draws(seed, 0, diag.size)
        if off.size:
            off += sigma * _gaussian_draws(seed, 1, off.size)
    return diag, off


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """One primitive scalar term of a pump schedule.

    value(t) = offset + amplitude * f(2*pi*frequency_multiple*t/T + phase)
    with f in {sin, cos}; "const" is offset alone and "linear" is
    offset + amplitude*(t/T).
    """

    form: str
    offset: float = 0.0
    amplitude: float = 0.0
    frequency_multiple: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.form not in FUNCTION_FORMS:
            raise InvalidParameterError(f"unknown function form {self.form!r}")
        for name in ("offset", "amplitude", "frequency_multiple", "phase"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")

    def value(self, t, period: float):
        """The term at time ``t``, elementwise when ``t`` is an array."""
        if self.form == "const":
            return np.full(np.shape(t), self.offset) if np.ndim(t) else self.offset
        if self.form == "linear":
            return self.offset + self.amplitude * (t / period)
        x = 2.0 * np.pi * self.frequency_multiple * t / period + self.phase
        f = np.sin(x) if self.form == "sin" else np.cos(x)
        return self.offset + self.amplitude * f

    def to_dict(self) -> dict:
        """The term as a config reads it: its form and the fields that differ from their defaults."""
        changed = {f.name: getattr(self, f.name) for f in fields(self)[1:] if getattr(self, f.name) != f.default}
        return {"form": self.form, **changed}


def const(value: float) -> FunctionSpec:
    return FunctionSpec("const", offset=value)


@dataclass(frozen=True)
class Schedule:
    """Named periodic parameter functions over one pump period T."""

    kind: str
    period: float
    params: Mapping[str, FunctionSpec] = field(default_factory=dict)
    cycles: int = 1

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidParameterError(f"unknown schedule kind {self.kind!r}")
        if not (np.isfinite(self.period) and self.period > 0):
            raise InvalidParameterError(f"period must be > 0, got {self.period}")
        if int(self.cycles) < 1:
            raise InvalidParameterError(f"cycles must be >= 1, got {self.cycles}")
        object.__setattr__(self, "cycles", int(self.cycles))
        required = set(SCHEDULE_PARAMS[self.kind])
        got = set(self.params)
        missing = required - got
        extra = got - required
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing parameters {sorted(missing)}")
            if extra:
                parts.append(f"unexpected parameters {sorted(extra)}")
            raise InvalidParameterError(f"schedule for kind {self.kind!r}: " + ", ".join(parts))
        object.__setattr__(self, "params", dict(self.params))

    @property
    def total_time(self) -> float:
        return self.cycles * self.period

    def values(self, t) -> dict:
        return {name: fn.value(t, self.period) for name, fn in self.params.items()}

    def to_dict(self, L: int) -> dict:
        """The schedule on a chain of L cells as a config's ``schedule`` key
        reads it; ``config.parse_config`` gives back an equal Schedule."""
        params = {name: fn.to_dict() for name, fn in sorted(self.params.items())}
        return {"kind": self.kind, "L": L, "T": self.period, "cycles": self.cycles, "params": params}


def schedule_arrays(schedule: Schedule, L: int, times, layout=chain_arrays):
    """H(t) of the schedule on the chain of L cells: (diag[k, n], off[k, n-1])
    for a 1-D array of k times, (diag[n], off[n-1]) for a single time.
    ``layout`` is ``chain_arrays``, the full chain, or a function of the same
    signature: ``effective.reduced_arrays`` gives the reduced H(t)."""
    L = int(L)
    if L < 1:
        raise InvalidDimensionError(f"cell count must be >= 1, got {L}")
    vals = schedule.values(times)
    shape = np.shape(times)
    if shape:
        vals = {name: v[..., np.newaxis] for name, v in vals.items()}
    return layout(schedule.kind, L, vals, shape)


# Pump sequences used throughout the figures.


def pump_schedule(period: float = 100.0, cycles: int = 1) -> Schedule:
    """Plain pump: a(t) = 1 - cos(2*pi*t/T), b = 1, u(t) = sin(2*pi*t/T)."""
    return Schedule(
        "rm",
        period,
        {
            "a": FunctionSpec("cos", offset=1.0, amplitude=-1.0),
            "b": const(1.0),
            "u": FunctionSpec("sin", amplitude=1.0),
        },
        cycles,
    )


def optimized_schedule(period: float = 100.0, cycles: int = 1) -> Schedule:
    """Gap-preserving pump: a(t) = 0.5*(1 - cos), u(t) = 0.25*sin, b = 1."""
    return Schedule(
        "rm",
        period,
        {
            "a": FunctionSpec("cos", offset=0.5, amplitude=-0.5),
            "b": const(1.0),
            "u": FunctionSpec("sin", amplitude=0.25),
        },
        cycles,
    )


def bell_transfer_schedule(period: float = 1000.0, cycles: int = 1) -> Schedule:
    """Trimer Bell-state transfer: a = b = 1 - 0.9*cos(2*pi*t/T), c = 1,
    v = 2, u = 1 + cos(pi*t/T), w = 1 - cos(pi*t/T).

    u and w exchange over one period (half-frequency cosine), so the
    schedule repeats only every second cycle."""
    ab = FunctionSpec("cos", offset=1.0, amplitude=-0.9)
    return Schedule(
        "trimer",
        period,
        {
            "a": ab,
            "b": ab,
            "c": const(1.0),
            "u": FunctionSpec("cos", offset=1.0, amplitude=1.0, frequency_multiple=0.5),
            "v": const(2.0),
            "w": FunctionSpec("cos", offset=1.0, amplitude=-1.0, frequency_multiple=0.5),
        },
        cycles,
    )
