"""Experiment config parsing and validation.

Configs are JSON with a versioned ``schema`` field.  Validation is strict:
unknown keys are rejected, and every violation is collected and reported
with the offending key named, not just the first one found.  Each object's
keys are described once, in the tables below, and ``_walk`` checks an object
against its table; the checks that tie keys together follow the tables.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .couplings import DEFAULT_N_MAX, MAX_ARGUMENT
from .dynamics import MAGNUS_MAX_STEPS, METHODS, RECORDS_PER_CYCLE, IntegratorConfig
from .effective import LZPath
from .errors import InvalidParameterError, SchemaError
from .fluxcircuit import FluxQubitSpec
from .models import (
    FUNCTION_FORMS,
    MAX_DEVIATE,
    MODEL_KINDS,
    SCHEDULE_PARAMS,
    SITES_PER_CELL,
    FunctionSpec,
    Schedule,
    chain_arrays,
)

SCHEMA_VERSION = 1

# one flux-qubit point costs 0.35-0.57 s at both limits (20 levels of a
# 101^2-state charge basis); the solver also needs levels <= dimension - 2
FLUX_MAX_LEVELS = 20
FLUX_MAX_CHARGE_CUTOFF = 50

# a couplings run at both limits (n_max 100, 201 x 201 drive ratios) costs
# 0.6 s on 2 cores, most of it writing the 40,401-row CSV, and 33 MiB for
# the orders x grid array of the identical scheme; at n_max = 100 the
# dropped orders are below 1e-20 for every |alpha| < 50 the Bessel
# functions accept
COUPLINGS_MAX_N_MAX = 100
COUPLINGS_MAX_POINTS = 201

# sites of one chain: a static spectrum at 1000 sites takes 0.36 s and
# 96 MiB (its n x n eigenvectors and their copies) on 2 cores
MAX_SITES = 1000

# rows x sites of one trace, sweep or trajectory (rows are n_times, sweep
# points or n_records): 200 rows of 1000 sites take 17 s to diagonalize on
# 2 cores, and a 14-site RK4 quench with 14,285 records and amplitudes
# takes 2.2 s, most of it writing the CSV
MAX_ROW_SITES = 200_000

# RK4 steps of one integration, estimated as its time span over max_step;
# the Bell pump of criterion 13 (3 cycles of T = 1000 at dt 0.002) takes
# 1,500,000.  At 21 sites a step costs about 25 us on 2 cores, so a run at
# the budget takes about 50 s.  H(t) is evaluated RK4_CHUNK substeps at a
# time, so only the time grid of a record segment grows with its steps:
# 16 bytes a step, 31 MiB for one segment at the budget
RK4_MAX_STEPS = 2_000_000

# RK4 is stable for i dpsi/dt = H psi while max_step * ||H|| stays inside
# its stability interval on the imaginary axis, |z| <= 2*sqrt(2) = 2.83.
# ||H|| is bounded from the config by Gershgorin (see _integration)
RK4_STABILITY_LIMIT = 2.8

# BDF and Magnus work grows with the phase an integration accumulates, its
# time span times ||H|| (the Gershgorin bound above): BDF needs a few steps
# per oscillation of the state, Magnus a step count that grows with it.  At
# the bound, on 2 cores: a static 14-site SSH quench (t_final 10,000,
# ||H|| <= 2) takes 50 s and 720,845 right-hand sides under BDF, 0.03 s
# under Magnus (exact for a constant H); an lz arc at T = 10,000 takes
# 2.5 s and 102,200 Magnus steps.  The Bell pump (T = 1000, ||H|| <= 5.8)
# takes 6.2 s a cycle under BDF, and its three cycles in the acceptance
# suite reach 17,400: 5.5 s and 37,800 Magnus steps.  It also bounds the
# angle 2*pi*|frequency_multiple|*cycles a sin or cos term turns through,
# since each turn of H needs steps of its own: a 4-site rm pump at T = 10
# with its a and u terms at that angle takes 17 s and 254,160 right-hand
# sides under BDF, and 6.7 s and 102,400 Magnus steps
BDF_MAX_PHASE = 20_000

# magnitude of a range's ends (sweeps, drive ratios, flux biases):
# np.linspace forms stop - start, which overflows once the two magnitudes
# sum past the float range (1.8e308); below 1e300 the span stays finite.
# It also bounds each number that sets an entry of H (the chain parameters,
# function terms, disorder, LZ keys, flux keys): 1e308 bonds have
# eigenvalues beyond the float range, 1e300 bonds finite ones
MAX_RANGE_END = 1e300

# shortest time span (a schedule's T, an lz path's T, a quench's t_final):
# record and sample times are linspace(0, span, rows), at most
# MAX_ROW_SITES / 2 = 100,000 rows, so their step is a normal float and
# they increase strictly; a subnormal span repeats them
MIN_SPAN = 1e-300

@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    output: Optional[str] = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


class Bound(NamedTuple):
    """``value <op> limit``; a violation reads as the op's text in
    ``_BOUND_OPS``, then ", got <value>" if ``got``."""

    op: str
    limit: object
    got: bool = True


_BOUND_OPS = {
    ">": (operator.gt, "must be > {:g}"),
    ">=": (operator.ge, "must be >= {:g}"),
    "<=": (operator.le, "must be <= {:g}"),
    "in": (lambda value, limit: limit[0] <= value <= limit[1], "must be in {0[0]}..{0[1]}"),
    "below": (lambda value, limit: abs(value) < limit, "must have magnitude below {}"),
    "positive": (lambda value, limit: value >= limit, "must be a positive integer"),
}


@dataclass(frozen=True)
class Key:
    """One key of a table: its kind (a name in ``_KINDS`` or the table of a
    nested object), default, whether it is required, its choices or bounds,
    the choices of each item of a list (reported by ``item_error``) and the
    size or cost check it ``feeds``.  A nested object allows its ``extra``
    keys unchecked, adds ``hint`` to its not-an-object violation, and
    ``build(chk, ctx, values, ok)`` makes its value."""

    kind: object
    default: object = None
    required: bool = False
    choices: Optional[tuple] = None
    bounds: tuple = ()
    feeds: str = ""
    items: Optional[tuple] = None
    item_error: str = ""
    extra: tuple = ()
    hint: str = ""
    build: Optional[Callable] = None


_KINDS = {  # the test and the name of each kind of value
    "number": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}

# the schema: one table of keys per config object.  A key feeds "sites" or
# "rows" (MAX_SITES, MAX_ROW_SITES), the "span", "norm" or "step" of the
# integrators' cost models, or a command's own cost bounds
_POSITIVE = Bound(">", 0, got=False)
_SPAN = (_POSITIVE, Bound(">=", MIN_SPAN))
# a schedule's or an lz path's period T: a sin or cos term forms its angle
# 2*pi*f*t/T as 2*pi*f*t first, which T below 1e299 keeps below
# MAX_RANGE_END for every f up to 1 (see _angles_hold)
_PERIOD = Key("number", required=True, bounds=_SPAN + (Bound("below", 1e299),), feeds="span")
_MAGNITUDE = Bound("below", MAX_RANGE_END)
_RECORDS = Key("int", bounds=(Bound(">=", 2),), feeds="rows")
_CELLS = Key("int", required=True, bounds=(Bound(">=", 1),), feeds="sites")
_PARAM = Key("number", 0.0, required=True, bounds=(_MAGNITUDE,), feeds="norm")
_TERM = Key("number", 0.0, bounds=(_MAGNITUDE,), feeds="norm")

# the keys a form does not read: a const term is its offset, a linear one offset + amplitude * t/T
_UNREAD = {"const": ("amplitude", "frequency_multiple", "phase"), "linear": ("frequency_multiple", "phase")}


def _build_function(chk, ctx, v, ok):
    """The term's FunctionSpec; None if a key broke its bound or a key its
    form does not read is set off its default."""
    unread = [name for name in _UNREAD.get(v["form"], ()) if v[name] != FUNCTION.kind[name].default]
    chk += [f"key '{name}' in {ctx} has no effect on a '{v['form']}' term, got {v[name]}" for name in unread]
    return FunctionSpec(**v) if ok and not unread else None


def _angles_hold(chk: list, terms: dict, ctx: str, period: float, cycles: int) -> bool:
    """Whether the angle of each sin or cos term among ``terms`` stays below
    MAX_RANGE_END over ``cycles`` periods.  FunctionSpec.value forms
    2*pi*f*t before it divides by T, so that product and the angle must both
    stay below it at the last time t = T*cycles; the larger of the two is
    2*pi*|f|*cycles*max(T, 1).  Other values among ``terms`` are skipped."""
    count = len(chk)
    for name, fn in terms.items():
        if isinstance(fn, FunctionSpec) and fn.form in ("sin", "cos"):
            angle = 2.0 * math.pi * abs(fn.frequency_multiple) * cycles * max(period, 1.0)
            if not angle < MAX_RANGE_END:
                chk.append(f"key 'frequency_multiple' in {ctx}.{name} gives 2*pi*|frequency_multiple|*cycles*"
                           f"max(T, 1) = {angle:g}, which must be below {MAX_RANGE_END:g}")
    return len(chk) == count


FUNCTION = Key({
    "form": Key("str", required=True, choices=FUNCTION_FORMS),
    "offset": _TERM,
    "amplitude": _TERM,
    "frequency_multiple": Key("number", 1.0),
    "phase": Key("number", 0.0),
}, required=True, hint=" with a 'form' field", build=_build_function)


def _build_schedule(chk, ctx, v, ok):
    """{"schedule": Schedule or None, "L": cells}, the terms checked against
    the kind; a missing or non-integer L also reads as not positive."""
    if v["L"] is None:
        chk.append(f"key 'L' in {ctx} must be a positive integer")
    terms, terms_ok = {}, False
    if v["kind"] is not None:
        table = dict.fromkeys(SCHEDULE_PARAMS[v["kind"]], FUNCTION)
        where = f"{ctx}.params for kind '{v['kind']}'"
        terms, terms_ok = _walk(chk, v["params"], table, f"{ctx}.params", where=where)
        terms_ok = terms_ok and ok and _angles_hold(chk, terms, f"{ctx}.params", v["T"], v["cycles"])
    return {"schedule": Schedule(v["kind"], v["T"], terms, v["cycles"]) if ok and terms_ok else None, "L": v["L"]}


def _schedule(kinds, required=True) -> Key:
    return Key({
        "kind": Key("str", required=True, choices=kinds),
        "L": Key("int", required=True, bounds=(Bound("positive", 1, got=False),), feeds="sites"),
        "T": _PERIOD,
        "cycles": Key("int", 1, bounds=(Bound(">=", 1, got=False),), feeds="span, rows"),
        "params": Key("dict", {}, required=True),
    }, required=required, build=_build_schedule)


def _range(points_min: int, end_limit=MAX_RANGE_END, max_points=None, **key) -> Key:
    end = Key("number", required=True, bounds=(Bound("below", end_limit),))
    points = (Bound(">=", points_min, got=False),) + ((Bound("<=", max_points),) if max_points else ())
    table = {"start": end, "stop": end, "points": Key("int", required=True, bounds=points, feeds="rows")}
    return Key(table, hint=" {start, stop, points}", **key)


CONFIG = {
    "schema": Key("int", required=True),
    "command": Key("str", required=True),
    "seed": Key("int", 0),
    "output": Key("str"),
    "integrator": Key({
        "rel_tol": Key("number", IntegratorConfig.rel_tol, bounds=(_POSITIVE,)),
        "abs_tol": Key("number", IntegratorConfig.abs_tol, bounds=(_POSITIVE,)),
        "max_step": Key("number", bounds=(_POSITIVE,), feeds="step"),
        "method": Key("str", IntegratorConfig.method, choices=METHODS),
    }, IntegratorConfig(), build=lambda chk, ctx, v, ok: IntegratorConfig(**v) if ok else None),
}
# the tolerances a method does not read: RK4 takes fixed steps, and Magnus
# halves its steps until the Richardson estimate is within rel_tol
_UNREAD_TOLERANCES = {"rk4": ("rel_tol", "abs_tol"), "magnus": ("abs_tol",)}

# flat static-model parameters of each kind (omega is optional in an ssh
# chain); every kind is sized by its cells, L
MODEL = {
    "ssh": {"a": _PARAM, "b": _PARAM, "omega": _TERM},
    "rm": {"a": _PARAM, "b": _PARAM, "u": _PARAM},
    "trimer": dict.fromkeys(("a", "b", "c", "u", "v", "w"), _PARAM),
}
MODEL_KIND = Key("str", required=True, choices=MODEL_KINDS)

SPECTRUM_TRACE = {
    "schedule": _schedule(MODEL_KINDS),
    "n_times": Key("int", 201, bounds=(Bound(">=", 2, got=False),), feeds="rows"),
}
# a static model's spectrum: one diagonalization, whose edge states it may
# export, or a sweep of one parameter, which exports none
SPECTRUM_STATIC = {"export_states": Key("str", choices=("edge",))}
SPECTRUM_SWEEP = {
    "sweep": Key({"param": Key("str", required=True), **_range(2).kind}, hint=" {param, start, stop, points}"),
}

PUMP = {"schedule": _schedule(MODEL_KINDS), "n_records": _RECORDS}

QUENCH = {
    "t_final": Key("number", required=True, bounds=_SPAN, feeds="span"),
    "flip_site": Key("int", 1),
    "n_records": Key("int", 201, bounds=_RECORDS.bounds, feeds="rows"),
    # drawn from the config's seed on both the sites and the bonds
    "disorder": Key({
        "sigma": Key("number", required=True, bounds=(Bound(">=", 0, got=False), _MAGNITUDE), feeds="norm"),
    }, build=lambda chk, ctx, v, ok: v if ok else None),
}

# an lz path: the keys of every type, and whether they are usable; _lz
# checks the keys of its type and builds the LZPath
LZ_PATH = Key({
    "type": Key("str", required=True, choices=("arc", "line", "line_at_angle", "custom")),
    "T": _PERIOD,
    "n_samples": Key("int", 201, bounds=(Bound(">=", 3),), feeds="rows"),
}, extra=("alpha", "theta", "u", "g"), build=lambda chk, ctx, v, ok: (v, ok))
_ALPHA = Key("number", required=True, bounds=(_MAGNITUDE,), feeds="norm")
LZ_PATH_TYPES = {  # the path keys of each type, in the order its constructor takes them
    "arc": {"alpha": _ALPHA},
    "line": {"alpha": _ALPHA},
    "line_at_angle": {"alpha": _ALPHA, "theta": Key("number", required=True, bounds=(_MAGNITUDE,), feeds="norm")},
    "custom": {"u": FUNCTION, "g": FUNCTION},
}
_LZ_PATHS = {  # the constructor of each type: its keys, then T and n_samples
    "arc": LZPath.arc,
    "line": LZPath.line,
    "line_at_angle": LZPath.line_at_angle,
    "custom": LZPath.from_functions,
}
LZ = {
    "initial_state": Key("str", "L", choices=("L", "R")),
    "n_records": QUENCH["n_records"],
    "path": LZ_PATH,
    "from_schedule": _schedule(("rm",), required=False),
}
# the lz keys a run reads only beside one of the parts named: the path's
# integration
LZ_READ_WITH = {"initial_state": ("path",), "n_records": ("path",)}

TRIMER = {
    "schedule": _schedule(("trimer",)),
    "signs": Key("list", ("plus", "minus"), items=("plus", "minus"),
                 item_error="unknown Bell sign {item!r} in {ctx}.signs"),
    "n_records": _RECORDS,
}

COUPLINGS = {
    "scheme": Key("str", "identical", choices=("identical", "matched")),
    "n_max": Key("int", DEFAULT_N_MAX, bounds=(Bound("in", (0, COUPLINGS_MAX_N_MAX)),), feeds="couplings cost"),
    "bare_a": Key("number", 1.0),
    "bare_b": Key("number", 1.0),
    **dict.fromkeys(("alpha1", "alpha2"), _range(1, MAX_ARGUMENT, COUPLINGS_MAX_POINTS, required=True)),
}

# the circuit is FluxQubitSpec's; a config sets only its charge basis
FLUX = {
    "spec": Key({
        "charge_cutoff": Key("int", bounds=(Bound("in", (1, FLUX_MAX_CHARGE_CUTOFF)),), feeds="flux cost"),
    }),
}
# the level sweep at one f_alpha, or the gap sweep over f_alpha (two
# levels a point); a run reads only its own sweep's keys
FLUX_LEVELS = {
    "f_alpha": Key("number", required=True, bounds=(_MAGNITUDE,)),
    "f_eps_range": _range(1, default={"start": -0.05, "stop": 0.05, "points": 41}),
    "levels": Key("int", 5, feeds="flux cost"),
}
FLUX_GAP = {"f_alpha_sweep": _range(2, required=True)}


def _walk(chk: list, obj: dict, keys: dict, ctx: str, extra=(), where=None):
    """Check ``obj`` against the table ``keys``, adding violations to
    ``chk``: keys outside the table and ``extra`` are unknown (unless
    ``extra`` is None), then each table key is taken in order.  Returns the
    values and whether every required key was usable and every bound held;
    ``where`` replaces ``ctx`` in the unknown- and missing-key messages."""
    where = where or ctx
    if extra is not None:
        chk += [f"unknown key '{key}' in {where}" for key in obj if key not in keys and key not in extra]
    values, ok = {}, True
    for name, key in keys.items():
        values[name], usable = _take(chk, obj, name, key, ctx, where)
        ok = ok and usable
    return values, ok


def _take(chk: list, obj: dict, name: str, key: Key, ctx: str, where: str):
    """The value of key ``name`` in ``obj`` and whether it is usable.  A value
    of the wrong kind or outside the choices reads as the default; one that
    breaks a bound (the first is reported) is kept for the cross-key checks."""
    if name not in obj:
        if key.required:
            chk.append(f"missing required key '{name}' in {where}")
            return key.default, False
        if not isinstance(key.default, dict):  # a default object is checked like a given one
            return key.default, True
    value = obj.get(name, key.default)
    if isinstance(key.kind, dict):
        if not isinstance(value, dict):
            chk.append(f"{ctx}.{name} must be an object{key.hint}")
            return None, False
        values, ok = _walk(chk, value, key.kind, f"{ctx}.{name}", key.extra)
        if key.build:  # a build that gives None found the object unusable
            values = key.build(chk, f"{ctx}.{name}", values, ok)
        return values, ok and values is not None
    is_kind, kind_name = _KINDS[key.kind]
    if key.kind == "number" and is_kind(value):  # an integer beyond the float range reads as inf
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not is_kind(value):
        error = f"must be {kind_name}"
    elif key.kind == "number" and not math.isfinite(value):
        error = "must be finite"
    elif key.choices is not None and value not in key.choices:
        error = f"must be one of {sorted(key.choices)}, got {value!r}"
    else:
        bounds_hold = all(_check_bound(chk, name, ctx, value, bound) for bound in key.bounds)
        bad_items = [item for item in value if item not in key.items] if key.items else []
        chk += [key.item_error.format(item=item, ctx=ctx) for item in bad_items]
        return value, bounds_hold and not bad_items
    chk.append(f"key '{name}' in {ctx} {error}")
    return key.default, not key.required


def _check_bound(chk: list, name: str, ctx: str, value, bound: Bound) -> bool:
    test, text = _BOUND_OPS[bound.op]
    holds = test(value, bound.limit)
    if not holds:
        got = f", got {value}" if bound.got else ""
        chk.append(f"key '{name}' in {ctx} {text.format(bound.limit)}{got}")
    return holds


def _sites(kind: Optional[str], count: Optional[int]) -> Optional[int]:
    """Sites of a chain of ``count`` cells."""
    return None if kind is None or count is None else SITES_PER_CELL[kind] * count


def _chain_sites(chain: dict) -> Optional[int]:
    """Sites of a schedule's chain, {"schedule": Schedule or None, "L": cells}."""
    return _sites(chain["schedule"] and chain["schedule"].kind, chain["L"])


def _check_site(chk: list, site: Optional[int], n_sites: Optional[int], key: str, ctx: str):
    if site is not None and n_sites is not None and n_sites >= 1:
        _check_bound(chk, key, ctx, site, Bound("in", (1, n_sites)))


def _check_size(chk: list, sites: Optional[int], sites_key: str, rows: Optional[int] = None,
                rows_key: str = "") -> bool:
    """Bound a chain's sites and its table's rows x sites, and return whether
    both hold; each key is named with its context, e.g. "'L' in command
    'pump'.schedule"."""
    count = len(chk)
    if sites is not None and sites > MAX_SITES:
        chk.append(f"key {sites_key} gives {sites:,} sites, more than the bound of {MAX_SITES:,}")
    if sites is not None and rows is not None and rows * sites > MAX_ROW_SITES:
        chk.append(f"key {rows_key} asks for {rows:,} rows of {sites:,} sites, "
                   f"more than the bound of {MAX_ROW_SITES:,} values")
    return len(chk) == count


def _model(chk: list, cfg: dict, ctx: str, table: dict, where=None):
    """The flat static-model keys (kind, the kind's parameters, L; the other
    kinds' keys are unknown), then the command's ``table``.  Returns the
    model, its sites, the table's values and whether they are usable;
    ``where`` replaces ``ctx`` in the unknown- and missing-key messages."""
    kind = cfg.get("kind")
    params = MODEL[kind] if isinstance(kind, str) and kind in MODEL else {}
    allowed = _COMMON + tuple(table) + tuple(params) + ("L",)
    kind = _walk(chk, cfg, {"kind": MODEL_KIND}, ctx, allowed, where)[0]["kind"]
    model = None
    if kind is not None:
        model = {"kind": kind, "params": _walk(chk, cfg, params, f"{ctx} (kind '{kind}')", extra=None)[0],
                 "L": _take(chk, cfg, "L", _CELLS, ctx, ctx)[0]}
    sites = _sites(kind, model and model["L"])
    return (model, sites, *_walk(chk, cfg, table, ctx, extra=None))


def _pump(chk: list, cfg: dict, ctx: str, table: dict) -> dict:
    """The pump and trimer commands: states pumped along the schedule."""
    v = _walk(chk, cfg, table, ctx, _COMMON)[0]
    chain = v.pop("schedule") or _NO_CHAIN
    sites = _chain_sites(chain)
    if chain["schedule"] is not None:  # without n_records, the rows follow from the cycles
        rows = v["n_records"] or RECORDS_PER_CYCLE * chain["schedule"].cycles + 1
        rows_key = f"'n_records' in {ctx}" if v["n_records"] else f"'cycles' in {ctx}.schedule"
        _check_size(chk, sites, f"'L' in {ctx}.schedule", rows, rows_key)
    if "signs" in v:
        signs = v["signs"] = tuple(v["signs"])
        if not signs or any(sign in signs[:i] for i, sign in enumerate(signs)):
            chk.append(f"key 'signs' in {ctx} must list one or two distinct Bell signs, got {list(signs)}")
    return {**chain, **v}


def _spectrum(chk: list, cfg: dict, ctx: str) -> dict:
    if "schedule" in cfg:
        v = _walk(chk, cfg, SPECTRUM_TRACE, ctx, _COMMON)[0]
        chain = v.pop("schedule") or _NO_CHAIN
        _check_size(chk, _chain_sites(chain), f"'L' in {ctx}.schedule", v["n_times"], f"'n_times' in {ctx}")
        return {"mode": "trace", **chain, **v}
    mode = "sweep" if "sweep" in cfg else "static"
    table, where = (SPECTRUM_SWEEP, f"{ctx} with 'sweep'") if mode == "sweep" else (SPECTRUM_STATIC, ctx)
    model, sites, v, usable = _model(chk, cfg, ctx, table, where)
    options = {"mode": mode, "model": model}
    sweep = v.get("sweep")
    if sweep is not None:
        name = options["sweep_param"] = sweep.pop("param")
        options["sweep"] = sweep
        if model is not None and name is not None and name not in model["params"]:
            chk.append(f"sweep parameter {name!r} is not a model parameter of kind '{model['kind']}'")
    _check_size(chk, sites, f"'L' in {ctx}", sweep and sweep["points"], f"'points' in {ctx}.sweep")
    # the runner lays a sweep's points out with linspace, and a trace needs them to increase strictly
    ends = (sweep["start"], sweep["stop"]) if sweep is not None and usable else None
    if ends and not np.all(np.diff(np.linspace(*ends, min(sweep["points"], MAX_ROW_SITES))) > 0):
        chk.append(f"key 'stop' in {ctx}.sweep must exceed 'start' for {sweep['points']} increasing points, got {ends}")
    if "export_states" in cfg:
        options["export_states"] = v.get("export_states")
    return options


def _quench(chk: list, cfg: dict, ctx: str) -> dict:
    model, sites, v, _ = _model(chk, cfg, ctx, QUENCH)
    _check_site(chk, v["flip_site"], sites, "flip_site", ctx)
    _check_size(chk, sites, f"'L' in {ctx}", v["n_records"], f"'n_records' in {ctx}")
    return {"model": model, **v}


def _lz(chk: list, cfg: dict, ctx: str) -> dict:
    options = _walk(chk, cfg, LZ, ctx, _COMMON)[0]
    path, chain = options.pop("path"), options.pop("from_schedule")
    if "path" not in cfg and "from_schedule" not in cfg:
        chk.append(f"{ctx} needs one of 'path' or 'from_schedule'")
    chk += [f"key '{name}' in {ctx} is read only with {' or '.join(map(repr, parts))}"
            for name, parts in LZ_READ_WITH.items() if name in cfg and not any(part in cfg for part in parts)]
    if path is not None:
        path, usable = path
        # 2 sites: only rows (records, path samples) can exceed
        _check_size(chk, 2, "", options["n_records"], f"'n_records' in {ctx}")
        usable &= _check_size(chk, 2, "", path["n_samples"], f"'n_samples' in {ctx}.path")
        typed, typed_ok = _walk(chk, cfg["path"], LZ_PATH_TYPES.get(path["type"], {}), f"{ctx}.path", extra=None)
        # sampled here, so only once its size and its terms' angles hold
        if usable and typed_ok and _angles_hold(chk, typed, f"{ctx}.path", path["T"], 1):
            try:
                options["path"] = _LZ_PATHS[path["type"]](*typed.values(), path["T"], path["n_samples"])
            except InvalidParameterError as exc:  # path C: g = tan(theta) * u beyond the float range
                chk.append(f"key 'theta' in {ctx}.path makes g = tan(theta) * u non-finite ({exc})")
    if "from_schedule" in cfg:
        options["from_schedule"] = chain or _NO_CHAIN
    return options


def _fluxqubit(chk: list, cfg: dict, ctx: str) -> dict:
    table, where = (FLUX_GAP, f"{ctx} with 'f_alpha_sweep'") if "f_alpha_sweep" in cfg else (FLUX_LEVELS, ctx)
    v = _walk(chk, cfg, {**FLUX, **table}, ctx, _COMMON, where)[0]
    spec = {name: value for name, value in (v.pop("spec") or {}).items() if value is not None}
    cutoff = spec.get("charge_cutoff", FluxQubitSpec.charge_cutoff)
    max_levels = min(FLUX_MAX_LEVELS, (2 * cutoff + 1) ** 2 - 2 if cutoff >= 1 else FLUX_MAX_LEVELS)
    if v.get("levels") is not None:
        _check_bound(chk, "levels", ctx, v["levels"], Bound("in", (1, max_levels)))
    return {"spec_kwargs": spec, **v}


def _couplings(chk: list, cfg: dict, ctx: str) -> dict:
    v = _walk(chk, cfg, COUPLINGS, ctx, _COMMON)[0]
    if "n_max" in cfg and v["scheme"] == "matched":  # J0 J1 is a closed form, no series to cut
        chk.append(f"key 'n_max' in {ctx} is read only by the 'identical' scheme")
    return v


_COMMON = tuple(CONFIG)
_NO_CHAIN = {"schedule": None, "L": None}
COMMANDS = {  # the parser of each command's options
    "spectrum": _spectrum,
    "pump": lambda chk, cfg, ctx: _pump(chk, cfg, ctx, PUMP),
    "quench": _quench,
    "lz": _lz,
    "trimer": lambda chk, cfg, ctx: _pump(chk, cfg, ctx, TRIMER),
    "couplings": _couplings,
    "fluxqubit": _fluxqubit,
}


def _function_bound(fn: FunctionSpec, cycles: int) -> float:
    """Bound on |fn(t)| over ``cycles`` periods: a linear term's larger end
    value, else |offset| + |amplitude| (a const term's amplitude is 0)."""
    if fn.form == "linear":
        return max(abs(fn.offset), abs(fn.offset + fn.amplitude * cycles))
    return abs(fn.offset) + abs(fn.amplitude)


def _row_sum_bound(kind: str, size: int, params: dict, deviate: float = 0.0) -> Optional[float]:
    """The largest absolute row sum of the chain that chain_arrays lays out,
    ``deviate`` added to the magnitude of each entry; None if an entry is
    not a number."""
    with np.errstate(all="ignore"):  # entries set by out-of-bound keys, already named, may overflow
        diag, off = chain_arrays(kind, size, params)
        rows = np.abs(diag) + deviate
        bonds = np.zeros(rows.size + 1)
        bonds[1:-1] = np.abs(off) + deviate
        bound = float(np.max(rows + (bonds[:-1] + bonds[1:])))
    return None if math.isnan(bound) else bound


def _integration(command: Optional[str], options: dict):
    """(span, span_key, bound, turn): the time span of each integration the
    command runs, the key that sets it, a bound on ||H(t)|| over it, and
    the largest angle 2*pi*|frequency_multiple|*cycles of a schedule's sin
    or cos terms with the key of its term; each is None where the config
    lacks it or, for the turn, has no such term, all four if the command
    integrates nothing.  The bound is Gershgorin's, the largest absolute
    row sum of the chain that chain_arrays lays out: a schedule's on
    min(L, 2) cells (two cells hold every row of a longer chain), each term
    at its _function_bound; a quench's at its own entries, MAX_DEVIATE *
    sigma added to each for its disorder, once its size holds
    (2..MAX_SITES sites).  An lz path is the schedule of the one-cell
    Rice-Mele chain, so its H = [[u, g], [g, -u]] is bounded as a
    schedule's, at L = 1."""
    schedule, L, key = options.get("schedule"), options.get("L"), "schedule"
    if command == "lz" and "path" in options:
        schedule, L, key = options["path"].schedule, 1, "path"
    if command in ("pump", "trimer", "lz") and schedule is not None:
        terms = {name: _function_bound(fn, schedule.cycles) for name, fn in schedule.params.items()}
        bound = _row_sum_bound(schedule.kind, min(L, 2), terms)
        # an lz path's g is the one-cell chain's bond a
        turns = [(2.0 * math.pi * abs(fn.frequency_multiple) * schedule.cycles,
                  f"command '{command}'.path.{'g' if name == 'a' else name}" if key == "path"
                  else f"command '{command}'.schedule.params.{name}")
                 for name, fn in schedule.params.items() if fn.form in ("sin", "cos")]
        return schedule.total_time, f"'T' in command '{command}'.{key}", bound, max(turns, default=None)
    if command == "quench":
        model, disorder, bound = options["model"], options["disorder"], None
        L = model and model["L"]
        if L is not None and 2 <= _sites(model["kind"], L) <= MAX_SITES:  # a size out of bounds is not laid out
            deviate = MAX_DEVIATE * disorder["sigma"] if disorder is not None else 0.0
            bound = _row_sum_bound(model["kind"], L, model["params"], deviate)
        return options["t_final"], "'t_final' in command 'quench'", bound, None
    return None, None, None, None


def _check_integration(chk: list, integrator: IntegratorConfig, span: Optional[float], span_key: Optional[str],
                       bound: Optional[float], turn: Optional[tuple]):
    """The integrator's cost over the span: RK4's and Magnus's step budgets,
    RK4's stability at ||H||, and the phase span x ||H|| and the terms'
    turn of BDF and Magnus."""
    method = integrator.method
    name = {"rk4": "RK4", "bdf": "BDF", "magnus": "Magnus"}[method]
    # Magnus halves its steps at least once, so a max_step it starts from
    # costs three times span / max_step
    step, passes, budget = {"rk4": (integrator.rk4_step, 1.0, RK4_MAX_STEPS),
                            "magnus": (integrator.max_step, 3.0, MAGNUS_MAX_STEPS)}.get(method, (None, 0.0, 0))
    if span is not None and span > 0 and step is not None:
        steps = passes * span / step
        if steps > budget:
            chk.append(
                f"key 'max_step' in config.integrator: {name} over t = {span:g} would take about "
                f"{steps:.3g} steps, more than the budget of {budget:,}"
            )
    if method != "rk4" and turn is not None and not turn[0] <= BDF_MAX_PHASE:
        chk.append(
            f"key 'frequency_multiple' in {turn[1]}: {name} follows the term through an angle "
            f"2*pi*|frequency_multiple|*cycles of {turn[0]:.6g}, more than the bound of {BDF_MAX_PHASE:,}"
        )
    if bound is None:
        return
    if method == "rk4" and not integrator.rk4_step * bound <= RK4_STABILITY_LIMIT:
        chk.append(
            f"key 'max_step' in config.integrator: RK4 at step {integrator.rk4_step:g} with ||H|| up to "
            f"{bound:.3g} is unstable; max_step * ||H|| must be <= {RK4_STABILITY_LIMIT}"
        )
    if method != "rk4" and span is not None and not span * bound <= BDF_MAX_PHASE:
        chk.append(
            f"key {span_key}: {name} over t = {span:g} with ||H|| up to {bound:.3g} accumulates a phase of "
            f"{span * bound:.6g}, more than the bound of {BDF_MAX_PHASE:,}; shorten the run or lower the couplings"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Validate JSON config text; raises SchemaError listing every violation."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise SchemaError(["config must be a JSON object"])

    chk = []
    top = _walk(chk, cfg, CONFIG, "config", extra=None)[0]
    schema, command = top["schema"], top["command"]
    if schema is not None and schema != SCHEMA_VERSION:
        chk.append(f"unsupported schema version {schema}; this tool reads version {SCHEMA_VERSION}")
    output = top["output"]
    if output is not None and (output in ("", ".", "..") or "\0" in output or os.path.basename(output) != output):
        # the runner writes <output>.csv and its manifest into the output directory
        chk.append(f"key 'output' in config must be a plain file name, got {output!r}")
    if command is not None and command not in COMMANDS:
        chk.append(f"unknown command {command!r}; expected one of {list(COMMANDS)}")
        raise SchemaError(chk)
    integrator = top["integrator"] or IntegratorConfig()
    given = cfg.get("integrator") if isinstance(cfg.get("integrator"), dict) else {}
    if command == "pump" and "method" not in given:
        # `pump` alone keeps BDF as its default: perfbench/oracles.py pins the
        # `pumping` fidelity to BDF's 0.5290788742 within 1e-6, and the
        # converged value, 0.52907785017 (Magnus, RK4 at dt 0.002, tight
        # BDF), is 1.024e-6 away.  Re-pinning the benchmark removes this
        integrator = replace(integrator, method="bdf")
    options = {}
    if command is not None:
        options = COMMANDS[command](chk, cfg, f"command '{command}'")
        _check_integration(chk, integrator, *_integration(command, options))
    integrates = command in ("pump", "quench", "trimer") or command == "lz" and "path" in cfg
    if "integrator" in cfg and command is not None and not integrates:
        chk.append(f"key 'integrator' in config is read only by a run that integrates: pump, quench, trimer, "
                   f"or lz with 'path'; command '{command}' integrates nothing")
    else:  # the method as given, so that a violation elsewhere in the block does not hide it
        method = given.get("method", integrator.method)
        unread = _UNREAD_TOLERANCES.get(method, ()) if method in METHODS else ()
        chk += [f"key '{name}' in config.integrator is not read by method '{method}'" for name in unread if name in given]
    if chk:
        raise SchemaError(chk)
    return ExperimentConfig(command, top["seed"], top["output"], integrator, options, cfg)
