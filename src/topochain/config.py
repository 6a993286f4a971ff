"""Experiment config parsing and validation.

Configs are JSON with a versioned ``schema`` field.  Validation is strict:
unknown keys are rejected, and every violation is collected and reported
with the offending key named, not just the first one found.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .couplings import DEFAULT_N_MAX, MAX_ARGUMENT
from .dynamics import RECORDS_PER_CYCLE, IntegratorConfig
from .errors import SchemaError
from .fluxcircuit import FluxQubitSpec
from .models import (
    FUNCTION_FORMS,
    MAX_DEVIATE,
    MODEL_KINDS,
    SCHEDULE_PARAMS,
    SITES_PER_CELL,
    FunctionSpec,
    Schedule,
)

SCHEMA_VERSION = 1
COMMANDS = ("spectrum", "pump", "quench", "lz", "trimer", "couplings", "fluxqubit")

# flat model-parameter keys per kind; 'omega' is optional for ssh chains
MODEL_PARAM_KEYS = {
    "ssh": ("a", "b", "omega"),
    "rm": ("a", "b", "u"),
    "trimer": ("a", "b", "c", "u", "v", "w"),
    "aah": ("omega", "alpha", "phase", "hop"),
}

_COMMON_KEYS = ("schema", "command", "seed", "output", "integrator")

# one flux-qubit point costs 1-2 s at both limits (20 levels of a
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
# ||H|| is bounded from the config by Gershgorin: the largest on-site
# magnitude plus the two largest bond magnitudes, each parameter at
# |offset| + |amplitude| over the run, disorder at MAX_DEVIATE * sigma
RK4_STABILITY_LIMIT = 2.8

# BDF work grows with the phase an integration accumulates, its time span
# times ||H|| (the Gershgorin bound above): BDF needs a few steps per
# oscillation of the state.  A static 14-site SSH quench at the bound
# (t_final 10,000, ||H|| <= 2) takes 50 s and 720,845 right-hand sides on 2
# cores; the Bell pump (T = 1000, ||H|| <= 5.8) takes 6.2 s a cycle, and its
# three cycles in the acceptance suite reach 17,400
BDF_MAX_PHASE = 20_000

# (on-site, bond) parameters of each chain kind; a site's two bonds are
# two of the bond parameters, both 'hop' in the AAH chain
_DIAG_BOND_PARAMS = {
    "ssh": (("omega",), ("a", "b")),
    "rm": (("u",), ("a", "b")),
    "trimer": (("u", "v", "w"), ("a", "b", "c")),
    "aah": (("omega",), ("hop", "hop")),
}


@dataclass
class ExperimentConfig:
    command: str
    seed: int = 0
    output: Optional[str] = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    options: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


class _Checker:
    def __init__(self):
        self.violations = []

    def fail(self, message: str):
        self.violations.append(message)

    def reject_unknown(self, obj: dict, allowed, ctx: str):
        for key in obj:
            if key not in allowed:
                self.fail(f"unknown key '{key}' in {ctx}")

    def take(self, obj: dict, key: str, ctx: str, required=False, kind=None, default=None, choices=None):
        if key not in obj:
            if required:
                self.fail(f"missing required key '{key}' in {ctx}")
            return default
        value = obj[key]
        if kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.fail(f"key '{key}' in {ctx} must be a number")
                return default
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                self.fail(f"key '{key}' in {ctx} must be finite")
                return default
        elif kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                self.fail(f"key '{key}' in {ctx} must be an integer")
                return default
        elif kind == "str":
            if not isinstance(value, str):
                self.fail(f"key '{key}' in {ctx} must be a string")
                return default
        elif kind == "dict":
            if not isinstance(value, dict):
                self.fail(f"key '{key}' in {ctx} must be an object")
                return default
        elif kind == "list":
            if not isinstance(value, list):
                self.fail(f"key '{key}' in {ctx} must be a list")
                return default
        elif kind == "bool":
            if not isinstance(value, bool):
                self.fail(f"key '{key}' in {ctx} must be a boolean")
                return default
        if choices is not None and value not in choices:
            self.fail(f"key '{key}' in {ctx} must be one of {sorted(choices)}, got {value!r}")
            return default
        return value


def _parse_function_spec(chk: _Checker, obj, ctx: str) -> Optional[FunctionSpec]:
    if not isinstance(obj, dict):
        chk.fail(f"{ctx} must be an object with a 'form' field")
        return None
    chk.reject_unknown(obj, ("form", "offset", "amplitude", "frequency_multiple", "phase"), ctx)
    form = chk.take(obj, "form", ctx, required=True, kind="str", choices=FUNCTION_FORMS)
    offset = chk.take(obj, "offset", ctx, kind="number", default=0.0)
    amplitude = chk.take(obj, "amplitude", ctx, kind="number", default=0.0)
    freq = chk.take(obj, "frequency_multiple", ctx, kind="number", default=1.0)
    phase = chk.take(obj, "phase", ctx, kind="number", default=0.0)
    if form is None:
        return None
    return FunctionSpec(form, offset=offset, amplitude=amplitude, frequency_multiple=freq, phase=phase)


def _parse_schedule(chk: _Checker, obj, ctx: str, kinds=MODEL_KINDS):
    """Parse {kind, L, T, cycles, params} into (Schedule, L)."""
    if not isinstance(obj, dict):
        chk.fail(f"{ctx} must be an object")
        return None, None
    chk.reject_unknown(obj, ("kind", "L", "T", "cycles", "params"), ctx)
    kind = chk.take(obj, "kind", ctx, required=True, kind="str", choices=kinds)
    cells = chk.take(obj, "L", ctx, required=True, kind="int")
    period = chk.take(obj, "T", ctx, required=True, kind="number")
    cycles = chk.take(obj, "cycles", ctx, kind="int", default=1)
    params_obj = chk.take(obj, "params", ctx, required=True, kind="dict", default={})
    if kind is None or period is None or params_obj is None:
        return None, None
    if period <= 0:
        chk.fail(f"key 'T' in {ctx} must be > 0")
        return None, None
    if cells is None or cells < 1:
        chk.fail(f"key 'L' in {ctx} must be a positive integer")
        return None, None
    expected = set(SCHEDULE_PARAMS[kind])
    for name in params_obj:
        if name not in expected:
            chk.fail(f"unknown key '{name}' in {ctx}.params for kind '{kind}'")
    missing = expected - set(params_obj)
    for name in sorted(missing):
        chk.fail(f"missing required key '{name}' in {ctx}.params for kind '{kind}'")
    if missing or set(params_obj) - expected:
        return None, None
    params = {}
    for name, spec_obj in params_obj.items():
        fn = _parse_function_spec(chk, spec_obj, f"{ctx}.params.{name}")
        if fn is None:
            return None, None
        params[name] = fn
    if cycles is None or cycles < 1:
        chk.fail(f"key 'cycles' in {ctx} must be >= 1")
        return None, None
    return Schedule(kind, period, params, cycles), cells


def _parse_model_params(chk: _Checker, cfg: dict, ctx: str):
    """Flat static-model keys: kind, L | n_sites, and per-kind parameters."""
    kind = chk.take(cfg, "kind", ctx, required=True, kind="str", choices=MODEL_KINDS + ("aah",))
    if kind is None:
        return None
    params = {}
    for name in MODEL_PARAM_KEYS[kind]:
        required = kind == "aah" or name != "omega"
        value = chk.take(cfg, name, f"{ctx} (kind '{kind}')", required=required, kind="number", default=0.0)
        params[name] = value if value is not None else 0.0
    if kind == "aah":
        n_sites = chk.take(cfg, "n_sites", ctx, required=True, kind="int")
        if n_sites is not None and n_sites < 2:
            chk.fail(f"key 'n_sites' in {ctx} must be >= 2, got {n_sites}")
        return {"kind": kind, "n_sites": n_sites, "params": params}
    cells = chk.take(cfg, "L", ctx, required=True, kind="int")
    if cells is not None and cells < 1:
        chk.fail(f"key 'L' in {ctx} must be >= 1, got {cells}")
    return {"kind": kind, "L": cells, "params": params}


def _model_sites(model: Optional[dict]) -> Optional[int]:
    if model is None:
        return None
    if model["kind"] == "aah":
        return model["n_sites"]
    return SITES_PER_CELL[model["kind"]] * model["L"] if model["L"] is not None else None


def _check_site(chk: _Checker, site: Optional[int], n_sites: Optional[int], key: str, ctx: str):
    if site is not None and n_sites is not None and n_sites >= 1 and not 1 <= site <= n_sites:
        chk.fail(f"key '{key}' in {ctx} must be in 1..{n_sites}, got {site}")


def _check_records(chk: _Checker, n_records: Optional[int], ctx: str):
    if n_records is not None and n_records < 2:
        chk.fail(f"key 'n_records' in {ctx} must be >= 2, got {n_records}")


def _check_size(chk: _Checker, sites: Optional[int], sites_key: str, rows: Optional[int] = None, rows_key: str = ""):
    """Bound a chain's sites and its table's rows x sites; each key is named
    with its context, e.g. "'L' in command 'pump'.schedule"."""
    if sites is not None and sites > MAX_SITES:
        chk.fail(f"key {sites_key} gives {sites:,} sites, more than the bound of {MAX_SITES:,}")
    if sites is not None and rows is not None and rows * sites > MAX_ROW_SITES:
        chk.fail(f"key {rows_key} asks for {rows:,} rows of {sites:,} sites, "
                 f"more than the bound of {MAX_ROW_SITES:,} values")


def _schedule_sites(schedule: Optional[Schedule], cells: Optional[int]) -> Optional[int]:
    return SITES_PER_CELL[schedule.kind] * cells if schedule is not None else None


def _check_pump_size(chk: _Checker, schedule: Optional[Schedule], cells: Optional[int], n_records, ctx: str):
    if schedule is not None:  # without n_records, the rows follow from the cycles
        rows = n_records or RECORDS_PER_CYCLE * schedule.cycles + 1
        rows_key = f"'n_records' in {ctx}" if n_records else f"'cycles' in {ctx}.schedule"
        _check_size(chk, _schedule_sites(schedule, cells), f"'L' in {ctx}.schedule", rows, rows_key)


def _check_model_size(chk: _Checker, model: Optional[dict], ctx: str, rows: Optional[int], rows_key: str):
    if model is not None:
        key = "n_sites" if model["kind"] == "aah" else "L"
        _check_size(chk, _model_sites(model), f"'{key}' in {ctx}", rows, rows_key)


def _model_key_set(kind: Optional[str]):
    base = set(_COMMON_KEYS) | {"kind"}
    if kind == "aah":
        return base | {"n_sites"} | set(MODEL_PARAM_KEYS["aah"])
    if kind in MODEL_PARAM_KEYS:
        return base | {"L"} | set(MODEL_PARAM_KEYS[kind])
    return base | {"L", "n_sites"}


def _parse_range(chk: _Checker, obj, ctx: str, points_min=1):
    if not isinstance(obj, dict):
        chk.fail(f"{ctx} must be an object {{start, stop, points}}")
        return None
    chk.reject_unknown(obj, ("start", "stop", "points"), ctx)
    start = chk.take(obj, "start", ctx, required=True, kind="number")
    stop = chk.take(obj, "stop", ctx, required=True, kind="number")
    points = chk.take(obj, "points", ctx, required=True, kind="int")
    if None in (start, stop, points):
        return None
    if points < points_min:
        chk.fail(f"key 'points' in {ctx} must be >= {points_min}")
        return None
    return {"start": start, "stop": stop, "points": points}


def _parse_disorder(chk: _Checker, obj, ctx: str, default_seed: int):
    if not isinstance(obj, dict):
        chk.fail(f"{ctx} must be an object")
        return None
    chk.reject_unknown(obj, ("sigma", "seed", "targets"), ctx)
    sigma = chk.take(obj, "sigma", ctx, required=True, kind="number")
    seed = chk.take(obj, "seed", ctx, kind="int", default=default_seed)
    targets = chk.take(obj, "targets", ctx, kind="list", default=["diagonal", "offdiagonal"])
    if sigma is None:
        return None
    if sigma < 0:
        chk.fail(f"key 'sigma' in {ctx} must be >= 0")
        return None
    for t in targets:
        if t not in ("diagonal", "offdiagonal"):
            chk.fail(f"unknown disorder target {t!r} in {ctx}")
            return None
    return {"sigma": sigma, "seed": seed, "targets": tuple(targets)}


def _parse_spectrum(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'spectrum'"
    options = {}
    if "schedule" in cfg:
        allowed = set(_COMMON_KEYS) | {"schedule", "n_times"}
        chk.reject_unknown(cfg, allowed, ctx)
        schedule, cells = _parse_schedule(chk, cfg["schedule"], f"{ctx}.schedule")
        n_times = chk.take(cfg, "n_times", ctx, kind="int", default=201)
        if n_times is not None and n_times < 2:
            chk.fail(f"key 'n_times' in {ctx} must be >= 2")
        _check_size(chk, _schedule_sites(schedule, cells), f"'L' in {ctx}.schedule", n_times, f"'n_times' in {ctx}")
        options.update(mode="trace", schedule=schedule, L=cells, n_times=n_times)
        return options
    kind = cfg.get("kind") if isinstance(cfg.get("kind"), str) else None
    allowed = _model_key_set(kind) | {"sweep", "export_states"}
    chk.reject_unknown(cfg, allowed, ctx)
    model = _parse_model_params(chk, cfg, ctx)
    options.update(mode="static", model=model)
    if "sweep" in cfg:
        sctx = f"{ctx}.sweep"
        sobj = cfg["sweep"]
        options["mode"] = "sweep"
        if not isinstance(sobj, dict):
            chk.fail(f"{sctx} must be an object {{param, start, stop, points}}")
        else:
            chk.reject_unknown(sobj, ("param", "start", "stop", "points"), sctx)
            name = chk.take(sobj, "param", sctx, required=True, kind="str")
            sweep = {
                "start": chk.take(sobj, "start", sctx, required=True, kind="number"),
                "stop": chk.take(sobj, "stop", sctx, required=True, kind="number"),
                "points": chk.take(sobj, "points", sctx, required=True, kind="int"),
            }
            if sweep["points"] is not None and sweep["points"] < 2:
                chk.fail(f"key 'points' in {sctx} must be >= 2")
            options["sweep"] = sweep
            options["sweep_param"] = name
            if model is not None and name is not None and name not in model["params"]:
                chk.fail(f"sweep parameter {name!r} is not a model parameter of kind '{model['kind']}'")
    _check_model_size(chk, model, ctx, options.get("sweep", {}).get("points"), f"'points' in {ctx}.sweep")
    if "export_states" in cfg:
        value = cfg["export_states"]
        if value != "edge" and not (isinstance(value, list) and all(isinstance(i, int) for i in value)):
            chk.fail(f"key 'export_states' in {ctx} must be \"edge\" or a list of level indices")
        elif value != "edge":
            n_sites = _model_sites(model)
            bad = [j for j in value if n_sites is not None and not 1 <= j <= n_sites]
            if bad:
                chk.fail(f"key 'export_states' in {ctx} must list levels in 1..{n_sites}, got {bad}")
        options["export_states"] = value
    return options


def _parse_pump(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'pump'"
    chk.reject_unknown(cfg, set(_COMMON_KEYS) | {"schedule", "initial_site", "n_records"}, ctx)
    if "schedule" not in cfg:
        chk.fail(f"missing required key 'schedule' in {ctx}")
        return {}
    schedule, cells = _parse_schedule(chk, cfg["schedule"], f"{ctx}.schedule")
    initial_site = chk.take(cfg, "initial_site", ctx, kind="int", default=1)
    _check_site(chk, initial_site, _schedule_sites(schedule, cells), "initial_site", ctx)
    n_records = chk.take(cfg, "n_records", ctx, kind="int")
    _check_records(chk, n_records, ctx)
    _check_pump_size(chk, schedule, cells, n_records, ctx)
    return {"schedule": schedule, "L": cells, "initial_site": initial_site, "n_records": n_records}


def _parse_quench(chk: _Checker, cfg: dict, seed: int) -> dict:
    ctx = "command 'quench'"
    kind = cfg.get("kind") if isinstance(cfg.get("kind"), str) else None
    allowed = _model_key_set(kind) | {"disorder", "flip_site", "t_final", "n_records"}
    chk.reject_unknown(cfg, allowed, ctx)
    model = _parse_model_params(chk, cfg, ctx)
    t_final = chk.take(cfg, "t_final", ctx, required=True, kind="number")
    if t_final is not None and t_final <= 0:
        chk.fail(f"key 't_final' in {ctx} must be > 0")
    flip_site = chk.take(cfg, "flip_site", ctx, kind="int", default=1)
    _check_site(chk, flip_site, _model_sites(model), "flip_site", ctx)
    n_records = chk.take(cfg, "n_records", ctx, kind="int", default=201)
    _check_records(chk, n_records, ctx)
    _check_model_size(chk, model, ctx, n_records, f"'n_records' in {ctx}")
    disorder = None
    if "disorder" in cfg:
        disorder = _parse_disorder(chk, cfg["disorder"], f"{ctx}.disorder", seed)
    return {
        "model": model,
        "t_final": t_final,
        "flip_site": flip_site,
        "n_records": n_records,
        "disorder": disorder,
    }


def _parse_lz(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'lz'"
    allowed = set(_COMMON_KEYS) | {"path", "from_schedule", "reduce", "initial_state", "n_records", "classify_tol"}
    chk.reject_unknown(cfg, allowed, ctx)
    options = {
        "initial_state": chk.take(cfg, "initial_state", ctx, kind="str", default="L", choices=("L", "R")),
        "n_records": chk.take(cfg, "n_records", ctx, kind="int", default=201),
        "classify_tol": chk.take(cfg, "classify_tol", ctx, kind="number"),
    }
    _check_records(chk, options["n_records"], ctx)
    if not any(key in cfg for key in ("path", "from_schedule", "reduce")):
        chk.fail(f"{ctx} needs one of 'path', 'from_schedule' or 'reduce'")
    if "path" in cfg:
        pctx = f"{ctx}.path"
        pobj = cfg["path"]
        if not isinstance(pobj, dict):
            chk.fail(f"{pctx} must be an object")
        else:
            chk.reject_unknown(pobj, ("type", "alpha", "theta", "T", "n_samples", "u", "g"), pctx)
            ptype = chk.take(pobj, "type", pctx, required=True, kind="str", choices=("arc", "line", "line_at_angle", "custom"))
            period = chk.take(pobj, "T", pctx, required=True, kind="number")
            n_samples = chk.take(pobj, "n_samples", pctx, kind="int", default=201)
            if n_samples is not None and n_samples < 3:
                chk.fail(f"key 'n_samples' in {pctx} must be >= 3, got {n_samples}")
            path = {"type": ptype, "T": period, "n_samples": n_samples}
            # 2 sites: only rows (records, path samples) can exceed
            _check_size(chk, 2, "", options["n_records"], f"'n_records' in {ctx}")
            _check_size(chk, 2, "", n_samples, f"'n_samples' in {pctx}")
            if ptype in ("arc", "line", "line_at_angle"):
                path["alpha"] = chk.take(pobj, "alpha", pctx, required=True, kind="number")
            if ptype == "line_at_angle":
                path["theta"] = chk.take(pobj, "theta", pctx, required=True, kind="number")
            if ptype == "custom":
                for fname in ("u", "g"):
                    if fname in pobj:
                        path[fname] = _parse_function_spec(chk, pobj[fname], f"{pctx}.{fname}")
                    else:
                        chk.fail(f"missing required key '{fname}' in {pctx}")
            options["path"] = path
    if "from_schedule" in cfg:
        schedule, cells = _parse_schedule(chk, cfg["from_schedule"], f"{ctx}.from_schedule", kinds=("rm",))
        options["from_schedule"] = {"schedule": schedule, "L": cells}
    if "reduce" in cfg:
        rctx = f"{ctx}.reduce"
        robj = cfg["reduce"]
        if not isinstance(robj, dict):
            chk.fail(f"{rctx} must be an object")
        else:
            chk.reject_unknown(robj, ("a", "b", "u", "L"), rctx)
            options["reduce"] = {
                "a": chk.take(robj, "a", rctx, required=True, kind="number"),
                "b": chk.take(robj, "b", rctx, required=True, kind="number"),
                "u": chk.take(robj, "u", rctx, kind="number", default=0.0),
                "L": chk.take(robj, "L", rctx, required=True, kind="int"),
            }
            cells = options["reduce"]["L"]
            if cells is not None and cells < 1:
                chk.fail(f"key 'L' in {rctx} must be >= 1, got {cells}")
            if cells is not None:
                _check_size(chk, SITES_PER_CELL["rm"] * cells, f"'L' in {rctx}")
    return options


def _parse_trimer(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'trimer'"
    chk.reject_unknown(cfg, set(_COMMON_KEYS) | {"schedule", "signs", "n_records"}, ctx)
    if "schedule" not in cfg:
        chk.fail(f"missing required key 'schedule' in {ctx}")
        return {}
    schedule, cells = _parse_schedule(chk, cfg["schedule"], f"{ctx}.schedule", kinds=("trimer",))
    signs = chk.take(cfg, "signs", ctx, kind="list", default=["plus", "minus"])
    for s in signs:
        if s not in ("plus", "minus"):
            chk.fail(f"unknown Bell sign {s!r} in {ctx}.signs")
    n_records = chk.take(cfg, "n_records", ctx, kind="int")
    _check_records(chk, n_records, ctx)
    _check_pump_size(chk, schedule, cells, n_records, ctx)
    return {"schedule": schedule, "L": cells, "signs": tuple(signs), "n_records": n_records}


def _parse_couplings(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'couplings'"
    chk.reject_unknown(cfg, set(_COMMON_KEYS) | {"scheme", "bare_a", "bare_b", "alpha1", "alpha2", "n_max"}, ctx)
    scheme = chk.take(cfg, "scheme", ctx, kind="str", default="identical", choices=("identical", "matched"))
    n_max = chk.take(cfg, "n_max", ctx, kind="int", default=DEFAULT_N_MAX)
    if n_max is not None and not 0 <= n_max <= COUPLINGS_MAX_N_MAX:
        chk.fail(f"key 'n_max' in {ctx} must be in 0..{COUPLINGS_MAX_N_MAX}, got {n_max}")
    options = {
        "scheme": scheme,
        "bare_a": chk.take(cfg, "bare_a", ctx, kind="number", default=1.0),
        "bare_b": chk.take(cfg, "bare_b", ctx, kind="number", default=1.0),
        "n_max": n_max,
    }
    for key in ("alpha1", "alpha2"):
        if key not in cfg:
            chk.fail(f"missing required key '{key}' in {ctx}")
            options[key] = None
            continue
        rctx = f"{ctx}.{key}"
        rng = options[key] = _parse_range(chk, cfg[key], rctx)
        if rng is None:
            continue
        for end in ("start", "stop"):
            if not abs(rng[end]) < MAX_ARGUMENT:
                chk.fail(f"key '{end}' in {rctx} must have magnitude below {MAX_ARGUMENT}, got {rng[end]}")
        if rng["points"] > COUPLINGS_MAX_POINTS:
            chk.fail(f"key 'points' in {rctx} must be <= {COUPLINGS_MAX_POINTS}, got {rng['points']}")
    return options


def _parse_fluxqubit(chk: _Checker, cfg: dict) -> dict:
    ctx = "command 'fluxqubit'"
    chk.reject_unknown(cfg, set(_COMMON_KEYS) | {"spec", "f_alpha", "f_eps_range", "f_alpha_sweep", "levels"}, ctx)
    spec_kwargs = {}
    if "spec" in cfg:
        sctx = f"{ctx}.spec"
        sobj = cfg["spec"]
        if not isinstance(sobj, dict):
            chk.fail(f"{sctx} must be an object")
        else:
            fields = {
                "ej": "number",
                "ej_over_ec": "number",
                "alpha": "number",
                "beta": "number",
                "f_sigma_kappa": "number",
                "n_total": "int",
                "n_diff": "int",
                "charge_cutoff": "int",
            }
            chk.reject_unknown(sobj, fields, sctx)
            for name, kind in fields.items():
                if name in sobj:
                    value = chk.take(sobj, name, sctx, kind=kind)
                    if value is not None:
                        spec_kwargs[name] = value
            for name in ("ej", "ej_over_ec", "alpha"):
                if name in spec_kwargs and not spec_kwargs[name] > 0:
                    chk.fail(f"key '{name}' in {sctx} must be > 0, got {spec_kwargs[name]}")
    cutoff = spec_kwargs.get("charge_cutoff", FluxQubitSpec.charge_cutoff)
    max_levels = FLUX_MAX_LEVELS
    if not 1 <= cutoff <= FLUX_MAX_CHARGE_CUTOFF:
        chk.fail(f"key 'charge_cutoff' in {ctx}.spec must be in 1..{FLUX_MAX_CHARGE_CUTOFF}, got {cutoff}")
    else:
        max_levels = min(max_levels, (2 * cutoff + 1) ** 2 - 2)
    levels = chk.take(cfg, "levels", ctx, kind="int", default=5)
    if levels is not None and not 1 <= levels <= max_levels:
        chk.fail(f"key 'levels' in {ctx} must be in 1..{max_levels}, got {levels}")
    options = {"spec_kwargs": spec_kwargs, "levels": levels}
    if "f_alpha_sweep" in cfg:
        options["f_alpha_sweep"] = _parse_range(chk, cfg["f_alpha_sweep"], f"{ctx}.f_alpha_sweep", points_min=2)
    else:
        options["f_alpha"] = chk.take(cfg, "f_alpha", ctx, required=True, kind="number")
        f_eps = cfg.get("f_eps_range", {"start": -0.05, "stop": 0.05, "points": 41})
        options["f_eps_range"] = _parse_range(chk, f_eps, f"{ctx}.f_eps_range")
    return options


def _integrated_time(command: Optional[str], options: dict):
    """Time span of each integration the command runs and the key that sets
    it, or (None, None) if it runs none."""
    if command in ("pump", "trimer"):
        schedule = options.get("schedule")
        if schedule is not None:
            return schedule.total_time, f"'T' in command '{command}'.schedule"
    if command == "quench":
        return options.get("t_final"), "'t_final' in command 'quench'"
    if command == "lz" and "path" in options:
        return options["path"]["T"], "'T' in command 'lz'.path"
    return None, None


def _check_rk4_budget(chk: _Checker, integrator: IntegratorConfig, span: Optional[float]):
    if integrator.method != "rk4" or span is None or not span > 0:
        return
    steps = span / integrator.rk4_step
    if steps > RK4_MAX_STEPS:
        chk.fail(
            f"key 'max_step' in config.integrator: RK4 over t = {span:g} would take about "
            f"{steps:.3g} steps, more than the budget of {RK4_MAX_STEPS:,}"
        )


def _function_bound(fn: FunctionSpec, cycles: int) -> float:
    """Largest |fn(t)| over ``cycles`` periods."""
    reach = cycles if fn.form == "linear" else 1
    return abs(fn.offset) + abs(fn.amplitude) * reach


def _norm_bound(command: Optional[str], options: dict) -> Optional[float]:
    """Gershgorin bound on ||H(t)|| of the command's integration."""
    if command in ("pump", "trimer"):
        schedule = options.get("schedule")
        if schedule is None:
            return None
        kind = schedule.kind
        bounds = {name: _function_bound(fn, schedule.cycles) for name, fn in schedule.params.items()}
    elif command == "quench" and options.get("model") is not None:
        kind = options["model"]["kind"]
        bounds = {name: abs(value) for name, value in options["model"]["params"].items()}
        disorder = options.get("disorder")
        if disorder is not None:
            diag_params, bond_params = _DIAG_BOND_PARAMS[kind]
            for target, names in (("diagonal", diag_params), ("offdiagonal", bond_params)):
                if target in disorder["targets"]:
                    for name in set(names):
                        bounds[name] += MAX_DEVIATE * disorder["sigma"]
    elif command == "lz" and "path" in options:
        path = options["path"]
        if path["type"] == "custom":
            if path.get("u") is None or path.get("g") is None:
                return None
            return _function_bound(path["u"], 1) + _function_bound(path["g"], 1)
        # H = [[u, g], [g, -u]]; |u| <= |alpha| on every path, and |g| is
        # |alpha| on the arc, 0 on the line and |u tan(theta)| when tilted
        alpha, theta = path.get("alpha"), path.get("theta", 0.0)
        if alpha is None or theta is None:
            return None
        return abs(alpha) * (2.0 if path["type"] == "arc" else 1.0 + abs(math.tan(theta)))
    else:
        return None
    diag_params, bond_params = _DIAG_BOND_PARAMS[kind]
    bonds = sorted((bounds.get(name, 0.0) for name in bond_params), reverse=True)
    return max(bounds.get(name, 0.0) for name in diag_params) + sum(bonds[:2])


def _check_bdf_budget(chk: _Checker, integrator: IntegratorConfig, span: Optional[float], span_key: str,
                      bound: Optional[float]):
    if integrator.method != "bdf" or span is None or bound is None:
        return
    if not span * bound <= BDF_MAX_PHASE:
        chk.fail(
            f"key {span_key}: BDF over t = {span:g} with ||H|| up to {bound:.3g} accumulates a phase of "
            f"{span * bound:.6g}, more than the bound of {BDF_MAX_PHASE:,}; shorten the run or lower the couplings"
        )


def _check_rk4_stability(chk: _Checker, integrator: IntegratorConfig, bound: Optional[float]):
    if integrator.method != "rk4" or bound is None:
        return
    if not integrator.rk4_step * bound <= RK4_STABILITY_LIMIT:
        chk.fail(
            f"key 'max_step' in config.integrator: RK4 at step {integrator.rk4_step:g} with ||H|| up to "
            f"{bound:.3g} is unstable; max_step * ||H|| must be <= {RK4_STABILITY_LIMIT}"
        )


_PARSERS = {
    "spectrum": lambda chk, cfg, seed: _parse_spectrum(chk, cfg),
    "pump": lambda chk, cfg, seed: _parse_pump(chk, cfg),
    "quench": _parse_quench,
    "lz": lambda chk, cfg, seed: _parse_lz(chk, cfg),
    "trimer": lambda chk, cfg, seed: _parse_trimer(chk, cfg),
    "couplings": lambda chk, cfg, seed: _parse_couplings(chk, cfg),
    "fluxqubit": lambda chk, cfg, seed: _parse_fluxqubit(chk, cfg),
}


def parse_config(text: str) -> ExperimentConfig:
    """Validate JSON config text; raises SchemaError listing every violation."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise SchemaError(["config must be a JSON object"])

    chk = _Checker()
    schema = chk.take(cfg, "schema", "config", required=True, kind="int")
    if schema is not None and schema != SCHEMA_VERSION:
        chk.fail(f"unsupported schema version {schema}; this tool reads version {SCHEMA_VERSION}")
    command = chk.take(cfg, "command", "config", required=True, kind="str")
    if command is not None and command not in COMMANDS:
        chk.fail(f"unknown command {command!r}; expected one of {list(COMMANDS)}")
        raise SchemaError(chk.violations)
    seed = chk.take(cfg, "seed", "config", kind="int", default=0)
    output = chk.take(cfg, "output", "config", kind="str")

    integrator = IntegratorConfig()
    if "integrator" in cfg:
        ictx = "config.integrator"
        iobj = cfg["integrator"]
        if not isinstance(iobj, dict):
            chk.fail(f"{ictx} must be an object")
        else:
            chk.reject_unknown(iobj, ("rel_tol", "abs_tol", "max_step", "method"), ictx)
            kwargs = {}
            for name, kind in (("rel_tol", "number"), ("abs_tol", "number"), ("max_step", "number")):
                if name in iobj:
                    value = chk.take(iobj, name, ictx, kind=kind)
                    if value is not None:
                        kwargs[name] = value
            if "method" in iobj:
                method = chk.take(iobj, "method", ictx, kind="str", choices=("bdf", "rk4"))
                if method is not None:
                    kwargs["method"] = method
            try:
                integrator = IntegratorConfig(**kwargs)
            except Exception as exc:
                chk.fail(f"{ictx}: {exc}")

    options = {}
    if command is not None:
        try:
            options = _PARSERS[command](chk, cfg, seed if seed is not None else 0)
        except SchemaError:
            raise
        except Exception as exc:  # turn construction errors into schema messages
            chk.fail(f"command '{command}': {exc}")
        span, span_key = _integrated_time(command, options)
        bound = _norm_bound(command, options)
        _check_rk4_budget(chk, integrator, span)
        _check_rk4_stability(chk, integrator, bound)
        _check_bdf_budget(chk, integrator, span, span_key, bound)
    if chk.violations:
        raise SchemaError(chk.violations)
    return ExperimentConfig(
        command=command,
        seed=seed if seed is not None else 0,
        output=output,
        integrator=integrator,
        options=options,
        raw=cfg,
    )
