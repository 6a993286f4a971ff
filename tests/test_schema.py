"""The config schema table: a property test of parse_config built from the
table, the presets against the model schedules, and the README's config
section against the table."""

import copy
import importlib.util
import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topochain.config as config
from topochain.config import Key, parse_config
from topochain.errors import SchemaError
from topochain.models import bell_transfer_schedule, optimized_schedule, pump_schedule
from topochain.presets import PRESETS

PRESET_CONFIGS = dict(entry for entries in PRESETS.values() for entry in entries)

_MODEL_KEYS = {"kind": config.MODEL_KIND, "L": config._CELLS,
               **{name: key for params in config.MODEL.values() for name, key in params.items()}}
# every key a command's top level may hold, whatever its mode or model kind
COMMAND_KEYS = {
    "spectrum": {**config.SPECTRUM_TRACE, **config.SPECTRUM_STATIC, **config.SPECTRUM_SWEEP, **_MODEL_KEYS},
    "pump": config.PUMP,
    "quench": {**config.QUENCH, **_MODEL_KEYS},
    "lz": config.LZ,
    "trimer": config.TRIMER,
    "couplings": config.COUPLINGS,
    "fluxqubit": {**config.FLUX, **config.FLUX_LEVELS, **config.FLUX_GAP},
}
_PATH_KEYS = {name: key for keys in config.LZ_PATH_TYPES.values() for name, key in keys.items()}


def _children(key: Key) -> dict:
    """The table of the keys inside a value of ``key``."""
    if not isinstance(key.kind, dict):
        return {}
    return {**key.kind, **(_PATH_KEYS if key is config.LZ_PATH else {})}


def _tables():
    """Every table of the schema."""
    stack = [config.CONFIG, config.FUNCTION.kind, *COMMAND_KEYS.values()]
    while stack:
        keys = stack.pop()
        yield keys
        stack += [_children(key) for key in keys.values()]


def table_names() -> set:
    """Every key name of every table of the schema."""
    return set().union(*_tables())


def table_values() -> set:
    """Every choice and list-item value of every key of the schema."""
    return {value for keys in _tables() for key in keys.values() for value in (key.choices or ()) + (key.items or ())}


def slots(cfg: dict):
    """(path, Key) of every key of ``cfg`` that the schema describes; the
    terms of a schedule's params are FUNCTION objects."""
    def walk(obj, keys, path):
        for name, value in obj.items():
            key = keys.get(name)
            if key is None:
                continue
            yield path + (name,), key
            if key.kind == "dict" and isinstance(value, dict):
                for term_name, term in value.items():
                    yield path + (name, term_name), config.FUNCTION
                    if isinstance(term, dict):
                        yield from walk(term, config.FUNCTION.kind, path + (name, term_name))
            elif isinstance(value, dict):
                yield from walk(value, _children(key), path + (name,))

    command = cfg.get("command")
    yield from walk(cfg, {**config.CONFIG, **COMMAND_KEYS.get(command if isinstance(command, str) else "", {})}, ())


def _step(value, direction, kind):
    return value + direction if kind == "int" else math.nextafter(value, direction * math.inf)


def bound_values(key: Key) -> list:
    """Each limit of each bound of ``key`` and one step to either side."""
    values = []
    for bound in key.bounds:
        limits = bound.limit if bound.op == "in" else (bound.limit,)
        if bound.op == "below":
            limits = (bound.limit, -bound.limit)
        for limit in limits:
            values += [_step(limit, -1, key.kind), limit, _step(limit, 1, key.kind)]
    return values


_WRONG_KINDS = {
    "number": ["1", True, None, [1.0], math.nan, math.inf, 10**400],
    "int": [1.5, "1", True, None],
    "str": [1, None, ["x"]],
    "list": ["plus", 1, {}],
    "dict": [[], 1, "x"],
}


def mutations(key: Key) -> list:
    """Values to put at a key: its bounds, wrong kinds, bad choices and,
    for a key that feeds a size or cost check, huge sizes."""
    values = bound_values(key)
    values += [1, [], "x"] if isinstance(key.kind, dict) else _WRONG_KINDS[key.kind]
    if key.choices is not None or key.items is not None:
        values += ["bogus", ["bogus"]]
    if key.feeds and key.kind in ("int", "number"):
        values += [10**9, 1e300, -1e300]
    return values


_DELETE = object()
# a few valid configs beyond the presets: the other model kinds and LZ paths
_EXTRA_BASES = [
    {"schema": 1, "command": "quench", "kind": "trimer", "L": 3, "a": 0.5, "b": 1.0, "c": 0.3, "u": 0.1,
     "v": -0.2, "w": 0.0, "flip_site": 4, "t_final": 1.0, "integrator": {"method": "rk4", "max_step": 0.01}},
    {"schema": 1, "command": "quench", "kind": "rm", "L": 3, "a": 0.5, "b": 1.0, "u": 0.2, "t_final": 2.0,
     "disorder": {"sigma": 0.1}, "n_records": 11},
    {"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 1.3, "theta": 0.7, "T": 10.0},
     "n_records": 11},
    {"schema": 1, "command": "lz", "path": {"type": "custom", "T": 10.0, "n_samples": 11,
                                             "u": {"form": "linear", "offset": -1.0, "amplitude": 2.0},
                                             "g": {"form": "const", "offset": 0.3}}, "initial_state": "R"},
    {"schema": 1, "command": "couplings", "scheme": "matched",
     "alpha1": {"start": -2.0, "stop": 2.0, "points": 5}, "alpha2": {"start": 0.0, "stop": 1.0, "points": 3}},
    {"schema": 1, "command": "couplings", "scheme": "identical", "n_max": 20,
     "alpha1": {"start": -1.0, "stop": 1.0, "points": 3}, "alpha2": {"start": 0.0, "stop": 2.0, "points": 4}},
    {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "levels": 3, "spec": {"charge_cutoff": 4}},
    {"schema": 1, "command": "spectrum", "kind": "rm", "L": 4, "a": 0.5, "b": 1.0, "u": 0.0,
     "export_states": "edge", "seed": 5, "output": "rm"},
]
BASES = list(PRESET_CONFIGS.values()) + _EXTRA_BASES


def test_every_base_parses():
    # a mutation of a base then breaks only what it changes
    for cfg in BASES:
        try:
            parse_config(json.dumps(cfg))
        except SchemaError as exc:
            raise AssertionError(f"{cfg}: {exc.violations}") from None


def _set(cfg: dict, path: tuple, value):
    parent = cfg
    for name in path[:-1]:
        parent = parent[name]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


@st.composite
def mutated_configs(draw):
    """A valid config with up to three of its keys set to a value at or
    beyond a bound, of the wrong kind, outside the choices, or deleted,
    or with an unknown key added."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 3))):
        described = list(slots(cfg))
        if not described:
            break
        path, key = draw(st.sampled_from(described))
        if draw(st.integers(0, 9)) == 0:
            path = path[:-1] + ("bogus",)
            value = 1
        else:
            value = draw(st.sampled_from(mutations(key) + [_DELETE]))
        _set(cfg, path, value)
    return cfg


def _all_keys(obj) -> set:
    if isinstance(obj, dict):
        return set(obj).union(*(_all_keys(value) for value in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_all_keys(value) for value in obj))
    return set()


def _names_a_key(message: str, names: set) -> bool:
    """A violation names its key quoted or as the last part of its context;
    three name the schema version, the command or the sweep parameter."""
    quoted = {a or b for a, b in re.findall(r"'(\w+)'|\.(\w+)", message)}
    return bool(quoted & names) or message.startswith(("unsupported schema version", "unknown command",
                                                       "sweep parameter"))


TABLE_NAMES = table_names()


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(mutated_configs())
def test_parse_config_returns_or_names_every_violation(cfg):
    names = TABLE_NAMES | _all_keys(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_config(json.dumps(cfg))
        except SchemaError as exc:
            assert exc.violations
            for message in exc.violations:
                assert _names_a_key(message, names), message
    assert not caught, [str(w.message) for w in caught]


def single_mutations():
    """Each base with one described key set to each of its mutations or
    deleted, or with an unknown key beside it."""
    for base in BASES:
        for path, key in slots(base):
            changes = [(path, value) for value in mutations(key) + [_DELETE]] + [(path[:-1] + ("bogus",), 1)]
            for target, value in changes:
                cfg = copy.deepcopy(base)
                _set(cfg, target, value)
                yield cfg


def test_every_single_mutation_parses_or_names_its_violations():
    # exhaustive where the property test above samples: each config parses
    # or raises a SchemaError whose every message names a key, and warns not
    count = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cfg in single_mutations():
            count += 1
            try:
                parse_config(json.dumps(cfg))
            except SchemaError as exc:
                assert exc.violations, cfg
                names = TABLE_NAMES | _all_keys(cfg)
                assert all(_names_a_key(message, names) for message in exc.violations), (cfg, exc.violations)
    assert not caught, [str(w.message) for w in caught]
    assert count > 3000


def test_every_preset_key_is_in_the_table():
    # so the property test above can reach every key of every preset
    for name, cfg in PRESET_CONFIGS.items():
        described = {path for path, _ in slots(cfg)}
        for path in _paths(cfg):
            assert path in described, f"{name}: {path}"


def _paths(obj, path=()):
    for name, value in obj.items():
        yield path + (name,)
        if isinstance(value, dict):
            yield from _paths(value, path + (name,))


def _workloads():
    """perfbench/workloads.py, loaded from its file: the benchmark's job configs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 3])
def test_every_preset_and_benchmark_config_parses(seed):
    # a key the schema rejects must never be one a figure or a benchmark
    # job relies on
    workloads = _workloads()
    jobs = {f"{workload}/{job.name}": job.config for workload in workloads.WORKLOADS
            for job in workloads.jobs_for(workload, seed)}
    for name, cfg in {**PRESET_CONFIGS, **jobs}.items():
        try:
            parse_config(json.dumps(cfg))
        except SchemaError as exc:
            raise AssertionError(f"{name}: {exc.violations}") from None


# the keys that no preset or benchmark job sets, each kept for a reason
_UNSET_ALLOWED = {
    ("config", "integrator", "rel_tol"): "accuracy control of Magnus and BDF",
    ("config", "integrator", "abs_tol"): "accuracy control of BDF",
    ("lz", "n_records"): "resolution of the trajectory",
    ("trimer", "n_records"): "resolution of the trajectory",
    ("lz", "path", "n_samples"): "resolution of the path",
    ("fluxqubit", "spec", "charge_cutoff"): "accuracy control of the flux solver",
    ("lz", "path", "theta"): "path C, the tilted ramp",
    ("lz", "path", "u"): "a custom path's u term",
    ("lz", "path", "g"): "a custom path's g term",
    ("model", "ssh", "omega"): "the on-site term of every ssh chain",
    ("term", "phase"): "the phase of every sin or cos term",
}
_MODEL_PARAMS = {name for params in config.MODEL.values() for name in params}


def _places(keys: dict, where: tuple, obj=None):
    """The place of each key of the table ``keys`` and of the keys inside
    it, or of each that ``obj`` sets if given: a schedule's keys sit under
    "schedule" and a function term's under "term", wherever they appear."""
    for name, key in keys.items():
        if obj is not None and name not in obj:
            continue
        value = None if obj is None else obj[name]
        yield where + (name,)
        if key.build is config._build_schedule:
            yield from _places(key.kind, ("schedule",), value)
            for term in [None] if value is None else value["params"].values():
                yield from _places(config.FUNCTION.kind, ("term",), term)
        elif key is config.FUNCTION:
            yield from _places(key.kind, ("term",), value)
        elif isinstance(key.kind, dict):
            yield from _places(_children(key), where + (name,), value)


def _command_places(command: str, cfg=None):
    """Every place of a command's schema, or each that ``cfg`` sets; a static
    model's parameters sit under "model" and their kind."""
    table = {name: key for name, key in COMMAND_KEYS[command].items() if name not in _MODEL_PARAMS}
    yield from _places(config.CONFIG, ("config",), cfg)
    yield from _places(table, (command,), cfg)
    if command in ("spectrum", "quench"):
        for kind, params in config.MODEL.items():
            if cfg is None or cfg.get("kind") == kind:
                yield from _places(params, ("model", kind), cfg)


def test_every_config_key_is_set_or_allowed():
    # a key that no figure, criterion or benchmark job sets is dead surface
    # unless the allowlist above names it; an allowlisted key must be unset
    workloads = _workloads()
    cfgs = [*PRESET_CONFIGS.values(),
            *(job.config for workload in workloads.WORKLOADS for job in workloads.jobs_for(workload, 7))]
    set_places = {place for cfg in cfgs for place in _command_places(cfg["command"], cfg)}
    schema = {place for command in COMMAND_KEYS for place in _command_places(command)}
    allowed = {place[:k] for place in _UNSET_ALLOWED for k in range(1, len(place) + 1)}
    assert sorted(schema - set_places - allowed) == []
    assert sorted(set(_UNSET_ALLOWED) - schema) == [] and sorted(set(_UNSET_ALLOWED) & set_places) == []


def test_presets_run_the_model_schedules():
    # reproduce runs the preset dicts; the acceptance criteria run the
    # schedules of models.py: they must be the same protocols
    def parsed(name):
        return parse_config(json.dumps(PRESET_CONFIGS[name])).options

    plain = pump_schedule(100.0)
    assert parsed("pumping")["schedule"] == plain
    assert parsed("rm_spectrum")["schedule"] == plain
    assert parsed("lz2_pump_path")["from_schedule"]["schedule"] == plain
    assert parsed("optimization_full")["schedule"] == optimized_schedule(100.0)
    assert parsed("optimization_pump")["schedule"] == optimized_schedule(100.0, 3)
    assert parsed("belltransfer")["schedule"] == bell_transfer_schedule(1000.0)


# words in the README's config code that are neither keys nor values of
# the schema: the fence language, the non-finite JSON numbers it rejects
# and the variables of the function-term formula
_README_WORDS = {"json", "NaN", "Infinity", "t", "f"}


def _readme_config_words() -> set:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`]+`", section, flags=re.S)
    return {word for word in re.findall(r"\w+", " ".join(code)) if not word[0].isdigit()}


def test_readme_documents_every_key():
    assert sorted(table_names() - _readme_config_words()) == []


def test_readme_config_code_names_only_the_schema():
    # so the README cannot describe a key, kind or option the schema lacks
    known = table_names() | table_values() | set(config.COMMANDS) | _README_WORDS
    assert sorted(_readme_config_words() - known) == []
