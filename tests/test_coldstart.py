"""What importing the package loads, and the bindings the benchmark tracer
wraps.

``import topochain.cli`` loads numpy and scipy.linalg only: scipy.integrate
(with scipy.optimize), scipy.special and scipy.sparse are imported by the
functions that use them, and a run that integrates with Magnus, the default
of every command but ``pump``, never loads scipy.integrate.
``perfbench/tracing.py`` wraps module attributes by name, so every one of
them must stay a module-level binding that the program calls through.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topochain
from topochain import dynamics

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(topochain.__file__).resolve().parents[1]
HEAVY = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.sparse")


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import json, sys, topochain.cli\n"
        f"loaded = sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {HEAVY!r}))\n"
        "from scipy.special import ndtri\n"
        "from topochain import models\n"
        "print(json.dumps([loaded, models.MAX_DEVIATE, float(-ndtri(2.0**-54))]))\n"
    )
    loaded, literal, computed = json.loads(_fresh(code))
    assert loaded == []
    # MAX_DEVIATE is a literal so that the import above needs no ndtri
    assert literal == computed


def test_magnus_runs_load_no_scipy_integrate(tmp_path):
    # a tiny quench, lz and trimer run in one fresh interpreter, each with
    # the default integrator; only BDF loads scipy.integrate and, through
    # it, scipy.optimize
    configs = [
        {"command": "quench", "kind": "ssh", "L": 2, "a": 0.1, "b": 1.0, "t_final": 5.0,
         "disorder": {"sigma": 0.01}},
        {"command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 10.0}},
        {"command": "trimer", "n_records": 11, "schedule": {
            "kind": "trimer", "L": 2, "T": 5.0, "params": {
                "a": {"form": "cos", "offset": 1.0, "amplitude": -0.9}, "b": {"form": "const", "offset": 1.0},
                "c": {"form": "const", "offset": 1.0}, "u": {"form": "const"}, "v": {"form": "const"},
                "w": {"form": "const"}}}},
    ]
    paths = []
    for cfg in configs:
        paths.append(str(tmp_path / f"{cfg['command']}.json"))
        Path(paths[-1]).write_text(json.dumps(dict(cfg, schema=1)))
    code = (
        "import json, sys\n"
        "from topochain.cli import main\n"
        "loaded = []\n"
        f"for path in {paths!r}:\n"
        f"    assert main(['run', '--config', path, '--out', {str(tmp_path)!r}]) == 0\n"
        "    loaded.append(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_fresh(code).splitlines()[-1]) == [[], [], []]  # main prints the files first
    for cfg in configs:
        manifest = json.loads((tmp_path / f"{cfg['command']}.manifest.json").read_text())
        assert {record["method"] for record in manifest["integrator"].values()} == {"magnus"}


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracing = _tracing()
    return [(name, module, attr) for name, module, attr, _ in tracing.TARGETS + tracing.COUNTERS]


@pytest.mark.parametrize("name, module_name, attr", _targets(), ids=lambda v: str(v))
def test_every_traced_binding_exists(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # a classmethod, e.g. LZPath.from_schedule
        cls_name, method = attr.split(".")
        assert isinstance(vars(getattr(module, cls_name)).get(method), classmethod)
    else:
        assert callable(getattr(module, attr, None))


def test_bdf_calls_solve_ivp_through_the_module():
    # the tracer's BDF counters and the monkeypatch in test_dynamics replace
    # dynamics.solve_ivp; a name bound inside _evolve_bdf would bypass both
    assert dynamics._evolve_bdf.__globals__ is vars(dynamics)
    assert "solve_ivp" in dynamics._evolve_bdf.__code__.co_names
    assert "solve_ivp" not in dynamics._evolve_bdf.__code__.co_varnames


def test_traced_bdf_run_reports_its_counts():
    # the whole path in a fresh interpreter: install the tracer before any
    # lazy import has run, then integrate once
    code = (
        "import json, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.start_run('quench')\n"
        "from topochain import IntegratorConfig, build_ssh, quench\n"
        "quench(build_ssh(3, 0.3, 1.0), 1, 5.0, IntegratorConfig(method='bdf'))\n"
        "print(json.dumps([tracer.absent, dict(tracer.note_failures), tracer.counts['bdf.nfev']]))\n"
    )
    absent, failures, nfev = json.loads(_fresh(code))
    assert absent == [] and failures == {}
    assert nfev > 0
