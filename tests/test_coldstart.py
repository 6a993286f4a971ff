"""What importing the package loads, and the bindings the benchmark tracer
wraps.

``import topochain.cli`` loads numpy and scipy.linalg only: scipy.integrate
(with scipy.optimize), scipy.special and scipy.sparse are imported by the
functions that use them.  ``perfbench/tracing.py`` wraps module attributes
by name, so every one of them must stay a module-level binding that the
program calls through.
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
        "from topochain import build_ssh, quench\n"
        "quench(build_ssh(3, 0.3, 1.0), 1, 5.0)\n"
        "print(json.dumps([tracer.absent, dict(tracer.note_failures), tracer.counts['bdf.nfev']]))\n"
    )
    absent, failures, nfev = json.loads(_fresh(code))
    assert absent == [] and failures == {}
    assert nfev > 0
