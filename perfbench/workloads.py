"""Experiment configs for each benchmark workload, generated from a seed.

The seed draws only values that leave the amount of work unchanged:
disorder seeds, bare couplings, sweep end points and the flux bias of the
circuit level sweep.  Sizes, periods, point counts and step sizes are
fixed, so every seed costs the same.  The figure presets are copied here
verbatim rather than imported, so the inputs stay the same when the
program's own presets change.

Each workload is a list of ``Job`` entries; a job is one ``topochain run``
invocation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

import numpy as np

WORKLOADS = ("spectra", "pump", "crosscheck", "circuit")

_PUMP_PARAMS = {
    "a": {"form": "cos", "offset": 1.0, "amplitude": -1.0},
    "b": {"form": "const", "offset": 1.0},
    "u": {"form": "sin", "amplitude": 1.0},
}
_OPTIMIZED_PARAMS = {
    "a": {"form": "cos", "offset": 0.5, "amplitude": -0.5},
    "b": {"form": "const", "offset": 1.0},
    "u": {"form": "sin", "amplitude": 0.25},
}
_U_ONLY_PARAMS = {
    "a": {"form": "cos", "offset": 1.0, "amplitude": -1.0},
    "b": {"form": "const", "offset": 1.0},
    "u": {"form": "sin", "amplitude": 0.25},
}
_BELL_PARAMS = {
    "a": {"form": "cos", "offset": 1.0, "amplitude": -0.9},
    "b": {"form": "cos", "offset": 1.0, "amplitude": -0.9},
    "c": {"form": "const", "offset": 1.0},
    "u": {"form": "cos", "offset": 1.0, "amplitude": 1.0, "frequency_multiple": 0.5},
    "v": {"form": "const", "offset": 2.0},
    "w": {"form": "cos", "offset": 1.0, "amplitude": -1.0, "frequency_multiple": 0.5},
}
_TRIMER_INTERCELL = {
    "a": {"form": "const", "offset": 1.0},
    "b": {"form": "const", "offset": 1.0},
    "c": {"form": "sin", "amplitude": 2.0},
    "u": {"form": "const"},
    "v": {"form": "const"},
    "w": {"form": "const"},
}
_TRIMER_INTRACELL = {
    "a": {"form": "sin", "amplitude": 1.0},
    "b": {"form": "sin", "amplitude": 1.0},
    "c": {"form": "const", "offset": 2.0},
    "u": {"form": "const"},
    "v": {"form": "const"},
    "w": {"form": "const"},
}

# Grid of the circuit_gap preset; the level sweep's f_alpha is one of its points.
GAP_SWEEP = {"start": 0.0, "stop": 0.3, "points": 31}


def _schedule(period, cycles=1, params=_PUMP_PARAMS, kind="rm", L=7):
    return {"kind": kind, "L": L, "T": period, "cycles": cycles, "params": params}


@dataclass
class Job:
    """One ``topochain run`` invocation: the config and extra CLI flags."""

    name: str
    config: dict
    flags: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.config = dict({"schema": 1}, **self.config, output=self.name)


def _quench(a, seed, **extra):
    return dict({
        "command": "quench", "kind": "ssh", "L": 7, "a": a, "b": 1.0,
        "disorder": {"sigma": 0.01}, "flip_site": 1, "t_final": 100.0,
        "n_records": 401, "seed": seed,
    }, **extra)


def _spectra(rng: random.Random) -> List[Job]:
    lo, hi = rng.uniform(0.2, 0.4), rng.uniform(0.6, 0.8)
    u = rng.uniform(0.05, 0.5)
    bare = {"bare_a": rng.uniform(0.5, 1.5), "bare_b": rng.uniform(0.5, 1.5)}
    grid = {"start": 0.0, "stop": 2.0, "points": 41}
    trace = {"command": "spectrum", "n_times": 201}
    return [
        Job("energylevel", {
            "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.0, "b": 1.0,
            "sweep": {"param": "a", "start": 0.0, "stop": 2.0, "points": 201},
        }),
        Job("rm_spectrum", dict(trace, schedule=_schedule(100.0))),
        Job("optimization_u_only", dict(trace, schedule=_schedule(100.0, params=_U_ONLY_PARAMS))),
        Job("optimization_full", dict(trace, schedule=_schedule(100.0, params=_OPTIMIZED_PARAMS))),
        Job("trimer_intercell", dict(trace, schedule=_schedule(100.0, kind="trimer", L=8, params=_TRIMER_INTERCELL))),
        Job("trimer_intracell", dict(trace, schedule=_schedule(100.0, kind="trimer", L=8, params=_TRIMER_INTRACELL))),
        Job("ssh3edges", {
            "command": "spectrum", "kind": "trimer", "L": 8,
            "a": 1.0, "b": 1.0, "c": 2.0, "u": 0.0, "v": 0.0, "w": 0.0, "export_states": "edge",
        }),
        Job("rm_a_sweep_L100", {
            "command": "spectrum", "kind": "rm", "L": 100, "a": lo, "b": 1.0, "u": u,
            "sweep": {"param": "a", "start": lo, "stop": hi, "points": 9},
        }),
        Job("couplings_identical", dict(bare, command="couplings", scheme="identical", alpha1=grid, alpha2=grid, n_max=40)),
        Job("couplings_matched", dict(bare, command="couplings", scheme="matched", alpha1=grid, alpha2=grid)),
    ]


def _pump(rng: random.Random) -> List[Job]:
    return [
        Job("pumping", {"command": "pump", "schedule": _schedule(100.0)}),
        Job("optimization_pump", {"command": "pump", "schedule": _schedule(100.0, cycles=3, params=_OPTIMIZED_PARAMS)}),
        Job("trivial_topological", _quench(0.1, rng.randrange(1, 2**31))),
        Job("trivial_uniform", _quench(1.0, rng.randrange(1, 2**31))),
        Job("lz1_path_a", {"command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 200.0}, "initial_state": "L"}),
        Job("lz1_path_b", {"command": "lz", "path": {"type": "line", "alpha": 1.0, "T": 200.0}, "initial_state": "L"}),
        Job("lz2_pump_path", {"command": "lz", "from_schedule": _schedule(100.0)}),
        Job("belltransfer", {
            "command": "trimer", "schedule": _schedule(1000.0, kind="trimer", L=7, params=_BELL_PARAMS),
            "signs": ["plus"],
        }),
    ]


def _crosscheck(rng: random.Random) -> List[Job]:
    amplitudes = ["--amplitudes"]
    pump = {"command": "pump", "schedule": _schedule(100.0), "n_records": 2001}
    return [
        Job("crosscheck_pump_rk4", dict(pump, integrator={"method": "rk4", "max_step": 0.002}), amplitudes),
        Job("crosscheck_pump_bdf", dict(pump), amplitudes),
        Job(
            "crosscheck_quench_rk4",
            _quench(0.1, rng.randrange(1, 2**31), n_records=2001, integrator={"method": "rk4"}),
            amplitudes,
        ),
    ]


def _circuit(rng: random.Random) -> List[Job]:
    grid = np.linspace(GAP_SWEEP["start"], GAP_SWEEP["stop"], GAP_SWEEP["points"])
    f_alpha = float(grid[rng.randint(10, 30)])  # a gap-grid point in [0.1, 0.3]
    return [
        Job("circuit_levels", {
            "command": "fluxqubit", "f_alpha": f_alpha,
            "f_eps_range": {"start": -0.05, "stop": 0.05, "points": 41}, "levels": 5,
        }),
        Job("circuit_gap", {"command": "fluxqubit", "f_alpha_sweep": dict(GAP_SWEEP)}),
    ]


_BUILDERS = {"spectra": _spectra, "pump": _pump, "crosscheck": _crosscheck, "circuit": _circuit}


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The jobs of one workload; the same seed always gives the same configs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
