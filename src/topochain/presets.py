"""Bundled experiment configs reproducing each figure's data files.

Every preset is a plain JSON-ready dict that round-trips through
``config.parse_config`` unchanged; ``reproduce`` runs all configs filed
under one figure id.  The plain, gap-preserving and Bell pumps are the
``models`` schedules in their config form (``Schedule.to_dict``), so the
figures run the protocols that the tests check.
"""

from __future__ import annotations

from .models import bell_transfer_schedule, optimized_schedule, pump_schedule


def _figure_schedule(kind, L, params):
    """A schedule that only its figure preset runs: one period, T = 100."""
    return {"kind": kind, "L": L, "T": 100.0, "cycles": 1, "params": params}


def _trace(schedule):
    """The instantaneous spectrum along a schedule at 201 times."""
    return {"schema": 1, "command": "spectrum", "schedule": schedule, "n_times": 201}


def _trivial_quench(a):
    """A spin flipped on site 1 of a disordered 14-site SSH chain."""
    return {
        "schema": 1,
        "command": "quench",
        "kind": "ssh",
        "L": 7,
        "a": a,
        "b": 1.0,
        "disorder": {"sigma": 0.01},
        "flip_site": 1,
        "t_final": 100.0,
        "n_records": 401,
        "seed": 42,
    }


def _lz1_path(path_type):
    """The two-level system evolved from |L> along an lz path of alpha 1."""
    return {"schema": 1, "command": "lz", "path": {"type": path_type, "alpha": 1.0, "T": 200.0}, "initial_state": "L"}


PRESETS = {
    "energylevel": [
        (
            "energylevel",
            {
                "schema": 1,
                "command": "spectrum",
                "kind": "ssh",
                "L": 7,
                "a": 0.0,
                "b": 1.0,
                "sweep": {"param": "a", "start": 0.0, "stop": 2.0, "points": 201},
            },
        )
    ],
    "trivial": [("trivial_topological", _trivial_quench(0.1)), ("trivial_uniform", _trivial_quench(1.0))],
    "pumping": [("pumping", {"schema": 1, "command": "pump", "schedule": pump_schedule(100.0).to_dict(7)})],
    "rm": [("rm_spectrum", _trace(pump_schedule(100.0).to_dict(7)))],
    "lz1": [("lz1_path_a", _lz1_path("arc")), ("lz1_path_b", _lz1_path("line"))],
    "lz2": [("lz2_pump_path", {"schema": 1, "command": "lz", "from_schedule": pump_schedule(100.0).to_dict(7)})],
    "optimization": [
        (
            "optimization_u_only",
            _trace(
                _figure_schedule(
                    "rm",
                    7,
                    {
                        "a": {"form": "cos", "offset": 1.0, "amplitude": -1.0},
                        "b": {"form": "const", "offset": 1.0},
                        "u": {"form": "sin", "amplitude": 0.25},
                    },
                )
            ),
        ),
        ("optimization_full", _trace(optimized_schedule(100.0).to_dict(7))),
        ("optimization_pump", {"schema": 1, "command": "pump", "schedule": optimized_schedule(100.0, 3).to_dict(7)}),
    ],
    "trimer": [
        (
            "trimer_intercell",
            _trace(
                _figure_schedule(
                    "trimer",
                    8,
                    {
                        "a": {"form": "const", "offset": 1.0},
                        "b": {"form": "const", "offset": 1.0},
                        "c": {"form": "sin", "amplitude": 2.0},
                        "u": {"form": "const"},
                        "v": {"form": "const"},
                        "w": {"form": "const"},
                    },
                )
            ),
        ),
        (
            "trimer_intracell",
            _trace(
                _figure_schedule(
                    "trimer",
                    8,
                    {
                        "a": {"form": "sin", "amplitude": 1.0},
                        "b": {"form": "sin", "amplitude": 1.0},
                        "c": {"form": "const", "offset": 2.0},
                        "u": {"form": "const"},
                        "v": {"form": "const"},
                        "w": {"form": "const"},
                    },
                )
            ),
        ),
    ],
    "ssh3edges": [
        (
            "ssh3edges",
            {
                "schema": 1,
                "command": "spectrum",
                "kind": "trimer",
                "L": 8,
                "a": 1.0,
                "b": 1.0,
                "c": 2.0,
                "u": 0.0,
                "v": 0.0,
                "w": 0.0,
                "export_states": "edge",
            },
        )
    ],
    "belltransfer": [
        (
            "belltransfer",
            {
                "schema": 1,
                "command": "trimer",
                "schedule": bell_transfer_schedule(1000.0).to_dict(7),
                "signs": ["plus", "minus"],
            },
        )
    ],
    "circuit": [
        (
            "circuit_levels",
            {
                "schema": 1,
                "command": "fluxqubit",
                "f_alpha": 0.2,
                "f_eps_range": {"start": -0.05, "stop": 0.05, "points": 41},
                "levels": 5,
            },
        ),
        (
            "circuit_gap",
            {
                "schema": 1,
                "command": "fluxqubit",
                "f_alpha_sweep": {"start": 0.0, "stop": 0.3, "points": 31},
            },
        ),
    ],
}

FIGURE_IDS = tuple(sorted(PRESETS))
