"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces every ``topochain.*`` module attribute bound to
a traced function with a wrapper that records a span (name, start, end,
parent, run id) in memory, so nothing in the program changes.  A few
wrappers also note counts the layer exposes (integrator statistics, bytes
written, matrix sizes).  A traced name whose function no longer exists is
reported as absent, and its metrics read 0.

``Tracer.metrics`` turns the spans of the traced passes into the per-layer
metrics, each averaged per pass.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, List, Optional

LAYERS = ("cli", "config", "runner", "kernels", "models", "spectra", "dynamics",
          "effective", "couplings", "fluxcircuit", "io")


def _note_tridiag(tracer, args, result, seconds):
    tracer.notes["tridiag"].append((len(args[0]), seconds))


def _note_rk4(tracer, args, result, seconds):
    rec_times, max_step = args[5], float(args[6])
    steps = sum(max(math.ceil((b - a) / max_step), 1) for a, b in zip(rec_times[:-1], rec_times[1:]))
    tracer.counts["rk4.steps"] += steps


def _note_evolve(tracer, args, result, seconds):
    tracer.counts["evolve.sim_time"] += float(args[3]) - float(args[2])


def _note_solve_ivp(tracer, args, result, seconds):
    for key in ("nfev", "njev", "nlu"):
        tracer.counts[f"bdf.{key}"] += int(getattr(result, key))


def _note_flux_build(tracer, args, result, seconds):
    tracer.counts["flux.dim"] = max(tracer.counts["flux.dim"], int(result.shape[0]))


def _note_bytes(tracer, args, result, seconds):
    tracer.counts["io.bytes"] += os.path.getsize(result)


# (span name, module, attribute, note); several functions may share one name.
# The io.*_csv spans keep row formatting out of runner.run's self time.
TARGETS = [
    ("cli.main", "topochain.cli", "main", None),
    ("config.parse_config", "topochain.config", "parse_config", None),
    ("runner.run", "topochain.runner", "run", None),
    ("kernels.tridiag_eigh", "topochain._kernels", "tridiag_eigh", _note_tridiag),
    ("kernels.rk4_integrate", "topochain._kernels", "rk4_integrate", _note_rk4),
    ("models.sample_schedule", "topochain.models", "sample_schedule", None),
    ("models.build", "topochain.models", "build_ssh", None),
    ("models.build", "topochain.models", "build_rice_mele", None),
    ("models.build", "topochain.models", "build_trimer", None),
    ("models.build", "topochain.models", "build_aah", None),
    ("spectra.eigendecompose", "topochain.spectra", "eigendecompose", None),
    ("spectra.trace", "topochain.spectra", "trace_from_hamiltonians", None),
    ("dynamics.evolve", "topochain.dynamics", "evolve", _note_evolve),
    ("dynamics.bdf", "topochain.dynamics", "_evolve_bdf", None),
    ("dynamics.renormalize", "topochain.dynamics", "_renormalize", None),
    ("effective.lz_evolve", "topochain.effective", "lz_evolve", None),
    ("effective.from_schedule", "topochain.effective", "LZPath.from_schedule", None),
    ("couplings", "topochain.couplings", "effective_coupling_identical", None),
    ("couplings", "topochain.couplings", "effective_coupling_matched", None),
    ("couplings.bessel_jn", "topochain.couplings", "bessel_jn", None),
    ("fluxcircuit.point", "topochain.fluxcircuit", "sweep_point", None),
    ("fluxcircuit.point", "topochain.fluxcircuit", "qubit_gap", None),
    ("fluxcircuit.build", "topochain.fluxcircuit", "build_charge_hamiltonian", _note_flux_build),
    ("fluxcircuit.dh", "topochain.fluxcircuit", "d_hamiltonian_d_feps", None),
    ("io.write_csv", "topochain.io", "write_csv", _note_bytes),
    ("io.write_manifest", "topochain.io", "write_manifest", None),
    ("io.trajectory_csv", "topochain.io", "trajectory_csv", None),
    ("io.spectrum_trace_csv", "topochain.io", "spectrum_trace_csv", None),
    ("io.static_spectrum_csv", "topochain.io", "static_spectrum_csv", None),
    ("io.states_csv", "topochain.io", "states_csv", None),
    ("io.lz_path_csv", "topochain.io", "lz_path_csv", None),
]

# Wrapped for their counts only: a span here would hide the integrator's own
# time inside dynamics.bdf behind a child span.
COUNTERS = [
    ("dynamics.solve_ivp", "topochain.dynamics", "solve_ivp", _note_solve_ivp),
]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: list = []       # (name id, start, end, parent index, run index, self seconds)
        self.runs: List[str] = []
        self.run_index = -1
        self.stack: list = []       # [span index, seconds covered by children]
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)
        self.notes = defaultdict(list)
        self.absent: List[str] = []
        self.note_failures = defaultdict(int)
        self.enabled = True  # when False the wrappers only call through

    def start_run(self, run_id: str) -> None:
        self.runs.append(run_id)
        self.run_index = len(self.runs) - 1

    def _note(self, note, name, args, result, seconds):
        try:
            note(self, args, result, seconds)
        except Exception:  # a changed signature must not break the program
            self.note_failures[name] += 1

    def _span(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        layer = name.split(".")[0]
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name_id, start, end, parent, self.run_index, end - start - frame[1])
            if note is not None:
                self._note(note, name, args, result, end - start)
            return result

        return traced

    def _counter(self, name: str, fn: Callable, note: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self._note(note, name, args, result, 0.0)
            return result

        return counted

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for targets, make in ((TARGETS, self._span), (COUNTERS, self._counter)):
            for name, module_name, attr, note in targets:
                if not self._replace(module_name, attr, lambda fn, n=name, nt=note: make(n, fn, nt)):
                    self.absent.append(f"{name} ({module_name}.{attr})")

    @staticmethod
    def _replace(module_name: str, attr: str, make: Callable) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in attr:  # a classmethod, e.g. LZPath.from_schedule
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if not isinstance(raw, classmethod):
                return False
            setattr(cls, method, classmethod(make(raw.__func__)))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "topochain" or name.startswith("topochain.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    # -- results ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        epoch = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name_id, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": self.names[name_id], "start": start - epoch, "end": end - epoch,
                    "parent": parent if parent >= 0 else None, "run": self.runs[run],
                }, separators=(",", ":")) + "\n")

    def metrics(self, walls: List[float]) -> dict:
        """Per-layer metrics of the traced passes whose wall times are ``walls``."""
        passes = len(walls)
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        durations = defaultdict(list)
        for name_id, start, end, _, _, self_s in self.spans:
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            durations[name].append(end - start)

        def per_pass(value):
            return value / passes

        def median_of(values, scale):
            return statistics.median(values) * scale if values else 0.0

        by_size = defaultdict(list)
        for n, seconds in self.notes["tridiag"]:
            by_size[n].append(seconds)
        rk4_s, rk4_steps = total["kernels.rk4_integrate"], self.counts["rk4.steps"]
        evolve_s = total["dynamics.evolve"]
        point_s = total["fluxcircuit.point"]
        dim = self.counts["flux.dim"]
        m = {
            "kernels.tridiag_eigh.calls": per_pass(calls["kernels.tridiag_eigh"]),
            "kernels.tridiag_eigh.s": per_pass(total["kernels.tridiag_eigh"]),
            "kernels.tridiag_eigh.n14_us": median_of(by_size[14], 1e6),
            "kernels.tridiag_eigh.n24_us": median_of(by_size[24], 1e6),
            "kernels.tridiag_eigh.n200_ms": median_of(by_size[200], 1e3),
            "kernels.rk4_integrate.s": per_pass(rk4_s),
            "kernels.rk4.steps": per_pass(rk4_steps),
            "kernels.rk4.step_us": rk4_s / rk4_steps * 1e6 if rk4_steps else 0.0,
            "models.sample_schedule.calls": per_pass(calls["models.sample_schedule"]),
            "models.sample_schedule.s": per_pass(total["models.sample_schedule"]),
            "models.build.calls": per_pass(calls["models.build"]),
            "models.build.s": per_pass(total["models.build"]),
            "spectra.eigendecompose.calls": per_pass(calls["spectra.eigendecompose"]),
            "spectra.trace.self_s": per_pass(own["spectra.trace"]),
            "dynamics.evolve.calls": per_pass(calls["dynamics.evolve"]),
            "dynamics.evolve.s": per_pass(evolve_s),
            "dynamics.bdf.s": per_pass(total["dynamics.bdf"]),
            "dynamics.bdf.self_s": per_pass(own["dynamics.bdf"]),
            "dynamics.bdf.nfev": per_pass(self.counts["bdf.nfev"]),
            "dynamics.bdf.njev": per_pass(self.counts["bdf.njev"]),
            "dynamics.bdf.nlu": per_pass(self.counts["bdf.nlu"]),
            "dynamics.renormalize.s": per_pass(total["dynamics.renormalize"]),
            "dynamics.sim_time_per_s": self.counts["evolve.sim_time"] / evolve_s if evolve_s else 0.0,
            "effective.lz_evolve.s": per_pass(total["effective.lz_evolve"]),
            "effective.from_schedule.s": per_pass(total["effective.from_schedule"]),
            "couplings.calls": per_pass(calls["couplings"]),
            "couplings.s": per_pass(total["couplings"]),
            "couplings.bessel_jn.calls": per_pass(calls["couplings.bessel_jn"]),
            "fluxcircuit.points": per_pass(calls["fluxcircuit.point"]),
            "fluxcircuit.point_ms": median_of(durations["fluxcircuit.point"], 1e3),
            "fluxcircuit.build.s": per_pass(total["fluxcircuit.build"]),
            "fluxcircuit.dh.s": per_pass(total["fluxcircuit.dh"]),
            "fluxcircuit.solve.s": per_pass(point_s - total["fluxcircuit.build"] - total["fluxcircuit.dh"]),
            "fluxcircuit.dense_mb": dim * dim * 16 / 2**20,
            "io.write_csv.calls": per_pass(calls["io.write_csv"]),
            "io.write_csv.s": per_pass(total["io.write_csv"]),
            "io.bytes": per_pass(self.counts["io.bytes"]),
            "io.write_manifest.s": per_pass(total["io.write_manifest"]),
            "config.parse_s": per_pass(total["config.parse_config"]),
            "runner.run.self_s": per_pass(own["runner.run"]),
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = per_pass(self.errors[layer])
        m["trace.spans"] = per_pass(len(self.spans))
        m["trace.absent"] = len(self.absent)
        m["trace.coverage"] = sum(own.values()) / sum(walls)
        return m
