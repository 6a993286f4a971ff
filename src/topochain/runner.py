"""Execute a validated ExperimentConfig and write its CSV/JSON artifacts."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__, io
from ._kernels import one_blas_thread
from .config import ExperimentConfig, parse_config
from .dynamics import basis_state, pump, quench, transfer_fidelity
from .effective import LZPath, classify_path, lz_evolve
from .errors import InvalidParameterError
from .fluxcircuit import FluxQubitSpec, solver_record, sweep_point
from .models import SITES_PER_CELL, ChainHamiltonian, DisorderSpec, apply_disorder, chain_arrays
from .couplings import effective_coupling_identical, effective_coupling_matched
from .presets import FIGURE_IDS, PRESETS
from .spectra import (
    EDGE_FLAG_THRESHOLD,
    edge_weight,
    eigendecompose,
    instantaneous_spectrum,
    trace_from_hamiltonians,
)


@dataclass
class RunResult:
    files: List[Path]
    manifest: Path
    extras: dict


def _trajectory_csv(path: Path, traj, amplitudes: bool, blocks: dict) -> Path:
    blocks.setdefault("integrator", {})[path.name] = traj.integration
    return io.trajectory_csv(path, traj, amplitudes)


def _trace_csv(path: Path, trace, blocks: dict) -> Path:
    rows = trace.times.size
    blocks["solver"] = {"eigensolver": "lapack dstevd", "rows": rows, "solved": trace.solved,
                        "mirrored_rows": rows - trace.solved}
    return io.spectrum_trace_csv(path, trace)


def _build_model(model: dict, swept: Optional[dict] = None, shape: tuple = ()):
    """(diag, off) of the config's static model, the ``swept`` parameters
    replaced by columns of shape ``shape + (1,)``."""
    return chain_arrays(model["kind"], model["L"], {**model["params"], **(swept or {})}, shape)


def _run_spectrum(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    files, extras = [], {}
    if opts["mode"] == "trace":
        trace = instantaneous_spectrum(opts["schedule"], opts["L"], opts["n_times"])
        files.append(_trace_csv(out_dir / f"{stem}.csv", trace, blocks))
        return files, extras

    model = opts["model"]
    n_edge = SITES_PER_CELL[model["kind"]]
    if opts["mode"] == "sweep":
        sweep = opts["sweep"]
        name = opts["sweep_param"]
        values = np.linspace(sweep["start"], sweep["stop"], sweep["points"])
        diag, off = _build_model(model, {name: values[:, np.newaxis]}, values.shape)
        trace = trace_from_hamiltonians(values, diag, off, n_edge, axis_name=name)
        files.append(_trace_csv(out_dir / f"{stem}.csv", trace, blocks))
        return files, extras

    spectrum = eigendecompose(ChainHamiltonian(*_build_model(model)))
    flags = edge_weight(spectrum.eigenvectors, n_edge) >= EDGE_FLAG_THRESHOLD
    files.append(io.static_spectrum_csv(out_dir / f"{stem}.csv", spectrum.eigenvalues, flags))
    if opts.get("export_states") == "edge":
        levels = [int(j) + 1 for j in np.flatnonzero(flags)]
        vectors = spectrum.eigenvectors[:, [j - 1 for j in levels]]
        files.append(io.states_csv(out_dir / f"{stem}_states.csv", levels, vectors))
        extras["exported_levels"] = levels
        extras["exported_energies"] = [float(spectrum.eigenvalues[j - 1]) for j in levels]
    return files, extras


def _run_pump(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    schedule = opts["schedule"]
    n_sites = SITES_PER_CELL[schedule.kind] * opts["L"]
    psi0 = basis_state(n_sites, 1)
    n_records = opts["n_records"]
    traj = pump(schedule, opts["L"], psi0, cfg.integrator, n_records)
    files = [_trajectory_csv(out_dir / f"{stem}.csv", traj, amplitudes, blocks)]
    extras = {
        "final_max_site": int(np.argmax(traj.sz[-1])) + 1,
        "final_fidelity_last_site": transfer_fidelity(traj.final_state, basis_state(n_sites, n_sites)),
    }
    return files, extras


def _run_quench(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    chain = ChainHamiltonian(*_build_model(opts["model"]))
    if opts["disorder"] is not None:
        chain = apply_disorder(chain, DisorderSpec(opts["disorder"]["sigma"], cfg.seed))
    traj = quench(chain, opts["flip_site"], opts["t_final"], cfg.integrator, opts["n_records"])
    files = [_trajectory_csv(out_dir / f"{stem}.csv", traj, amplitudes, blocks)]
    extras = {"min_sz_flip_site": float(traj.sz[:, opts["flip_site"] - 1].min())}
    return files, extras


def _run_lz(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    files, extras = [], {}
    if "path" in opts:
        # integrated before the first file is written, so a failed integration leaves no file
        psi0 = np.array([1.0, 0.0] if opts["initial_state"] == "L" else [0.0, 1.0], dtype=np.complex128)
        traj = lz_evolve(opts["path"], psi0, cfg.integrator, opts["n_records"])
        files.append(io.lz_path_csv(out_dir / f"{stem}_path.csv", opts["path"]))
        extras["path_class"] = classify_path(opts["path"]).value
        files.append(_trajectory_csv(out_dir / f"{stem}.csv", traj, amplitudes, blocks))
        extras["final_population_L"] = float(np.abs(traj.final_state[0]) ** 2)
        extras["final_population_R"] = float(np.abs(traj.final_state[1]) ** 2)
    if "from_schedule" in opts:
        fs = opts["from_schedule"]
        path = LZPath.from_schedule(fs["schedule"], fs["L"])
        files.append(io.lz_path_csv(out_dir / f"{stem}_schedule_path.csv", path))
        extras["schedule_path_class"] = classify_path(path).value
    return files, extras


def _run_trimer(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    schedule = opts["schedule"]
    L = opts["L"]
    n = SITES_PER_CELL[schedule.kind] * L
    files, extras = [], {}
    # the signs share one propagation, each sign's state a column
    signs = np.array([1.0 if sign_name == "plus" else -1.0 for sign_name in opts["signs"]])
    psi0 = np.zeros((n, signs.size), dtype=np.complex128)
    psi0[0] = 1.0 / np.sqrt(2.0)
    psi0[1] = signs / np.sqrt(2.0)
    trajectories = pump(schedule, L, psi0, cfg.integrator, opts["n_records"])
    for sign_name, sign, traj in zip(opts["signs"], signs, trajectories):
        files.append(_trajectory_csv(out_dir / f"{stem}_{sign_name}.csv", traj, amplitudes, blocks))
        target = np.zeros(n, dtype=np.complex128)
        target[n - 2] = 1.0 / np.sqrt(2.0)
        target[n - 1] = sign / np.sqrt(2.0)
        extras[f"final_fidelity_{sign_name}"] = transfer_fidelity(traj.final_state, target)
    return files, extras


def _run_couplings(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    a1 = np.linspace(opts["alpha1"]["start"], opts["alpha1"]["stop"], opts["alpha1"]["points"])
    a2 = np.linspace(opts["alpha2"]["start"], opts["alpha2"]["stop"], opts["alpha2"]["points"])
    x, y = a1[:, None], a2[None, :]
    scheme = opts["scheme"]
    if scheme == "identical":
        p = effective_coupling_identical(opts["bare_a"], x, y, opts["n_max"])
        q = effective_coupling_identical(opts["bare_b"], x, y, opts["n_max"])
    else:
        p = effective_coupling_matched(opts["bare_a"], x, y, odd_bond=True).imag
        q = effective_coupling_matched(opts["bare_b"], x, y, odd_bond=False).imag
    columns = [np.repeat(a1, a2.size), np.tile(a2, a1.size), p.ravel(), q.ravel()]
    files = [io.write_csv(out_dir / f"{stem}.csv", ["alpha_1", "alpha_2", "P", "Q"], columns)]
    extras = {"scheme": scheme, "value_component": "real" if scheme == "identical" else "imag"}
    return files, extras


def _run_fluxqubit(cfg: ExperimentConfig, out_dir: Path, stem: str, amplitudes: bool, blocks: dict):
    opts = cfg.options
    spec = FluxQubitSpec(**opts["spec_kwargs"])
    rng = opts.get("f_alpha_sweep") or opts["f_eps_range"]
    values = np.linspace(rng["start"], rng["stop"], rng["points"])
    extras, mirrored = {}, 0
    if "f_alpha_sweep" in opts:
        point_stats = [{} for _ in values]
        header = ["f_alpha", "gap"]
        columns = [values, np.array([sweep_point(spec, fa, 0.0, 2, st)[1].gap for fa, st in zip(values, point_stats)])]
    else:
        # a range centred on an integer m has the levels, g_perp and g_par of
        # f_eps at 2m - f_eps (see fluxcircuit): the rows below the centre are
        # laid out as the mirrors of those above it and copied from them
        centre = (rng["start"] + rng["stop"]) / 2
        mirrored = values.size // 2 if centre.is_integer() else 0
        values[:mirrored] = 2 * centre - values[::-1][:mirrored]
        point_stats = [{} for _ in values[mirrored:]]
        levels = opts["levels"]
        solved = [sweep_point(spec, opts["f_alpha"], fe, levels, stats=st)
                  for fe, st in zip(values[mirrored:], point_stats)]
        points = solved[::-1][:mirrored] + solved
        header = ["f_eps"] + [f"E_{k}" for k in range(levels)] + ["g_perp", "g_par"]
        table = np.array([[*vals[:levels], character.g_perp, character.g_par] for vals, character in points])
        columns = [values, *table.T]
        extras["gap_at_first_point"] = float(points[0][1].gap)
    blocks["solver"] = solver_record(point_stats, mirrored)
    return [io.write_csv(out_dir / f"{stem}.csv", header, columns)], extras


_RUNNERS = {
    "spectrum": _run_spectrum,
    "pump": _run_pump,
    "quench": _run_quench,
    "lz": _run_lz,
    "trimer": _run_trimer,
    "couplings": _run_couplings,
    "fluxqubit": _run_fluxqubit,
}


def run(cfg: ExperimentConfig, out_dir, amplitudes: bool = False, stem=None) -> RunResult:
    """Run one experiment; returns the written data files and manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = stem or cfg.output or cfg.command
    blocks = {}  # top-level manifest records beside the extras: "integrator", "solver"
    # at one BLAS thread the bits do not follow the thread count (see one_blas_thread)
    with one_blas_thread() as blas:
        start = time.perf_counter()
        files, extras = _RUNNERS[cfg.command](cfg, out_dir, stem, amplitudes, blocks)
        wall = time.perf_counter() - start
    manifest = io.write_manifest(out_dir / f"{stem}.manifest.json", __version__, cfg.raw, files, wall, blas,
                                 extras, blocks)
    return RunResult(files, manifest, extras)


def reproduce(figure_ids, out_dir, amplitudes: bool = False, seed: Optional[int] = None) -> List[RunResult]:
    """Run every preset config filed under each figure id ("all" stands for
    every id), each with ``seed`` in place of its own when given.  Every id
    is checked before the first config runs."""
    ids = [name for arg in figure_ids for name in (FIGURE_IDS if arg == "all" else (arg,))]
    unknown = [name for name in ids if name not in PRESETS]
    if unknown:
        raise InvalidParameterError(f"unknown figure id {unknown[0]!r}; available: {', '.join(FIGURE_IDS)}")
    results = []
    for figure_id in dict.fromkeys(ids):
        for name, preset in PRESETS[figure_id]:
            cfg = parse_config(json.dumps(preset if seed is None else dict(preset, seed=seed)))
            results.append(run(cfg, out_dir, amplitudes, stem=name))
    return results
