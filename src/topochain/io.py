"""Bit-stable CSV and JSON artifact writers.

CSV cells use shortest round-trip float printing (repr), '.' decimals and
LF line endings so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy

from .dynamics import Trajectory
from .effective import LZPath, lz_eigen, TwoLevelSystem
from .spectra import SpectrumTrace


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")
    return path


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path, payload: dict) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# the interpreter and libraries a manifest's run used
VERSIONS = {"python": "{}.{}.{}".format(*sys.version_info[:3]), "numpy": np.__version__, "scipy": scipy.__version__}


def write_manifest(path: Path, version: str, config: dict, outputs: Sequence[Path], wall_time: float,
                   extras=None, blocks=None) -> Path:
    """``blocks`` holds further top-level records of what ran: ``integrator``
    maps each trajectory CSV's name to its ``Trajectory.integration`` record,
    and ``solver`` summarizes the flux-qubit eigensolves."""
    payload = {
        "tool": "topochain",
        "version": version,
        "versions": VERSIONS,
        "config": config,
        "wall_time_s": wall_time,
        "outputs": {Path(p).name: file_sha256(p) for p in outputs},
    }
    if extras:
        payload["extras"] = extras
    payload.update(blocks or {})
    return write_json(path, payload)


def trajectory_csv(path: Path, traj: Trajectory, amplitudes: bool = False) -> Path:
    n = traj.states.shape[1]
    header = ["t"] + [f"sz_{j}" for j in range(1, n + 1)]
    if amplitudes:
        for j in range(1, n + 1):
            header += [f"re_{j}", f"im_{j}"]
    rows = []
    for i, t in enumerate(traj.times):
        row = [t] + list(traj.sz[i])
        if amplitudes:
            for j in range(n):
                row += [traj.states[i, j].real, traj.states[i, j].imag]
        rows.append(row)
    return write_csv(path, header, rows)


def spectrum_trace_csv(path: Path, trace: SpectrumTrace) -> Path:
    n = trace.energies.shape[1]
    header = [trace.axis_name] + [f"E_{j}" for j in range(1, n + 1)] + [f"edge_flag_{j}" for j in range(1, n + 1)]
    rows = [
        [trace.times[i]] + list(trace.energies[i]) + list(trace.edge_flags[i])
        for i in range(trace.times.size)
    ]
    return write_csv(path, header, rows)


def static_spectrum_csv(path: Path, energies: np.ndarray, edge_flags: np.ndarray) -> Path:
    header = ["level", "energy", "edge_flag"]
    rows = [[j + 1, energies[j], edge_flags[j]] for j in range(energies.size)]
    return write_csv(path, header, rows)


def states_csv(path: Path, levels: Sequence[int], vectors: np.ndarray) -> Path:
    # vectors: (n_sites, n_levels) columns aligned with `levels` (1-based ids)
    header = ["site"] + [f"state_{lvl}" for lvl in levels]
    rows = [[site + 1] + list(vectors[site]) for site in range(vectors.shape[0])]
    return write_csv(path, header, rows)


def lz_path_csv(path: Path, lz_path: LZPath) -> Path:
    header = ["t", "u", "g", "E_minus", "E_plus"]
    rows = []
    for i in range(lz_path.times.size):
        e_minus, e_plus = lz_eigen(TwoLevelSystem(lz_path.u[i], lz_path.g[i]))
        rows.append([lz_path.times[i], lz_path.u[i], lz_path.g[i], e_minus, e_plus])
    return write_csv(path, header, rows)
