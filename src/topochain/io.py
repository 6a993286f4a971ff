"""Bit-stable CSV and JSON artifact writers.

Every CSV goes through ``write_csv``: a header and one equal-length 1-D
numpy column per name, each formatted in one step: bool as "1"/"0",
integers by ``str``, float64 by shortest round-trip ``repr`` ('.' decimals);
any other dtype raises TypeError.  Rows go out in blocks of about
``BLOCK_CELLS`` cells with LF line endings, so memory stays flat in the
table's size and identical runs give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from .dynamics import Trajectory
from .spectra import SpectrumTrace

BLOCK_CELLS = 2048  # cells formatted and written at a time, in whole rows


def _formatter(column: np.ndarray):
    """The text of one entry of ``column``: int.__repr__ gives bools as 1/0."""
    if column.dtype.kind in "biu":
        return int.__repr__
    if column.dtype == np.float64:
        return float.__repr__
    raise TypeError(f"a CSV column must be bool, integer or float64, got {column.dtype}")


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> Path:
    """Write ``header``, then one row per entry of the equal-length 1-D
    ``columns``, one column per header name."""
    columns = [np.asarray(column) for column in columns]
    rows = columns[0].size if columns else 0
    if len(columns) != len(header) or any(column.shape != (rows,) for column in columns):
        raise ValueError(f"write_csv needs {len(header)} 1-D columns of one length")
    formats = [_formatter(column) for column in columns]
    block = max(1, BLOCK_CELLS // max(1, len(columns)))  # rows per block
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, block):
            cells = [map(fmt, column[start:start + block].tolist()) for fmt, column in zip(formats, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return Path(path)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path, payload: dict) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Path(path)


# the interpreter and libraries a manifest's run used
VERSIONS = {"python": "{}.{}.{}".format(*sys.version_info[:3]), "numpy": np.__version__, "scipy": scipy.__version__}


def write_manifest(path: Path, version: str, config: dict, outputs: Sequence[Path], wall_time: float, blas: dict,
                   extras=None, blocks=None) -> Path:
    """``blas`` is the record of ``_kernels.one_blas_thread``: the pinned
    OpenBLAS libraries and the thread count the run used.  ``blocks`` holds
    further top-level records of what ran: ``integrator`` maps each
    trajectory CSV's name to its ``Trajectory.integration`` record, and
    ``solver`` summarizes the eigensolves of a flux-qubit sweep or of a
    spectrum trace."""
    payload = {"tool": "topochain", "version": version, "versions": VERSIONS, "blas": blas, "config": config,
               "wall_time_s": wall_time, "outputs": {Path(p).name: file_sha256(p) for p in outputs}}
    if extras:
        payload["extras"] = extras
    payload.update(blocks or {})
    return write_json(path, payload)


def trajectory_csv(path: Path, traj: Trajectory, amplitudes: bool = False) -> Path:
    n = traj.states.shape[1]
    header = ["t"] + [f"sz_{j}" for j in range(1, n + 1)]
    columns = [traj.times, *traj.sz.T]
    if amplitudes:
        header += [f"{part}_{j}" for j in range(1, n + 1) for part in ("re", "im")]
        # the float64 view of a complex row is its (re, im) pairs in site order
        columns += [*np.ascontiguousarray(traj.states).view(np.float64).T]
    return write_csv(path, header, columns)


def spectrum_trace_csv(path: Path, trace: SpectrumTrace) -> Path:
    n = trace.energies.shape[1]
    header = [trace.axis_name] + [f"E_{j}" for j in range(1, n + 1)] + [f"edge_flag_{j}" for j in range(1, n + 1)]
    return write_csv(path, header, [trace.times, *trace.energies.T, *trace.edge_flags.T])


def static_spectrum_csv(path: Path, energies: np.ndarray, edge_flags: np.ndarray) -> Path:
    return write_csv(path, ["level", "energy", "edge_flag"], [np.arange(1, energies.size + 1), energies, edge_flags])


def states_csv(path: Path, levels: Sequence[int], vectors: np.ndarray) -> Path:
    # vectors: (n_sites, n_levels) columns aligned with `levels` (1-based ids)
    header = ["site"] + [f"state_{lvl}" for lvl in levels]
    return write_csv(path, header, [np.arange(1, vectors.shape[0] + 1), *vectors.T])


def lz_path_csv(path: Path, times: np.ndarray, u: np.ndarray, g: np.ndarray) -> Path:
    r = np.hypot(u, g)  # the levels of [[u, g], [g, -u]] are -+r; 0.0 - r is +0.0, not -0.0, at r = 0
    return write_csv(path, ["t", "u", "g", "E_minus", "E_plus"], [times, u, g, 0.0 - r, r])
