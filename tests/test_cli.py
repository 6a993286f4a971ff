"""Config validation, artifact determinism and the CLI surface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import topochain._kernels
import topochain.cli
import topochain.config
import topochain.dynamics
import topochain.runner
from topochain import apply_disorder
from topochain._kernels import _openblas_thread_controls
from topochain.cli import main
from topochain.config import UNREAD_INTEGRATOR_KEYS, _integration, parse_config
from topochain.dynamics import METHODS
from topochain.errors import IntegrationError, SchemaError
from topochain.io import file_sha256
from topochain.models import FunctionSpec, schedule_arrays
from topochain.presets import PRESETS
from topochain.runner import _build_model

from conftest import dense, make_chain, run_at_blas_threads


def _parse(cfg_dict):
    return parse_config(json.dumps(cfg_dict))


def _violations(cfg_dict):
    with pytest.raises(SchemaError) as err:
        _parse(cfg_dict)
    return err.value.violations


def test_minimal_spectrum_config_valid():
    cfg = _parse({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.1, "b": 1})
    assert cfg.command == "spectrum"
    assert cfg.options["mode"] == "static"
    assert cfg.options["model"]["params"]["a"] == 0.1


def test_pump_config_for_plain_pump_sequence_valid():
    cfg = _parse(PRESETS["pumping"][0][1])
    schedule = cfg.options["schedule"]
    assert schedule.period == 100.0
    vals = schedule.values(0.0)
    assert (vals["a"], vals["b"]) == (0.0, 1.0)


def test_ssh_spectrum_rejects_u_by_name():
    messages = _violations({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.1, "b": 1, "u": 0.5})
    assert any("'u'" in m for m in messages)


def test_unknown_command_and_malformed_json():
    messages = _violations({"schema": 1, "command": "teleport"})
    assert any("teleport" in m for m in messages)
    with pytest.raises(SchemaError):
        parse_config("{not json")


def test_all_violations_reported_together():
    messages = _violations(
        {"schema": 2, "command": "quench", "kind": "ssh", "L": 7, "a": 0.1, "b": 1, "bogus": 3}
    )
    assert any("schema" in m for m in messages)
    assert any("'bogus'" in m for m in messages)
    assert any("'t_final'" in m for m in messages)


def test_integrator_overrides():
    quench = {"schema": 1, "command": "quench", "kind": "ssh", "L": 2, "a": 0.1, "b": 1, "t_final": 1.0}
    cfg = _parse(dict(quench, integrator={"rel_tol": 1e-9, "method": "bdf"}))
    assert (cfg.integrator.rel_tol, cfg.integrator.method) == (1e-9, "bdf")
    cfg = _parse(dict(quench, integrator={"method": "rk4", "max_step": 0.002}))
    assert (cfg.integrator.method, cfg.integrator.max_step) == ("rk4", 0.002)
    assert _parse(dict(quench, integrator={"method": "rk4"})).integrator.max_step == 0.01


def test_presets_round_trip_unchanged():
    for figure, entries in PRESETS.items():
        for name, preset in entries:
            cfg = _parse(preset)
            assert cfg.raw == preset, f"{figure}/{name} mutated by parsing"


QUENCH_CFG = {
    "schema": 1,
    "command": "quench",
    "kind": "ssh",
    "L": 7,
    "a": 0.1,
    "b": 1.0,
    "disorder": {"sigma": 0.01},
    "t_final": 10.0,
    "n_records": 21,
    "seed": 42,
}


def test_run_is_deterministic(tmp_path):
    cfg_path = tmp_path / "quench.json"
    cfg_path.write_text(json.dumps(QUENCH_CFG))
    digests = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        digests.append(file_sha256(out / "quench.csv"))
        manifest = json.loads((out / "quench.manifest.json").read_text())
        assert manifest["outputs"]["quench.csv"] == digests[-1]
        assert manifest["config"] == QUENCH_CFG
        assert manifest["tool"] == "topochain"
    assert digests[0] == digests[1]


def test_manifest_records_the_library_versions(tmp_path):
    cfg_path = tmp_path / "quench.json"
    cfg_path.write_text(json.dumps(QUENCH_CFG))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "quench.manifest.json").read_text())
    assert manifest["versions"] == {"python": "{}.{}.{}".format(*sys.version_info[:3]),
                                    "numpy": np.__version__, "scipy": scipy.__version__}


def _blas_threads(controls):
    return [getter() for _, getter, _ in controls]


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_a_run_holds_blas_at_one_thread(tmp_path, monkeypatch, fails):
    # each OpenBLAS library reads one thread inside the run, and its own
    # count again after it, also after a run that raises
    controls = _openblas_thread_controls()
    assert controls, "no OpenBLAS library with a thread setter is loaded"
    spectrum, seen = topochain.runner._RUNNERS["spectrum"], []

    def spying(*args):
        seen.append(_blas_threads(controls))
        if fails:
            raise IntegrationError("the state became non-finite")
        return spectrum(*args)

    monkeypatch.setitem(topochain.runner._RUNNERS, "spectrum", spying)
    cfg = _parse({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1})
    original = _blas_threads(controls)
    for _, _, setter in controls:  # a count other than 1, so that its return shows
        setter(2)
    try:
        if fails:
            with pytest.raises(IntegrationError):
                topochain.runner.run(cfg, tmp_path)
        else:
            manifest = json.loads(topochain.runner.run(cfg, tmp_path).manifest.read_text())
            assert manifest["blas"] == {"libraries": [name for name, _, _ in controls], "threads": 1}
        assert seen == [[1] * len(controls)]
        assert _blas_threads(controls) == [2] * len(controls)
    finally:
        for (_, _, setter), count in zip(controls, original):
            setter(count)


def test_manifest_records_a_run_with_no_blas_setter(tmp_path, monkeypatch):
    monkeypatch.setattr(topochain._kernels, "_openblas_thread_controls", lambda: ())
    cfg = _parse({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1})
    manifest = json.loads(topochain.runner.run(cfg, tmp_path).manifest.read_text())
    assert manifest["blas"] == {"libraries": [], "threads": None}


def test_pump_csv_across_blas_thread_counts(tmp_path):
    # fresh interpreters: BDF's Newton solve (scipy's OpenBLAS zgetrs) would
    # round in the order of the thread split; a run holds one thread
    cfg = dict(PRESETS["optimization"])["optimization_pump"]
    one, two = (run_at_blas_threads(cfg, tmp_path / f"threads{t}", t) / "pump.csv" for t in (1, 2))
    assert one.read_bytes() == two.read_bytes()


def test_seed_override_changes_disorder(tmp_path):
    cfg_path = tmp_path / "quench.json"
    cfg_path.write_text(json.dumps(QUENCH_CFG))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "7"]) == 0
    assert file_sha256(out1 / "quench.csv") != file_sha256(out2 / "quench.csv")


def test_pump_csv_ends_on_far_site(tmp_path):
    cfg = {"schema": 1, "command": "pump", "schedule": PRESETS["pumping"][0][1]["schedule"], "n_records": 51}
    cfg_path = tmp_path / "pump.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "pump.csv") as fh:
        rows = list(csv.reader(fh))
    header, last = rows[0], rows[-1]
    sz = [float(x) for x in last[1:15]]
    assert header[14] == "sz_14"
    assert int(np.argmax(sz)) == 13


def test_trajectory_amplitude_columns(tmp_path):
    cfg = {
        "schema": 1,
        "command": "quench",
        "kind": "ssh",
        "L": 1,
        "a": 0.5,
        "b": 1.0,
        "t_final": 1.0,
        "n_records": 3,
    }
    cfg_path = tmp_path / "q.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path), "--amplitudes"]) == 0
    with open(tmp_path / "quench.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "sz_1", "sz_2", "re_1", "im_1", "re_2", "im_2"]


def test_csv_uses_lf_and_roundtrip_floats(tmp_path):
    cfg_path = tmp_path / "q.json"
    cfg_path.write_text(json.dumps(QUENCH_CFG))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "quench.csv").read_bytes()
    assert b"\r" not in raw
    cell = raw.decode().splitlines()[1].split(",")[1]
    assert float(cell) == float(repr(float(cell)))  # shortest round-trip form


def test_fluxqubit_sweep_gpar_zero_at_optimal_point(tmp_path):
    cfg = {
        "schema": 1,
        "command": "fluxqubit",
        "spec": {"charge_cutoff": 4},
        "f_alpha": 0.2,
        "f_eps_range": {"start": -0.004, "stop": 0.004, "points": 5},
        "levels": 3,
    }
    cfg_path = tmp_path / "flux.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "fluxqubit.csv") as fh:
        rows = list(csv.DictReader(fh))
    centre = rows[2]
    assert float(centre["f_eps"]) == 0.0
    assert abs(float(centre["g_par"])) <= 1e-8
    assert float(centre["g_perp"]) > 0.0


def test_fluxqubit_manifest_records_the_solver(tmp_path):
    levels = {"schema": 1, "command": "fluxqubit", "spec": {"charge_cutoff": 4}, "f_alpha": 0.2,
              "f_eps_range": {"start": -0.004, "stop": 0.004, "points": 3}, "levels": 3, "output": "levels"}
    gap = {"schema": 1, "command": "fluxqubit", "spec": {"charge_cutoff": 4},
           "f_alpha_sweep": {"start": 0.0, "stop": 0.3, "points": 4}, "output": "gap"}
    for cfg, points in ((levels, 3), (gap, 4)):
        cfg_path = tmp_path / "flux.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        solver = json.loads((tmp_path / f"{cfg['output']}.manifest.json").read_text())["solver"]
        assert solver["dimension"] == 81 and solver["band_width"] == 10
        assert solver["factorization"] == "lapack zpbtrf/zpbtrs" and solver["points"] == points
        # the level range is centred on 0, so its first row mirrors its last
        # and is not solved; the gap sweep solves every point
        assert solver["mirrored_points"] == (1 if cfg is levels else 0)
        solved = points - solver["mirrored_points"]
        # every solved point's shift is below its E_0, and one factorization serves each point
        assert solver["shift_min"] <= solver["shift_max"]
        assert 0.0 < solver["ground_minus_shift_min"] <= solver["ground_minus_shift_max"]
        assert solver["factorizations_total"] == solved
        assert 0 < solver["solves_max_per_point"] <= solver["solves_total"] <= solved * solver["solves_max_per_point"]


def test_spectrum_manifest_records_the_mirrored_rows(tmp_path):
    # the plain pump's trace mirrors about its middle row, the a-sweep does not
    for figure_id, stem, solved in (("rm", "rm_spectrum", 101), ("energylevel", "energylevel", 201)):
        assert main(["reproduce", figure_id, "--out", str(tmp_path)]) == 0
        solver = json.loads((tmp_path / f"{stem}.manifest.json").read_text())["solver"]
        assert solver == {"eigensolver": "lapack dstevd", "rows": 201, "solved": solved, "mirrored_rows": 201 - solved}


def test_cli_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.1, "b": 1, "u": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["reproduce", "nosuchfigure", "--out", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1


def test_trace_csv_round_trips_exactly(tmp_path):
    from topochain import instantaneous_spectrum, pump_schedule
    from topochain.io import spectrum_trace_csv

    trace = instantaneous_spectrum(pump_schedule(10.0), 3, 7)
    path = spectrum_trace_csv(tmp_path / "trace.csv", trace)
    data = np.genfromtxt(path, delimiter=",", names=True)
    for j in range(6):
        assert np.array_equal(data[f"E_{j + 1}"], trace.energies[:, j])
    assert np.array_equal(data["t"], trace.times)


def test_rk4_method_via_config(tmp_path):
    cfg = {
        "schema": 1,
        "command": "pump",
        "schedule": {
            "kind": "rm",
            "L": 2,
            "T": 5.0,
            "cycles": 1,
            "params": PRESETS["pumping"][0][1]["schedule"]["params"],
        },
        "n_records": 11,
        "integrator": {"method": "rk4", "max_step": 0.005},
    }
    cfg_path = tmp_path / "pump_rk4.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    cfg["integrator"] = {"rel_tol": 1e-10, "abs_tol": 1e-12}
    cfg_path.write_text(json.dumps(cfg))
    out2 = tmp_path / "bdf"
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    rows_rk4 = np.genfromtxt(tmp_path / "pump.csv", delimiter=",", names=True)
    rows_bdf = np.genfromtxt(out2 / "pump.csv", delimiter=",", names=True)
    for j in range(1, 5):
        assert np.abs(rows_rk4[f"sz_{j}"] - rows_bdf[f"sz_{j}"]).max() < 1e-7


def test_spectrum_trace_mode(tmp_path):
    cfg = {
        "schema": 1,
        "command": "spectrum",
        "schedule": PRESETS["rm"][0][1]["schedule"],
        "n_times": 11,
        "output": "rm_trace",
    }
    cfg_path = tmp_path / "trace.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "rm_trace.csv") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    assert header[0] == "t" and header[1] == "E_1" and header[15] == "edge_flag_1"
    # degenerate mid-gap pair at t = 0 is edge-flagged
    assert first[15 + 6] == "1" and first[15 + 7] == "1"


def test_states_export_mode(tmp_path):
    cfg = dict(PRESETS["ssh3edges"][0][1])
    cfg_path = tmp_path / "edges.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "spectrum.manifest.json").read_text())
    assert len(manifest["extras"]["exported_levels"]) == 4
    with open(tmp_path / "spectrum_states.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 25  # header + 24 sites
    assert rows[0][0] == "site"


def test_trimer_command_short_run(tmp_path):
    cfg = {
        "schema": 1,
        "command": "trimer",
        "schedule": {
            "kind": "trimer",
            "L": 2,
            "T": 5.0,
            "cycles": 1,
            "params": PRESETS["belltransfer"][0][1]["schedule"]["params"],
        },
        "signs": ["plus"],
        "n_records": 11,
    }
    cfg_path = tmp_path / "trimer.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "trimer.manifest.json").read_text())
    assert "final_fidelity_plus" in manifest["extras"]
    with open(tmp_path / "trimer_plus.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t"] + [f"sz_{j}" for j in range(1, 7)]


@pytest.mark.parametrize("signs", [[], ["plus", "plus"]], ids=["empty", "repeated"])
def test_trimer_signs_must_be_distinct_and_present(tmp_path, capsys, signs):
    # an empty list wrote only a manifest, a repeated sign its CSV twice
    cfg = dict(PRESETS["belltransfer"][0][1], signs=signs)
    cfg_path = tmp_path / "trimer.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "key 'signs'" in err and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.manifest.json"))


def _rejected(tmp_path, capsys, text, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "levels, spec, key",
    [
        (0, {}, "levels"),
        (21, {}, "levels"),
        (48, {"charge_cutoff": 3}, "levels"),
        (8, {"charge_cutoff": 1}, "levels"),
        (5, {"charge_cutoff": 0}, "charge_cutoff"),
        (5, {"charge_cutoff": 51}, "charge_cutoff"),
    ],
)
def test_fluxqubit_solver_bounds_are_named_violations(tmp_path, capsys, levels, spec, key):
    cfg = {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "levels": levels, "spec": spec}
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


_GAP_SWEEP = {"command": "fluxqubit", "f_alpha_sweep": {"start": 0.0, "stop": 0.3, "points": 4}}
_A_SWEEP = {"command": "spectrum", "kind": "ssh", "L": 7, "a": 0.0, "b": 1.0,
            "sweep": {"param": "a", "start": 0.0, "stop": 2.0, "points": 5}}
_INDUCED_PATH = {"command": "lz", "from_schedule": PRESETS["lz2"][0][1]["from_schedule"]}
_GRID = {"start": 0.0, "stop": 1.0, "points": 3}
_MATCHED = {"command": "couplings", "scheme": "matched", "alpha1": _GRID, "alpha2": _GRID}
_SMALL_QUENCH = {"command": "quench", "kind": "ssh", "L": 2, "a": 0.1, "b": 1, "t_final": 1.0}


def _without(cfg: dict, key: str) -> dict:
    """``cfg`` less the key at the dotted path ``key``."""
    head, _, rest = key.partition(".")
    if rest:
        return dict(cfg, **{head: _without(cfg[head], rest)})
    return {k: v for k, v in cfg.items() if k != head}


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(_GAP_SWEEP, levels=7), "levels"),
        (dict(_GAP_SWEEP, f_alpha=0.2), "f_alpha"),
        (dict(_GAP_SWEEP, f_eps_range={"start": -0.05, "stop": 0.05, "points": 41}), "f_eps_range"),
        (dict(_A_SWEEP, export_states="edge"), "export_states"),
        (dict(_INDUCED_PATH, initial_state="R"), "initial_state"),
        (dict(_INDUCED_PATH, n_records=51), "n_records"),
        ({"command": "spectrum", "kind": "ssh", "L": 2, "a": 0.1, "b": 1,
          "integrator": {"method": "rk4", "max_step": 0.5}}, "integrator"),
        (dict(_A_SWEEP, integrator={"rel_tol": 1e-6}), "integrator"),
        (dict(_MATCHED, integrator={"method": "bdf"}), "integrator"),
        (dict(_GAP_SWEEP, integrator={"method": "magnus"}), "integrator"),
        (dict(_INDUCED_PATH, integrator={}), "integrator"),
        ({"command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0},
          "integrator": {"method": "magnus", "abs_tol": 1e-3}}, "integrator.abs_tol"),
        (dict(_MATCHED, n_max=3), "n_max"),
    ],
    ids=["gap-levels", "gap-f_alpha", "gap-f_eps_range", "sweep-export_states",
         "from_schedule-initial_state", "from_schedule-n_records", "spectrum-integrator", "sweep-integrator",
         "couplings-integrator", "fluxqubit-integrator", "from_schedule-integrator",
         "lz-path-magnus-abs_tol", "matched-n_max"],
)
def test_keys_the_run_never_reads_are_named_violations(tmp_path, capsys, cfg, key):
    # no run reads these keys: the gap sweep solves two levels a point at
    # f_eps = 0, a sweep exports no states, an lz run reads them only
    # beside the path it integrates, only a run that integrates reads an
    # integrator, Magnus reads no abs_tol (on an lz path as on a quench;
    # each method's keys are the next test's), and the matched couplings
    # J0 J1 have no series to cut
    _parse(dict(_without(cfg, key), schema=1))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, schema=1)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    violations = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
    name = key.rpartition(".")[2]
    assert len(violations) == 1 and f"'{name}'" in violations[0], violations
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "max_step"])
@pytest.mark.parametrize("method", METHODS)
def test_integrator_keys_a_method_does_not_read_are_named_violations(tmp_path, capsys, method, key):
    # RK4 takes fixed steps of max_step, Magnus halves its steps from its
    # convergence radius until rel_tol holds, and BDF reads both tolerances
    # and controls its own step: a key its method does not read exits 2 by
    # name, with nothing written, and every other key is read
    cfg = dict(_TINY_QUENCH, integrator={"method": method, key: 0.002})
    if key not in UNREAD_INTEGRATOR_KEYS[method]:
        assert getattr(_parse(cfg).integrator, key) == 0.002
        return
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    violations = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
    assert violations == [f"  - key '{key}' in config.integrator is not read by method '{method}'"]
    assert not (tmp_path / "out").exists()


def test_pump_without_a_method_reads_no_max_step():
    # pump alone runs BDF, which controls its own step
    cfg = {"schema": 1, "command": "pump", "schedule": PRESETS["pumping"][0][1]["schedule"],
           "integrator": {"max_step": 0.002}}
    assert _violations(cfg) == ["key 'max_step' in config.integrator is not read by method 'bdf'"]


@pytest.mark.parametrize(
    "cfg",
    [
        dict(_SMALL_QUENCH, integrator={"method": "bdf", "rel_tol": 1e-6, "abs_tol": 1e-8}),
        {"command": "pump", "schedule": PRESETS["pumping"][0][1]["schedule"],
         "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-8}},
    ],
    ids=["bdf", "pump-default"],
)
def test_bdf_reads_both_tolerances(cfg):
    # pump without a method resolves to BDF
    integrator = _parse(dict(cfg, schema=1)).integrator
    assert (integrator.method, integrator.rel_tol, integrator.abs_tol) == ("bdf", 1e-6, 1e-8)


@pytest.mark.parametrize("subcommand", ["couplings", "fluxqubit"])
def test_flag_front_ends_are_gone(tmp_path, capsys, subcommand):
    # every command is a config, reached through run --config
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"invalid choice: '{subcommand}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{run,reproduce}" in capsys.readouterr().out


_AAH_PARAMS = {"n_sites": 13, "omega": 1.5, "alpha": 0.618, "phase": 0.4, "hop": -0.8}
_REDUCE = {"a": 0.3, "b": 1.0, "L": 7}
_TINY_SCHEDULE = {"kind": "ssh", "L": 2, "T": 5.0, "params": {
    "a": {"form": "const", "offset": 0.5}, "b": {"form": "const", "offset": 1.0}}}
_LEVEL_SWEEP = {"command": "fluxqubit", "f_alpha": 0.2}
_TINY_QUENCH = {"schema": 1, "command": "quench", "kind": "ssh", "L": 2, "a": 0.1, "b": 1, "t_final": 1.0}
_SPEC = "in command 'fluxqubit'.spec"

# each retired config and the violations it must name: a removed key is
# unknown, and export_states takes only "edge"
RETIRED = [
    ({"command": "spectrum", "kind": "aah", **_AAH_PARAMS}, ["key 'kind'"]),
    ({"command": "quench", "kind": "aah", **_AAH_PARAMS, "t_final": 1.0}, ["key 'kind'"]),
    ({"command": "lz", "reduce": _REDUCE}, ["unknown key 'reduce'"]),
    ({"command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0}, "reduce": _REDUCE}, ["unknown key 'reduce'"]),
    ({"command": "pump", "schedule": _TINY_SCHEDULE, "initial_site": 0},
     ["unknown key 'initial_site' in command 'pump'"]),
    ({"command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1, "export_states": [99]},
     ["key 'export_states' in command 'spectrum' must be a string"]),
    ({"command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1, "export_states": [1, 0]},
     ["key 'export_states' in command 'spectrum' must be a string"]),
    ({"command": "lz", "path": {"type": "arc", "alpha": 1, "T": 5}, "classify_tol": 0},
     ["unknown key 'classify_tol' in command 'lz'"]),
    (dict(_TINY_QUENCH, disorder={"sigma": 0.01, "seed": 3}), ["unknown key 'seed' in command 'quench'.disorder"]),
    (dict(_TINY_QUENCH, disorder={"sigma": 0.01, "targets": ["diagonal"]}),
     ["unknown key 'targets' in command 'quench'.disorder"]),
    (dict(_LEVEL_SWEEP, spec={"ej": -1}), [f"unknown key 'ej' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"ej_over_ec": 0}), [f"unknown key 'ej_over_ec' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"alpha": -0.5}), [f"unknown key 'alpha' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"ej_over_ec": math.inf}), [f"unknown key 'ej_over_ec' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"ej": 1e300, "ej_over_ec": 1e-300, "charge_cutoff": 2}),
     [f"unknown key 'ej' {_SPEC}", f"unknown key 'ej_over_ec' {_SPEC}"]),
    ({"command": "fluxqubit", "f_alpha_sweep": {"start": 0.1, "stop": 0.3, "points": 3},
      "spec": {"beta": 1e308, "charge_cutoff": 2}}, [f"unknown key 'beta' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, f_alpha=10, spec={"f_sigma_kappa": 1e308, "charge_cutoff": 2}),
     [f"unknown key 'f_sigma_kappa' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"n_total": 10**400, "charge_cutoff": 2}), [f"unknown key 'n_total' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"n_diff": 2, "charge_cutoff": 2}), [f"unknown key 'n_diff' {_SPEC}"]),
    (dict(_LEVEL_SWEEP, spec={"n_diff": 10**400, "charge_cutoff": 2}), [f"unknown key 'n_diff' {_SPEC}"]),
]
_RETIRED_IDS = ["spectrum-aah", "quench-aah", "lz-reduce", "lz-path-reduce", "initial_site-0", "export_states-99",
                "export_states-0", "classify_tol", "disorder-seed", "disorder-targets", "ej", "ej_over_ec", "alpha",
                "ej_over_ec-Infinity", "flux-energies", "flux-beta", "flux-kappa", "flux-n-total", "n_diff",
                "flux-n-diff"]


@pytest.mark.parametrize("cfg, expected", RETIRED, ids=_RETIRED_IDS)
def test_retired_config_surface_is_named_violations(tmp_path, capsys, cfg, expected):
    # the Aubry-Andre-Harper chain kind, the lz reduction report and the
    # keys no figure or benchmark set (the circuit parameters, classify_tol,
    # initial_site, a level list to export, the disorder's own seed and
    # targets) are gone: a config that asks for one is rejected by name,
    # and nothing runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, schema=1)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in expected) and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_retired_config_surface_fails_cleanly_in_a_fresh_interpreter(tmp_path):
    # every retired config in one fresh interpreter, so a numpy
    # RuntimeWarning would reach stderr
    code, err = _run_fresh(tmp_path, *(dict(cfg, schema=1) for cfg, _ in RETIRED))
    assert code == 2 and "Warning" not in err and "Traceback" not in err, err
    assert all(text in err for _, expected in RETIRED for text in expected), err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"cfg{k}.json" for k in range(len(RETIRED)))


@pytest.mark.parametrize("output", ["../escaped", "sub/x", ".", "..", "", "a\0b"],
                         ids=["parent", "subdirectory", "dot", "dot-dot", "empty", "null-byte"])
def test_output_must_be_a_plain_file_name(tmp_path, capsys, output):
    # output names the files the run writes into --out; "../escaped" wrote
    # outside it, "sub/x" failed at run time with FileNotFoundError and a
    # null byte with ValueError
    cfg = {"schema": 1, "command": "couplings", "alpha1": _GRID, "alpha2": _GRID, "output": output}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"key 'output' in config must be a plain file name, got {output!r}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("size, exit_code", [(237, 0), (238, 2)])
def test_output_leaves_room_for_every_suffix(tmp_path, size, exit_code):
    # a fresh interpreter: a longer output passed the config, then failed the
    # run with "File name too long" (exit 1) and left an empty --out
    # directory.  The lz from_schedule run writes the longest name the runner
    # forms, <output>_schedule_path.csv, and a two-byte letter makes the
    # bound count UTF-8 bytes, not characters
    output = "\u00e9" * (size // 2) + "x" * (size % 2)
    assert len(output.encode("utf-8")) == size
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(dict(_INDUCED_PATH, schema=1, output=output)))
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "topochain.cli", "run", "--config", str(cfg_path), "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == exit_code and "Traceback" not in proc.stderr, proc.stderr
    if exit_code == 0:
        assert sorted(p.name for p in out.iterdir()) == sorted([f"{output}_schedule_path.csv",
                                                               f"{output}.manifest.json"])
    else:
        assert "key 'output' in config must be at most 237 bytes in UTF-8, got 238" in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ({"alpha1": {"start": 50.0, "stop": 1.0, "points": 3}}, "start"),
        ({"alpha2": {"start": 0.0, "stop": -63.0, "points": 3}}, "stop"),
        ({"n_max": -1}, "n_max"),
        ({"n_max": 101}, "n_max"),
        ({"alpha1": {"start": 0.0, "stop": 1.0, "points": 202}}, "points"),
        ({"alpha2": {"start": 0.0, "stop": 1.0, "points": 1000}}, "points"),
    ],
    ids=["alpha1-start", "alpha2-stop", "n_max-negative", "n_max-101", "alpha1-points", "alpha2-points"],
)
def test_couplings_bounds_are_named_violations(tmp_path, capsys, override, key):
    grid = {"start": 0.0, "stop": 1.0, "points": 3}
    cfg = dict({"schema": 1, "command": "couplings", "alpha1": grid, "alpha2": grid}, **override)
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 0, "a": 0.1, "b": 1}, "L"),
        (dict(_TINY_QUENCH, n_records=1), "n_records"),
        ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE, "n_records": 1}, "n_records"),
        (dict(_TINY_QUENCH, flip_site=9), "flip_site"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 2}}, "n_samples"),
    ],
    ids=["L-0", "quench-n_records-1", "pump-n_records-1", "flip_site-9", "lz-n_samples-2"],
)
def test_sizes_and_sites_are_named_violations(tmp_path, capsys, cfg, key):
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


_SSH_SPECTRUM = {"schema": 1, "command": "spectrum", "kind": "ssh", "a": 0.1, "b": 1}
_TRACE = {"schema": 1, "command": "spectrum", "n_times": 201}
_SWEEP = {"param": "a", "start": 0.0, "stop": 2.0}


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(_SSH_SPECTRUM, L=100000000), "L"),
        (dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=501)), "L"),
        (dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=100), n_times=1001), "n_times"),
        (dict(_SSH_SPECTRUM, L=100, sweep=dict(_SWEEP, points=1001)), "points"),
        (dict(_TINY_QUENCH, L=501), "L"),
        (dict(_TINY_QUENCH, n_records=50001), "n_records"),
        ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE, "n_records": 50001}, "n_records"),
        ({"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, cycles=250)}, "cycles"),
        ({"schema": 1, "command": "trimer", "schedule": dict(PRESETS["belltransfer"][0][1]["schedule"], L=334)}, "L"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0}, "n_records": 100001},
         "n_records"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 100001}},
         "n_samples"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 1000000000}},
         "n_samples"),
    ],
    ids=["spectrum-L", "trace-L", "trace-n_times", "sweep-points", "quench-L", "quench-n_records",
         "pump-n_records", "pump-cycles", "trimer-L", "lz-n_records", "lz-n_samples", "lz-n_samples-1e9"],
)
def test_size_bounds_are_named_violations(tmp_path, capsys, cfg, key):
    # parsed only: a config over a bound is rejected before anything runs
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


def test_size_bounds_admit_their_limits():
    # 1000 sites, and 200,000 rows x sites, exactly
    _parse(dict(_SSH_SPECTRUM, L=500))
    _parse(dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=100), n_times=1000))
    _parse(dict(_SSH_SPECTRUM, L=500, sweep=dict(_SWEEP, points=200)))
    _parse(dict(_TINY_QUENCH, n_records=50000))
    _parse({"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, cycles=249)})
    _parse({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0}, "n_records": 100000})
    _parse({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 100000}})


@pytest.mark.parametrize(
    "cfg",
    [
        dict(_TINY_QUENCH, integrator={"method": "rk4", "max_step": 1e-300}),
        dict(_TINY_QUENCH, t_final=1e300, integrator={"method": "rk4"}),
        dict(_TINY_QUENCH, t_final=20000.01, integrator={"method": "rk4"}),
        {"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, T=1000.0, cycles=5),
         "integrator": {"method": "rk4", "max_step": 0.002}},
        {"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 3000.0},
         "integrator": {"method": "rk4", "max_step": 0.001}},
    ],
    ids=["max_step-1e-300", "t_final-1e300", "just-over", "pump-cycles", "lz-path"],
)
def test_rk4_step_budget_is_a_named_violation(cfg):
    # parsed only: a config over the budget is never run
    messages = _violations(cfg)
    assert len(messages) == 1 and "'max_step'" in messages[0] and "2,000,000" in messages[0]


def test_rk4_step_budget_admits_its_limit():
    # 20000 / 0.01, the default step, is the budget exactly
    _parse(dict(_TINY_QUENCH, t_final=20000.0, integrator={"method": "rk4"}))


_BELL = PRESETS["belltransfer"][0][1]  # ||H|| <= 2 + 1.9 + 1.9 = 5.8 by Gershgorin
_RAMP_SCHEDULE = {"kind": "rm", "L": 2, "T": 5.0, "cycles": 3, "params": {
    "a": {"form": "const", "offset": 1.0}, "b": {"form": "const", "offset": 1.0},
    "u": {"form": "linear", "amplitude": 100.0}}}
# ||H|| <= 5 + 0.1 + 0.1 = 5.2 on the u rows, where the largest on-site
# magnitude and the two largest bonds would give 5 + 3 + 0.1 = 8.1
_TRIMER_QUENCH = {"schema": 1, "command": "quench", "kind": "trimer", "L": 3, "a": 0.1, "b": 3.0, "c": 0.1,
                  "u": 5.0, "v": 0.0, "w": 0.0, "t_final": 1.0}


@pytest.mark.parametrize(
    "cfg",
    [
        dict(_TINY_QUENCH, a=1000, integrator={"method": "rk4"}),
        dict(_BELL, integrator={"method": "rk4", "max_step": 0.49}),
        {"schema": 1, "command": "pump", "schedule": _RAMP_SCHEDULE, "integrator": {"method": "rk4"}},
        dict(_TINY_QUENCH, disorder={"sigma": 1.0}, integrator={"method": "rk4", "max_step": 0.2}),
        {"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 100.0, "theta": 1.5, "T": 10.0},
         "integrator": {"method": "rk4"}},
    ],
    ids=["quench-a-1000", "bell-0.49", "linear-3-cycles", "disorder", "lz-tilted"],
)
def test_rk4_stability_is_a_named_violation(cfg):
    # parsed only: an RK4 step beyond the stability bound is never run
    messages = _violations(cfg)
    assert len(messages) == 1 and "'max_step'" in messages[0] and "unstable" in messages[0]


def test_rk4_stability_admits_the_crosschecks():
    # criterion 13's RK4 runs and the benchmark's crosscheck jobs, and the
    # stable side of each rejected case above; BDF has no such bound
    rk4_fine = {"method": "rk4", "max_step": 0.002}
    bell = dict(_BELL, schedule=dict(_BELL["schedule"], cycles=3), integrator=rk4_fine)
    for cfg in (
        dict(PRESETS["pumping"][0][1], integrator=rk4_fine, n_records=2001),
        dict(PRESETS["optimization"][2][1], integrator=rk4_fine),
        bell,
        dict(_TINY_QUENCH, L=7, disorder={"sigma": 0.01}, t_final=100.0, n_records=2001,
             integrator={"method": "rk4"}),
        dict(_BELL, integrator={"method": "rk4", "max_step": 0.48}),
        {"schema": 1, "command": "pump", "schedule": dict(_RAMP_SCHEDULE, cycles=1), "integrator": {"method": "rk4"}},
        dict(_TINY_QUENCH, disorder={"sigma": 1.0}, integrator={"method": "rk4", "max_step": 0.1}),
        {"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 1.0, "theta": 1.5, "T": 10.0},
         "integrator": {"method": "rk4"}},
        dict(_TINY_QUENCH, a=1000),
    ):
        _parse(cfg)


_PHASE_CASES = [
    (dict(_TINY_QUENCH, t_final=1e300), "t_final"),
    (dict(_TINY_QUENCH, a=1e200), "t_final"),
    (dict(_TINY_QUENCH, t_final=18181.82), "t_final"),
    ({"schema": 1, "command": "trimer", "schedule": dict(_BELL["schedule"], cycles=4)}, "T"),
    ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 10000.01}}, "T"),
]
_PHASE_IDS = ["t_final-1e300", "a-1e200", "just-over", "bell-4-cycles", "lz-path"]
# ||H|| <= 1.5, so T = 20,000 is 1.5 times the bound; pump integrates with
# BDF unless the config names a method
_LONG_PUMP = {"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, T=20000.0)}


@pytest.mark.parametrize(
    "cfg, key",
    [(dict(cfg, integrator={"method": "bdf"}), key) for cfg, key in _PHASE_CASES] + [(_LONG_PUMP, "T")],
    ids=_PHASE_IDS + ["pump-default"],
)
def test_bdf_phase_bound_is_a_named_violation(tmp_path, capsys, cfg, key):
    # parsed only: span x ||H|| over the bound of 20,000 is rejected before
    # anything runs (the tiny quench has ||H|| <= 1.1)
    messages = _violations(cfg)
    assert len(messages) == 1 and "BDF" in messages[0] and "20,000" in messages[0]
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


@pytest.mark.parametrize(
    "cfg, key",
    _PHASE_CASES + [(dict(_LONG_PUMP, integrator={"method": "magnus"}), "T")],
    ids=_PHASE_IDS + ["pump-magnus"],
)
def test_magnus_phase_bound_is_a_named_violation(tmp_path, capsys, cfg, key):
    # the same bound holds for Magnus, the default of every command but pump
    messages = _violations(cfg)
    assert len(messages) == 1 and "Magnus" in messages[0] and "20,000" in messages[0]
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


def _admitted_at_the_phase_bound(method):
    # ||H|| <= 2 for the arc, so T = 10,000 is the bound exactly; the
    # three-cycle Bell pump of criteria 9 and 13 reaches 3000 x 5.8 = 17,400
    integrator = {"method": method}
    _parse({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 10000.0},
            "integrator": integrator})
    _parse(dict(_BELL, schedule=dict(_BELL["schedule"], cycles=3), integrator=integrator))


def test_bdf_phase_bound_admits_its_limit_and_the_bell_pumps():
    _admitted_at_the_phase_bound("bdf")
    _parse(dict(_TINY_QUENCH, t_final=18181.82, integrator={"method": "rk4"}))  # the bound is BDF's and Magnus's


def test_magnus_phase_bound_admits_its_limit_and_the_bell_pumps():
    _admitted_at_the_phase_bound("magnus")


def test_magnus_step_budget_is_a_named_violation():
    # parsed only: Magnus starts its ladder from its convergence radius, so
    # a max_step that would once have started it beyond the budget is named
    # as a key Magnus does not read; the budget stops the halving at run time
    messages = _violations(dict(_TINY_QUENCH, integrator={"max_step": 1e-300}))
    assert messages == ["key 'max_step' in config.integrator is not read by method 'magnus'"]


def test_magnus_step_budget_stops_the_halving(tmp_path, capsys, monkeypatch):
    # a budget the halving passes before its estimate reaches rel_tol fails
    # the run with one error line and writes no file: the path is integrated
    # before its CSV is written
    monkeypatch.setattr(topochain.dynamics, "MAGNUS_MAX_STEPS", 1000)
    cfg = {"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 200.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "budget of 1,000 steps" in lines[0], err
    assert "Traceback" not in err and not (tmp_path / "lz.csv").exists()
    assert not (tmp_path / "lz_path.csv").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        PRESETS["pumping"][0][1],
        PRESETS["optimization"][2][1],
        dict(_BELL, schedule=dict(_BELL["schedule"], cycles=2)),
        {"schema": 1, "command": "pump", "schedule": _RAMP_SCHEDULE},
        dict(PRESETS["trivial"][1][1], disorder={"sigma": 0.3}, omega=-0.7),
        {"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 1.3, "theta": 0.7, "T": 10.0}},
        {"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": -1.3, "T": 10.0}},
        _TRIMER_QUENCH,
        {"schema": 1, "command": "quench", "kind": "ssh", "L": 1, "a": 0.1, "b": 1.0, "t_final": 1.0},
        dict(_BELL, schedule=dict(_BELL["schedule"], L=1, params=dict(
            _BELL["schedule"]["params"], c={"form": "const", "offset": 3.0}))),
    ],
    ids=["pumping", "optimization_pump", "bell-2-cycles", "linear-3-cycles", "disordered-quench",
         "lz-tilted", "lz-arc", "trimer-quench", "ssh-quench-L1", "trimer-pump-L1"],
)
def test_rk4_norm_bound_holds(cfg):
    # the config's bound on ||H|| against the largest absolute row sum of
    # each H(t) the command integrates, sampled densely over its run; a
    # static quench without disorder is bounded by exactly that sum
    parsed = _parse(cfg)
    opts = parsed.options
    times = np.linspace(0.0, 1.0, 1001)
    if parsed.command in ("pump", "trimer"):
        diag, off = schedule_arrays(opts["schedule"], opts["L"], times * opts["schedule"].total_time)
    elif parsed.command == "quench":
        chain = _build_model(opts["model"])
        if opts["disorder"] is not None:
            chain = apply_disorder(*chain, opts["disorder"]["sigma"], parsed.seed)
        diag, off = chain[0][np.newaxis], chain[1][np.newaxis]
    else:
        path = opts["path"]
        diag, off = schedule_arrays(path, 1, times * path.period)
    norm = max(np.abs(dense(h)).sum(axis=1).max() for h in zip(diag, off))
    bound = _integration(parsed.command, opts)[2]
    assert norm <= bound * (1.0 + 1e-12)
    if parsed.command == "quench" and opts["disorder"] is None:
        assert bound == pytest.approx(norm, rel=1e-15)


_SWEPT_MODELS = {
    "ssh": {"kind": "ssh", "L": 5, "a": 0.3, "b": 1.0},
    "rm": {"kind": "rm", "L": 4, "a": 0.5, "b": 1.0, "u": 0.2},
    "trimer": {"kind": "trimer", "L": 3, "a": 0.4, "b": 0.7, "c": 1.0, "u": 0.3, "v": -0.2, "w": 0.1},
}


@pytest.mark.parametrize("kind, param", [("ssh", "omega"), ("rm", "a"), ("trimer", "c")])
def test_sweep_lays_out_each_point_as_its_builder(tmp_path, monkeypatch, kind, param):
    # the runner lays a sweep out in one call, the parameter a column; each
    # row must be the chain laid out at that point alone, byte for byte
    model = _SWEPT_MODELS[kind]
    cfg = _parse({"schema": 1, "command": "spectrum", **model,
                  "sweep": {"param": param, "start": -0.37, "stop": 1.91, "points": 9}})
    seen = []

    def trace_spy(values, diag, off, *args, **kwargs):
        seen.append((values, diag, off))
        return trace_from_hamiltonians(values, diag, off, *args, **kwargs)

    trace_from_hamiltonians = topochain.runner.trace_from_hamiltonians
    monkeypatch.setattr(topochain.runner, "trace_from_hamiltonians", trace_spy)
    topochain.runner.run(cfg, tmp_path)
    (values, diag, off), = seen
    chains = [make_chain(kind, model["L"], **{**cfg.options["model"]["params"], param: float(v)}) for v in values]
    assert diag.tobytes() == np.stack([h[0] for h in chains]).tobytes()
    assert off.tobytes() == np.stack([h[1] for h in chains]).tobytes()


def test_manifest_records_each_integration(tmp_path):
    trimer = {
        "schema": 1, "command": "trimer", "n_records": 11,
        "schedule": dict(_BELL["schedule"], L=2, T=5.0),
    }
    pump_rk4 = {
        "schema": 1, "command": "pump", "n_records": 11, "integrator": {"method": "rk4", "max_step": 0.01},
        "schedule": dict(PRESETS["pumping"][0][1]["schedule"], L=2, T=5.0),
    }
    trimer_bdf = dict(trimer, integrator={"method": "bdf"}, output="trimer_bdf")
    runs = (("trimer", trimer), ("trimer_bdf", trimer_bdf), ("pump", pump_rk4))
    for name, cfg in runs:
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "trimer.manifest.json").read_text())
    assert set(manifest["integrator"]) == {"trimer_plus.csv", "trimer_minus.csv"}
    assert set(manifest["extras"]) == {"final_fidelity_plus", "final_fidelity_minus"}
    for record in manifest["integrator"].values():
        # Magnus, the trimer default: 10 record segments, halved from one step each
        assert set(record) == {"method", "steps", "steps_total", "mirrored", "error_estimate", "norm_drift"}
        assert record["method"] == "magnus"
        assert record["steps"] >= 20 and record["steps"] % 10 == 0
        assert record["steps_total"] == 2 * record["steps"] - 10
        assert 0.0 <= record["error_estimate"] <= 1e-8
        assert 0.0 <= record["norm_drift"] <= 1e-12
    manifest = json.loads((tmp_path / "trimer_bdf.manifest.json").read_text())
    for record in manifest["integrator"].values():
        assert record["method"] == "bdf"
        assert record["energy_shift"] == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert min(record[key] for key in ("nfev", "njev", "nlu")) >= 1
        assert 0.0 <= record["norm_drift"] <= 1e-6
    record = json.loads((tmp_path / "pump.manifest.json").read_text())["integrator"]["pump.csv"]
    assert record["method"] == "rk4" and record["steps"] == 500 and record["energy_shift"] == 0.0
    assert 0.0 <= record["norm_drift"] <= 1e-6


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"schema": 1, "command": "quench", "kind": "ssh", "L": 3, "a": 0.1, "b": 1, "t_final": Infinity}', "t_final"),
        ('{"schema": 1, "command": "fluxqubit", "f_alpha": NaN}', "f_alpha"),
        (
            '{"schema": 1, "command": "pump", "schedule": {"kind": "ssh", "L": 2, "T": 5.0, "params": {'
            '"a": {"form": "const", "offset": NaN}, "b": {"form": "const", "offset": 1.0}}}}',
            "offset",
        ),
    ],
    ids=["quench-t_final", "fluxqubit-f_alpha", "pump-offset"],
)
def test_non_finite_numbers_are_named_violations(tmp_path, capsys, text, key):
    _rejected(tmp_path, capsys, text, key)


def test_non_finite_state_fails_the_run(tmp_path, capsys, monkeypatch):
    # H entries of 1e200 overflow the RK4 stages to inf and then NaN.  The
    # config's RK4 stability bound rejects this H; lifting it reaches the
    # run-time guard behind it, which must still fail the run cleanly
    monkeypatch.setattr(topochain.config, "RK4_STABILITY_LIMIT", math.inf)
    cfg = {"schema": 1, "command": "quench", "kind": "ssh", "L": 3, "a": 1e200, "b": 1,
           "t_final": 1, "integrator": {"method": "rk4"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the state became non-finite during integration"
    ]
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("method", ["rk4", "bdf"])
def test_overflow_prints_one_stderr_line(tmp_path, method):
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr;
    # the RK4 stability bound and the BDF phase bound are lifted there, as
    # in the test above
    cfg = {"schema": 1, "command": "quench", "kind": "ssh", "L": 3, "a": 1e200, "b": 1,
           "t_final": 1, "integrator": {"method": method}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    code = ("import math, sys, topochain.config as config; config.RK4_STABILITY_LIMIT = math.inf; "
            "config.BDF_MAX_PHASE = math.inf; from topochain.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--config", str(cfg_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_lz_figures_raise_no_warning(tmp_path):
    # a fresh interpreter with warnings as errors: the edge coupling forms
    # both of its ratios on arrays and selects one, and the unselected -b/a
    # divides by zero where the lz2 pump path has a = 0 (t = 0 and t = T)
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    code = "import sys; from topochain.cli import main; sys.exit(main(['reproduce', 'lz1', 'lz2', '--out', OUT]))"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code.replace("OUT", repr(str(tmp_path)))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert (tmp_path / "lz2_pump_path_schedule_path.csv").is_file()


_HUGE_RANGE = {"start": -1.7e308, "stop": 1.7e308}


@pytest.mark.parametrize(
    "cfg, keys",
    [
        ({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.0, "b": 1.0,
          "sweep": dict(_HUGE_RANGE, param="a", points=201)}, ("start", "stop")),
        ({"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "f_eps_range": dict(_HUGE_RANGE, points=41)},
         ("start", "stop")),
        ({"schema": 1, "command": "fluxqubit", "f_alpha_sweep": dict(_HUGE_RANGE, points=31)}, ("start", "stop")),
    ],
    ids=["sweep", "f_eps_range", "f_alpha_sweep"],
)
def test_overflowing_inputs_are_named_violations(tmp_path, cfg, keys):
    # a fresh interpreter, so a numpy RuntimeWarning would reach stderr: a
    # range whose span overflows is rejected before anything runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "topochain.cli", "run", "--config", str(cfg_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert all(f"'{key}'" in proc.stderr for key in keys), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("*.csv"))


def _run_fresh(tmp_path, *cfgs, out=None):
    """Run each config (a dict, or the bytes of a config file) in one fresh
    interpreter, so numpy's RuntimeWarnings would reach stderr, writing to
    ``out`` (default ``tmp_path``); returns the largest exit code and the stderr."""
    paths = []
    for k, cfg in enumerate(cfgs):
        paths.append(tmp_path / f"cfg{k}.json")
        paths[-1].write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    code = ("import sys; from topochain.cli import main; "
            "sys.exit(max(main(['run', '--config', p, '--out', sys.argv[1]]) for p in sys.argv[2:]))")
    proc = subprocess.run([sys.executable, "-c", code, str(out or tmp_path), *map(str, paths)],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def _csv_values(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])


_SPAN_CASES = [
    (dict(_TRACE, schedule=_TINY_SCHEDULE), ("schedule", "T")),
    ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE}, ("schedule", "T")),
    (_TINY_QUENCH, ("t_final",)),
    ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0}}, ("path", "T")),
    ({"schema": 1, "command": "trimer", "schedule": dict(_BELL["schedule"], L=2)}, ("schedule", "T")),
]
_SPAN_IDS = ["spectrum", "pump", "quench", "lz", "trimer"]


def _with_span(cfg, keys, span):
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for name in keys[:-1]:
        parent = parent[name]
    parent[keys[-1]] = span
    return cfg


@pytest.mark.parametrize("cfg, keys", _SPAN_CASES, ids=_SPAN_IDS)
def test_span_floor_is_a_named_violation(tmp_path, capsys, cfg, keys):
    # a subnormal span repeats record times: it used to fail the run (exit 1)
    # on the path's sample times, scipy's t_eval check or the trace's axis check
    cfg = _with_span(cfg, keys, 5e-324)
    assert _violations(cfg) == [f"key '{keys[-1]}' in command '{cfg['command']}'"
                                + "".join(f".{name}" for name in keys[:-1]) + " must be >= 1e-300, got 5e-324"]
    _rejected(tmp_path, capsys, json.dumps(cfg), keys[-1])


def test_span_floor_admits_its_limit(tmp_path):
    # at the floor, the times of the largest accepted row count (MAX_ROW_SITES
    # over the 2 sites of the smallest chain) still increase strictly, and
    # every command runs
    times = np.linspace(0.0, topochain.config.MIN_SPAN, topochain.config.MAX_ROW_SITES // 2)
    assert np.all(np.diff(times) > 0)
    cfgs = [_with_span(cfg, keys, topochain.config.MIN_SPAN) for cfg, keys in _SPAN_CASES]
    for k, cfg in enumerate(cfgs):
        cfg["output"] = f"run{k}"
    code, err = _run_fresh(tmp_path, *cfgs)
    assert code == 0 and "Warning" not in err, err
    assert all(np.isfinite(_csv_values(path)).all() for path in tmp_path.glob("*.csv"))


_BEYOND = 1e308  # two such bonds give eigenvalues beyond the float range


@pytest.mark.parametrize(
    "cfg, keys",
    [
        (dict(_SSH_SPECTRUM, L=7, a=_BEYOND, b=-_BEYOND), ("a", "b")),
        ({"schema": 1, "command": "spectrum", "kind": "rm", "L": 7, "a": 1.0, "b": 1.0, "u": _BEYOND}, ("u",)),
        (dict(_TRACE, schedule=dict(_TINY_SCHEDULE, params={
            "a": {"form": "const", "offset": _BEYOND}, "b": {"form": "sin", "amplitude": -_BEYOND}})),
         ("offset", "amplitude")),
        (dict(_TINY_QUENCH, disorder={"sigma": _BEYOND}), ("sigma",)),
        ({"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": _BEYOND, "theta": _BEYOND,
                                                  "T": 5.0}}, ("alpha", "theta")),
        ({"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 1e299,
                                                  "theta": 1.5707963267948966, "T": 5.0}}, ("theta",)),
    ],
    ids=["ssh", "rm", "trace", "disorder", "lz-path", "lz-path-tilt"],
)
def test_entries_of_h_are_bounded(tmp_path, capsys, cfg, keys):
    # parsed only: each number that sets an entry of H has magnitude below
    # 1e300, and path C's g = tan(theta) * u must stay finite
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(f"'{key}'" in err for key in keys) and "Traceback" not in err, err
    assert not list(tmp_path.glob("*.csv"))


def test_entries_of_h_at_the_bound_stay_finite(tmp_path):
    big = math.nextafter(topochain.config.MAX_RANGE_END, 0.0)
    trimer = {name: {"form": "const", "offset": big} for name in ("a", "b", "c", "u", "v", "w")}
    cfgs = [
        {"schema": 1, "command": "spectrum", "kind": "rm", "L": 7, "a": big, "b": -big, "u": big, "output": "rm"},
        dict(_TRACE, n_times=11, schedule={"kind": "trimer", "L": 3, "T": 1.0, "params": trimer}, output="trace"),
    ]
    code, err = _run_fresh(tmp_path, *cfgs)
    assert code == 0 and "Warning" not in err, err
    for name in ("rm", "trace"):
        assert np.isfinite(_csv_values(tmp_path / f"{name}.csv")).all()


_SWEEP_A = {"schema": 1, "command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1.0}
_ZERO_TERM = {"form": "const"}
_PHASE_FLUX = {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2}


def _fast_pump(f, T=10.0):
    """A 4-site rm pump whose sin term turns f times a period."""
    return {"kind": "rm", "L": 2, "T": T, "params": {
        "a": {"form": "cos", "offset": 1.0, "amplitude": -1.0}, "b": {"form": "const", "offset": 1.0},
        "u": {"form": "sin", "amplitude": 1.0, "frequency_multiple": f}}}


def _fast_term(f):
    return {"form": "sin", "amplitude": 1.0, "frequency_multiple": f}


_FREQUENCY = "key 'frequency_multiple' in command"


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (dict(_SWEEP_A, sweep={"param": "a", "start": 2.0, "stop": 0.0, "points": 5}),
         "key 'stop' in command 'spectrum'.sweep"),
        (dict(_SWEEP_A, sweep={"param": "a", "start": 2.0, "stop": 2.0, "points": 5}),
         "key 'stop' in command 'spectrum'.sweep"),
        (dict(_SWEEP_A, sweep={"param": "a", "start": 1.0, "stop": math.nextafter(1.0, 2.0), "points": 5}),
         "key 'stop' in command 'spectrum'.sweep"),
        (dict(_PHASE_FLUX, f_alpha=1e308, spec={"charge_cutoff": 2}), "key 'f_alpha' in command 'fluxqubit'"),
        (dict(_TRACE, n_times=11, schedule=_fast_pump(1e308)), f"{_FREQUENCY} 'spectrum'.schedule.params.u"),
        (dict(_TRACE, n_times=11, schedule=_fast_pump(1e10, T=1e290)),
         f"{_FREQUENCY} 'spectrum'.schedule.params.u"),
        (dict(_TRACE, n_times=11, schedule=_fast_pump(1.0, T=1e300)), "key 'T' in command 'spectrum'.schedule"),
        ({"schema": 1, "command": "lz", "from_schedule": _fast_pump(1e308)},
         f"{_FREQUENCY} 'lz'.from_schedule.params.u"),
        ({"schema": 1, "command": "lz", "path": {"type": "custom", "T": 10.0, "u": _fast_term(1e308), "g": _ZERO_TERM}},
         f"{_FREQUENCY} 'lz'.path.u"),
        ({"schema": 1, "command": "pump", "schedule": _fast_pump(1e4)}, f"{_FREQUENCY} 'pump'.schedule.params.u"),
        ({"schema": 1, "command": "pump", "schedule": _fast_pump(1e4), "integrator": {"method": "magnus"}},
         f"{_FREQUENCY} 'pump'.schedule.params.u"),
        ({"schema": 1, "command": "lz", "path": {"type": "custom", "T": 10.0, "u": _ZERO_TERM, "g": _fast_term(-1e4)}},
         f"{_FREQUENCY} 'lz'.path.g"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 0.0, "T": 1e308}},
         "key 'T' in command 'lz'.path"),
        ({"schema": 1, "command": "lz", "path": {"type": "custom", "T": 5, "u": _ZERO_TERM, "g": _ZERO_TERM}},
         ("path_class", "no-crossing")),
        ({"schema": 1, "command": "lz",
          "from_schedule": {"kind": "rm", "L": 3, "T": 5, "params": dict.fromkeys("abu", _ZERO_TERM)}},
         ("schedule_path_class", "no-crossing")),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1e299, "T": 1e-299}},
         ("path_class", "around-critical")),
        ({"schema": 1, "command": "lz", "from_schedule": {"kind": "rm", "L": 2, "T": 10.0, "params": {
            "a": {"form": "const", "offset": 1e299}, "b": {"form": "const", "offset": 1.0},
            "u": {"form": "sin", "amplitude": 1e299}}}}, ("schedule_path_class", "through-critical")),
        (dict(_TRACE, schedule=_fast_pump(1.0), output="a\ud800"), "key 'output' in config must be UTF-8 text"),
        (b"\xff{}", "config file is not UTF-8 text"),
    ],
    ids=["sweep-down", "sweep-flat", "sweep-below-spacing", "flux-f-alpha", "trace-frequency", "trace-frequency-T",
         "trace-T", "schedule-path-frequency", "custom-frequency", "bdf-frequency", "magnus-frequency",
         "lz-path-frequency", "arc-T", "lz-zero-path", "lz-zero-schedule", "lz-huge-arc", "lz-huge-schedule",
         "output-lone-surrogate", "config-not-utf8"],
)
def test_inputs_that_failed_at_run_time_are_named_or_run(tmp_path, cfg, expected):
    # a fresh interpreter, so a numpy RuntimeWarning would reach stderr: a
    # sweep whose points do not increase strictly, a flux bias that makes a
    # junction phase non-finite, a sin or cos term whose angle overflows or
    # that BDF or Magnus would follow past their phase bound (BDF ran for
    # minutes), and a period that overflows the angle of a term at the
    # default frequency (the arc's is 1/2) are named violations
    # before anything is written, as are an output stem with a lone
    # surrogate (no UTF-8 file name) and a config file that is not UTF-8;
    # the zero lz path classifies by its own rule, and paths of |u| beyond
    # 1e154 by the signs of their ends, and run
    out = tmp_path / "out"
    code, err = _run_fresh(tmp_path, cfg, out=out)
    assert "Warning" not in err and "Traceback" not in err, err
    if isinstance(expected, str):
        assert code == 2 and expected in err, err
        assert not out.exists()
    else:
        assert code == 0, err
        key, value = expected
        assert json.loads((out / "lz.manifest.json").read_text())["extras"][key] == value


def test_frequency_bound_admits_its_limit():
    # BDF and Magnus follow a term through an angle of at most BDF_MAX_PHASE;
    # RK4 takes its fixed steps whatever the frequency
    limit = topochain.config.BDF_MAX_PHASE / (2.0 * math.pi)
    pump = {"schema": 1, "command": "pump", "schedule": _fast_pump(limit)}
    _parse(pump)
    assert _violations(dict(pump, schedule=_fast_pump(math.nextafter(limit, math.inf)))) == [
        "key 'frequency_multiple' in command 'pump'.schedule.params.u: BDF follows the term through an angle "
        "2*pi*|frequency_multiple|*cycles of 20000, more than the bound of 20,000"]
    _parse(dict(pump, schedule=_fast_pump(1e4), integrator={"method": "rk4"}))


def test_schedule_path_through_zero_and_overflowing_bonds(tmp_path):
    # the reduced path of an rm schedule with b(0) = 0, and one whose
    # lam = -a/b = -100 overflows lam^(L-1) at L = 200: both finite, and no
    # RuntimeWarning
    pump = PRESETS["pumping"][0][1]["schedule"]
    b_sin = dict(pump, params=dict(pump["params"], b={"form": "sin", "amplitude": 1.0}))
    steep = dict(pump, L=200, params=dict(pump["params"], a={"form": "const", "offset": 10.0},
                                          b={"form": "const", "offset": 0.1}))
    cfgs = [{"schema": 1, "command": "lz", "from_schedule": sch, "output": name}
            for name, sch in (("b_sin", b_sin), ("steep", steep))]
    code, err = _run_fresh(tmp_path, *cfgs)
    assert code == 0 and "Warning" not in err, err
    for name in ("b_sin", "steep"):
        assert np.isfinite(_csv_values(tmp_path / f"{name}_schedule_path.csv")).all()


def test_linear_terms_are_bounded_by_their_end_values(tmp_path, capsys):
    # a linear term reaches its larger end value, not |offset| + |amplitude|
    # x cycles: a ramp u from -1 to 1 with g = 0.1 over T = 10,000 accumulates
    # a phase of 11,000, inside the bound of 20,000 (30,000 by the sum)
    ramp = {"schema": 1, "command": "lz", "path": {
        "type": "custom", "T": 10000.0, "u": {"form": "linear", "offset": -1.0, "amplitude": 2.0},
        "g": {"form": "const", "offset": 0.1}}}
    assert _integration("lz", _parse(ramp).options)[2] == 1.1
    # three cycles of u from -150 to 150, bonds of 1: 150 + 1 + 1
    pump = {"schema": 1, "command": "pump", "schedule": dict(_RAMP_SCHEDULE, params=dict(
        _RAMP_SCHEDULE["params"], u={"form": "linear", "offset": -150.0, "amplitude": 100.0}))}
    opts = _parse(pump).options
    assert _integration("pump", opts)[2] == 152.0
    diag, off = schedule_arrays(opts["schedule"], opts["L"], np.linspace(0.0, opts["schedule"].total_time, 3001))
    norm = max(np.abs(dense(h)).sum(axis=1).max() for h in zip(diag, off))
    assert norm == 152.0
    # a const term is its offset: an amplitude on it is a named violation,
    # with no phase-budget line for the unusable schedule
    const = {"schema": 1, "command": "pump", "schedule": {"kind": "ssh", "L": 2, "T": 100.0, "params": {
        "a": {"form": "const", "offset": 0.5, "amplitude": 1000.0}, "b": {"form": "const", "offset": 1.0}}}}
    _rejected(tmp_path, capsys, json.dumps(const), "amplitude")
    assert _violations(const) == ["key 'amplitude' in command 'pump'.schedule.params.a has no effect on a "
                                  "'const' term, got 1000.0"]


@pytest.mark.parametrize("form, key", [("const", "amplitude"), ("const", "frequency_multiple"), ("const", "phase"),
                                       ("linear", "frequency_multiple"), ("linear", "phase")])
def test_keys_a_form_does_not_read_are_named_violations(tmp_path, capsys, form, key):
    term = {"form": form, "offset": 1.0, key: 0.5}
    cfg = {"schema": 1, "command": "lz", "path": {"type": "custom", "T": 10.0, "u": term,
                                                   "g": {"form": "const", "offset": 0.3}}}
    _rejected(tmp_path, capsys, json.dumps(cfg), key)
    assert _violations(cfg) == [f"key '{key}' in command 'lz'.path.u has no effect on a '{form}' term, got 0.5"]
    # at its default the key changes nothing and is accepted
    term[key] = topochain.config.FUNCTION.kind[key].default
    assert _parse(cfg).options["path"].params["u"] == FunctionSpec(form, offset=1.0)


@pytest.mark.parametrize(
    "cfg, key",
    [({"path": {"type": "arc", "alpha": 1, "T": -1}}, "T"),
     ({"path": {"type": "arc", "alpha": 1, "T": 0}}, "T")],
    ids=["T-negative", "T-zero"],
)
def test_lz_bounds_are_named_violations(tmp_path, capsys, cfg, key):
    _rejected(tmp_path, capsys, json.dumps(dict(cfg, schema=1, command="lz")), key)


@pytest.mark.parametrize(
    "integrator, key",
    [({"rel_tol": 0}, "rel_tol"), ({"abs_tol": -1e-12}, "abs_tol"), ({"method": "rk4", "max_step": -1}, "max_step")],
    ids=["rel_tol", "abs_tol", "max_step"],
)
def test_integrator_bounds_are_named_violations(tmp_path, capsys, integrator, key):
    _rejected(tmp_path, capsys, json.dumps(dict(_TINY_QUENCH, integrator=integrator)), key)


def test_integrator_violations_are_all_reported():
    messages = _violations(dict(_TINY_QUENCH, integrator={"method": "bdf", "abs_tol": 0, "max_step": -1}))
    assert messages == ["key 'abs_tol' in config.integrator must be > 0",
                        "key 'max_step' in config.integrator must be > 0",
                        "key 'max_step' in config.integrator is not read by method 'bdf'"]


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: MemoryError"),
        (ValueError("array must not contain\ninfs or NaNs"), "error: ValueError: array must not contain infs or NaNs"),
    ],
    ids=["MemoryError", "ValueError"],
)
def test_unexpected_errors_are_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(topochain.cli, "run", fail)
    cfg = {"schema": 1, "command": "couplings", "alpha1": {"start": 0.0, "stop": 2.0, "points": 21},
           "alpha2": {"start": 0.0, "stop": 2.0, "points": 21}}
    cfg_path = tmp_path / "couplings.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_reproduce_writes_expected_files(tmp_path):
    assert main(["reproduce", "lz1", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {
        "lz1_path_a.csv",
        "lz1_path_a_path.csv",
        "lz1_path_a.manifest.json",
        "lz1_path_b.csv",
        "lz1_path_b_path.csv",
        "lz1_path_b.manifest.json",
    } <= names
    manifest = json.loads((tmp_path / "lz1_path_a.manifest.json").read_text())
    assert manifest["extras"]["path_class"] == "around-critical"
    assert manifest["extras"]["final_population_R"] >= 0.999


def _file_bytes(directory: Path) -> dict:
    """Each file's bytes; a manifest without its wall time."""
    files = {}
    for path in sorted(directory.iterdir()):
        files[path.name] = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            files[path.name] = dict(json.loads(files[path.name]), wall_time_s=None)
    return files


def test_reproduce_seed_replaces_each_preset_seed(tmp_path):
    assert main(["reproduce", "trivial", "--out", str(tmp_path / "default")]) == 0
    assert main(["reproduce", "trivial", "--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    for name, preset in PRESETS["trivial"]:
        seeded = (tmp_path / "seeded" / f"{name}.csv").read_bytes()
        assert seeded != (tmp_path / "default" / f"{name}.csv").read_bytes()
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(preset))
        assert main(["run", "--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "quench.csv").read_bytes() == seeded
        manifest = json.loads((tmp_path / "seeded" / f"{name}.manifest.json").read_text())
        assert manifest["config"] == json.loads((tmp_path / name / "quench.manifest.json").read_text())["config"]
        assert manifest["config"]["seed"] == 5


def test_reproduce_several_ids_in_one_process(tmp_path):
    ids = ["energylevel", "rm", "lz1", "ssh3edges"]
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    for figure_id in ids:
        argv = [sys.executable, "-m", "topochain.cli", "reproduce", figure_id, "--out", str(tmp_path / "apart")]
        subprocess.run(argv, env=env, check=True, capture_output=True)
    assert main(["reproduce", *ids, "--out", str(tmp_path / "together")]) == 0
    apart = _file_bytes(tmp_path / "apart")
    assert len(apart) == 13 and _file_bytes(tmp_path / "together") == apart


def test_reproduce_checks_every_id_first(tmp_path, capsys, monkeypatch):
    assert main(["reproduce", "lz1", "nosuchfigure", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown figure id 'nosuchfigure'; available: {', '.join(sorted(PRESETS))}"]
    assert not (tmp_path / "out").exists()
    # "all" stands for every id, each run once
    stems = []
    monkeypatch.setattr(topochain.runner, "run", lambda cfg, out_dir, amplitudes, stem: stems.append(stem))
    topochain.runner.reproduce(["rm", "all"], tmp_path)
    assert stems == [name for figure_id in ["rm"] + sorted(set(PRESETS) - {"rm"}) for name, _ in PRESETS[figure_id]]
