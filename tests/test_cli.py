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

import topochain.cli
import topochain.config
import topochain.dynamics
from topochain import ChainHamiltonian, DisorderSpec, apply_disorder
from topochain.cli import main
from topochain.config import _norm_bound, parse_config
from topochain.dynamics import MAGNUS_MAX_STEPS
from topochain.errors import SchemaError
from topochain.io import file_sha256
from topochain.models import schedule_arrays
from topochain.presets import PRESETS
from topochain.runner import _build_model, _lz_path_from_options


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
    cfg = _parse(
        {
            "schema": 1,
            "command": "spectrum",
            "kind": "ssh",
            "L": 2,
            "a": 0.1,
            "b": 1,
            "integrator": {"rel_tol": 1e-9, "method": "rk4", "max_step": 0.002},
        }
    )
    assert cfg.integrator.rel_tol == 1e-9
    assert cfg.integrator.method == "rk4"


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
        assert solver["shift_min"] <= solver["shift_max"] < 0.0
        assert 0 < solver["solves_max_per_point"] <= solver["solves_total"] <= points * solver["solves_max_per_point"]


def test_couplings_subcommand(tmp_path):
    assert (
        main(
            [
                "couplings",
                "--alpha1", "0", "1", "3",
                "--alpha2", "0", "1", "3",
                "--out", str(tmp_path),
            ]
        )
        == 0
    )
    with open(tmp_path / "couplings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert set(rows[0]) == {"alpha_1", "alpha_2", "P", "Q"}
    assert float(rows[0]["P"]) == 1.0  # zero drive keeps the bare coupling


def test_lz_reduce_writes_json_report(tmp_path):
    cfg = {"schema": 1, "command": "lz", "reduce": {"a": 0.3, "b": 1.0, "L": 7}}
    cfg_path = tmp_path / "lz.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "lz_reduction.json").read_text())
    assert report["rel_err"] <= 0.05
    assert report["lambda"] == -0.3


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


def test_aah_spectrum_config(tmp_path):
    cfg = {
        "schema": 1,
        "command": "spectrum",
        "kind": "aah",
        "n_sites": 13,
        "omega": 1.0,
        "alpha": 0.6180339887498949,
        "phase": 0.0,
        "hop": 1.0,
    }
    cfg_path = tmp_path / "aah.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    assert rows[0]["level"] == "1"


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


def test_fluxqubit_cli_subcommand(tmp_path):
    assert (
        main(
            [
                "fluxqubit",
                "--f-alpha", "0.2",
                "--f-eps-range", "-0.002", "0.002",
                "--sweep-points", "3",
                "--levels", "2",
                "--charge-cutoff", "3",
                "--out", str(tmp_path),
            ]
        )
        == 0
    )
    with open(tmp_path / "fluxqubit.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and "E_1" in rows[0]


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
        (5, {"ej": -1}, "ej"),
        (5, {"ej_over_ec": 0}, "ej_over_ec"),
        (5, {"alpha": -0.5}, "alpha"),
    ],
)
def test_fluxqubit_solver_bounds_are_named_violations(tmp_path, capsys, levels, spec, key):
    cfg = {"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "levels": levels, "spec": spec}
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


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


_TINY_SCHEDULE = {"kind": "ssh", "L": 2, "T": 5.0, "params": {
    "a": {"form": "const", "offset": 0.5}, "b": {"form": "const", "offset": 1.0}}}
_TINY_QUENCH = {"schema": 1, "command": "quench", "kind": "ssh", "L": 2, "a": 0.1, "b": 1, "t_final": 1.0}


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 0, "a": 0.1, "b": 1}, "L"),
        ({"schema": 1, "command": "spectrum", "kind": "aah", "n_sites": 1, "omega": 1.0, "alpha": 0.3,
          "phase": 0.0, "hop": 1.0}, "n_sites"),
        (dict(_TINY_QUENCH, n_records=1), "n_records"),
        ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE, "n_records": 1}, "n_records"),
        (dict(_TINY_QUENCH, flip_site=9), "flip_site"),
        ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE, "initial_site": 0}, "initial_site"),
        ({"schema": 1, "command": "lz", "reduce": {"a": 0.1, "b": 1.0, "L": 0}}, "L"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 2}}, "n_samples"),
        ({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 3, "a": 0.1, "b": 1, "export_states": [99]},
         "export_states"),
        ({"schema": 1, "command": "spectrum", "kind": "aah", "n_sites": 5, "omega": 1.0, "alpha": 0.3,
          "phase": 0.0, "hop": 1.0, "export_states": [1, 0]}, "export_states"),
    ],
    ids=["L-0", "aah-n_sites-1", "quench-n_records-1", "pump-n_records-1", "flip_site-9",
         "initial_site-0", "reduce-L-0", "lz-n_samples-2", "export_states-99", "export_states-0"],
)
def test_sizes_and_sites_are_named_violations(tmp_path, capsys, cfg, key):
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


_SSH_SPECTRUM = {"schema": 1, "command": "spectrum", "kind": "ssh", "a": 0.1, "b": 1}
_AAH_SPECTRUM = {"schema": 1, "command": "spectrum", "kind": "aah", "omega": 1.0, "alpha": 0.3, "phase": 0.0,
                 "hop": 1.0}
_TRACE = {"schema": 1, "command": "spectrum", "n_times": 201}
_SWEEP = {"param": "a", "start": 0.0, "stop": 2.0}


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(_SSH_SPECTRUM, L=100000000), "L"),
        (dict(_AAH_SPECTRUM, n_sites=1001), "n_sites"),
        (dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=501)), "L"),
        (dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=100), n_times=1001), "n_times"),
        (dict(_SSH_SPECTRUM, L=100, sweep=dict(_SWEEP, points=1001)), "points"),
        (dict(_TINY_QUENCH, L=501), "L"),
        (dict(_TINY_QUENCH, n_records=50001), "n_records"),
        ({"schema": 1, "command": "pump", "schedule": _TINY_SCHEDULE, "n_records": 50001}, "n_records"),
        ({"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, cycles=250)}, "cycles"),
        ({"schema": 1, "command": "trimer", "schedule": dict(PRESETS["belltransfer"][0][1]["schedule"], L=334)}, "L"),
        ({"schema": 1, "command": "lz", "reduce": {"a": 0.1, "b": 1.0, "L": 501}}, "L"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0}, "n_records": 100001},
         "n_records"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 100001}},
         "n_samples"),
        ({"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 5.0, "n_samples": 1000000000}},
         "n_samples"),
    ],
    ids=["spectrum-L", "aah-n_sites", "trace-L", "trace-n_times", "sweep-points", "quench-L", "quench-n_records",
         "pump-n_records", "pump-cycles", "trimer-L", "reduce-L", "lz-n_records", "lz-n_samples",
         "lz-n_samples-1e9"],
)
def test_size_bounds_are_named_violations(tmp_path, capsys, cfg, key):
    # parsed only: a config over a bound is rejected before anything runs
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


def test_size_bounds_admit_their_limits():
    # 1000 sites, and 200,000 rows x sites, exactly
    _parse(dict(_SSH_SPECTRUM, L=500))
    _parse(dict(_AAH_SPECTRUM, n_sites=1000))
    _parse(dict(_TRACE, schedule=dict(_TINY_SCHEDULE, L=100), n_times=1000))
    _parse(dict(_SSH_SPECTRUM, L=500, sweep=dict(_SWEEP, points=200)))
    _parse(dict(_TINY_QUENCH, n_records=50000))
    _parse({"schema": 1, "command": "pump", "schedule": dict(_TINY_SCHEDULE, cycles=249)})
    _parse({"schema": 1, "command": "lz", "reduce": {"a": 0.1, "b": 1.0, "L": 500}})
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
    # 20000 / 0.01 is the budget exactly; BDF has no step budget
    _parse(dict(_TINY_QUENCH, t_final=20000.0, integrator={"method": "rk4"}))
    _parse(dict(_TINY_QUENCH, integrator={"method": "bdf", "max_step": 1e-300}))


_BELL = PRESETS["belltransfer"][0][1]  # ||H|| <= 2 + 1.9 + 1.9 = 5.8 by Gershgorin
_RAMP_SCHEDULE = {"kind": "rm", "L": 2, "T": 5.0, "cycles": 3, "params": {
    "a": {"form": "const", "offset": 1.0}, "b": {"form": "const", "offset": 1.0},
    "u": {"form": "linear", "amplitude": 100.0}}}


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
    # parsed only: a max_step the halving would start from that costs more
    # than the budget (three times span / max_step) is never run
    messages = _violations(dict(_TINY_QUENCH, integrator={"max_step": 1e-300}))
    assert len(messages) == 1 and "'max_step'" in messages[0] and "Magnus" in messages[0]
    assert f"{MAGNUS_MAX_STEPS:,}" in messages[0]
    _parse(dict(_TINY_QUENCH, integrator={"max_step": 4.0 / MAGNUS_MAX_STEPS}))  # 3/4 of the budget


def test_magnus_step_budget_stops_the_halving(tmp_path, capsys, monkeypatch):
    # a budget the halving passes before its estimate reaches rel_tol fails
    # the run with one error line and writes no trajectory (the path CSV
    # comes first)
    monkeypatch.setattr(topochain.dynamics, "MAGNUS_MAX_STEPS", 1000)
    cfg = {"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": 1.0, "T": 200.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "budget of 1,000 steps" in lines[0], err
    assert "Traceback" not in err and not (tmp_path / "lz.csv").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        PRESETS["pumping"][0][1],
        PRESETS["optimization"][2][1],
        dict(_BELL, schedule=dict(_BELL["schedule"], cycles=2)),
        {"schema": 1, "command": "pump", "schedule": _RAMP_SCHEDULE},
        dict(PRESETS["trivial"][1][1], disorder={"sigma": 0.3}, omega=-0.7),
        {"schema": 1, "command": "quench", "kind": "aah", "n_sites": 13, "omega": 1.5, "alpha": 0.618,
         "phase": 0.4, "hop": -0.8, "t_final": 1.0},
        {"schema": 1, "command": "lz", "path": {"type": "line_at_angle", "alpha": 1.3, "theta": 0.7, "T": 10.0}},
        {"schema": 1, "command": "lz", "path": {"type": "arc", "alpha": -1.3, "T": 10.0}},
    ],
    ids=["pumping", "optimization_pump", "bell-2-cycles", "linear-3-cycles", "disordered-quench", "aah",
         "lz-tilted", "lz-arc"],
)
def test_rk4_norm_bound_holds(cfg):
    # the config's bound on ||H|| against the largest absolute row sum of
    # each H(t) the command integrates, sampled densely over its run
    parsed = _parse(cfg)
    opts = parsed.options
    times = np.linspace(0.0, 1.0, 1001)
    if parsed.command in ("pump", "trimer"):
        diag, off = schedule_arrays(opts["schedule"], opts["L"], times * opts["schedule"].total_time)
    elif parsed.command == "quench":
        chain = _build_model(opts["model"])
        if opts["disorder"] is not None:
            d = opts["disorder"]
            chain = apply_disorder(chain, DisorderSpec(d["sigma"], d["seed"], frozenset(d["targets"])))
        diag, off = chain.diagonal[np.newaxis], chain.offdiagonal[np.newaxis]
    else:
        path = _lz_path_from_options(opts["path"])
        diag, off = path.hamiltonian_arrays(times * path.period)
    norm = max(np.abs(ChainHamiltonian(d, o).to_dense()).sum(axis=1).max() for d, o in zip(diag, off))
    assert norm <= _norm_bound(parsed.command, opts) * (1.0 + 1e-12)


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
        assert set(record) == {"method", "steps", "steps_total", "error_estimate", "norm_drift"}
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
        ('{"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "spec": {"ej_over_ec": Infinity}}', "ej_over_ec"),
        (
            '{"schema": 1, "command": "pump", "schedule": {"kind": "ssh", "L": 2, "T": 5.0, "params": {'
            '"a": {"form": "const", "offset": NaN}, "b": {"form": "const", "offset": 1.0}}}}',
            "offset",
        ),
    ],
    ids=["quench-t_final", "fluxqubit-f_alpha", "fluxqubit-ej_over_ec", "pump-offset"],
)
def test_non_finite_numbers_are_named_violations(tmp_path, capsys, text, key):
    _rejected(tmp_path, capsys, text, key)


def test_non_finite_cli_flag_is_a_named_violation(tmp_path, capsys):
    assert main(["fluxqubit", "--f-alpha", "nan", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'f_alpha'" in err and "finite" in err and "Traceback" not in err


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


_HUGE_RANGE = {"start": -1.7e308, "stop": 1.7e308}


@pytest.mark.parametrize(
    "cfg, keys",
    [
        ({"schema": 1, "command": "spectrum", "kind": "ssh", "L": 7, "a": 0.0, "b": 1.0,
          "sweep": dict(_HUGE_RANGE, param="a", points=201)}, ("start", "stop")),
        ({"schema": 1, "command": "fluxqubit", "f_alpha": 0.2, "f_eps_range": dict(_HUGE_RANGE, points=41)},
         ("start", "stop")),
        ({"schema": 1, "command": "fluxqubit", "f_alpha_sweep": dict(_HUGE_RANGE, points=31)}, ("start", "stop")),
        ({"schema": 1, "command": "fluxqubit", "f_alpha": 0.2,
          "spec": {"ej": 1e300, "ej_over_ec": 1e-300, "charge_cutoff": 2}}, ("ej", "ej_over_ec")),
    ],
    ids=["sweep", "f_eps_range", "f_alpha_sweep", "flux-energies"],
)
def test_overflowing_inputs_are_named_violations(tmp_path, cfg, keys):
    # a fresh interpreter, so a numpy RuntimeWarning would reach stderr: a
    # range whose span overflows, or circuit energies that overflow H, are
    # rejected before anything runs
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


@pytest.mark.parametrize(
    "cfg, key",
    [({"path": {"type": "arc", "alpha": 1, "T": -1}}, "T"),
     ({"path": {"type": "arc", "alpha": 1, "T": 0}}, "T"),
     ({"classify_tol": 0, "path": {"type": "arc", "alpha": 1, "T": 5}}, "classify_tol")],
    ids=["T-negative", "T-zero", "classify_tol"],
)
def test_lz_bounds_are_named_violations(tmp_path, capsys, cfg, key):
    _rejected(tmp_path, capsys, json.dumps(dict(cfg, schema=1, command="lz")), key)


@pytest.mark.parametrize(
    "integrator, key",
    [({"rel_tol": 0}, "rel_tol"), ({"abs_tol": -1e-12}, "abs_tol"), ({"max_step": -1}, "max_step")],
    ids=["rel_tol", "abs_tol", "max_step"],
)
def test_integrator_bounds_are_named_violations(tmp_path, capsys, integrator, key):
    _rejected(tmp_path, capsys, json.dumps(dict(_TINY_QUENCH, integrator=integrator)), key)


def test_integrator_violations_are_all_reported():
    messages = _violations(dict(_TINY_QUENCH, integrator={"abs_tol": 0, "max_step": -1}))
    assert messages == ["key 'abs_tol' in config.integrator must be > 0",
                        "key 'max_step' in config.integrator must be > 0"]


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
    assert main(["couplings", "--out", str(tmp_path)]) == 1
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
