"""Config validation, artifact determinism and the CLI surface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topochain.cli
from topochain.cli import main
from topochain.config import parse_config
from topochain.errors import SchemaError
from topochain.io import file_sha256
from topochain.presets import PRESETS


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
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path), "--threads", "2"]) == 0
    with open(tmp_path / "fluxqubit.csv") as fh:
        rows = list(csv.DictReader(fh))
    centre = rows[2]
    assert float(centre["f_eps"]) == 0.0
    assert abs(float(centre["g_par"])) <= 1e-8
    assert float(centre["g_perp"]) > 0.0


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
    ],
    ids=["L-0", "aah-n_sites-1", "quench-n_records-1", "pump-n_records-1", "flip_site-9",
         "initial_site-0", "reduce-L-0", "lz-n_samples-2"],
)
def test_sizes_and_sites_are_named_violations(tmp_path, capsys, cfg, key):
    _rejected(tmp_path, capsys, json.dumps(cfg), key)


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


def test_non_finite_state_fails_the_run(tmp_path, capsys):
    # H entries of 1e200 overflow the RK4 stages to inf and then NaN
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
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
    cfg = {"schema": 1, "command": "quench", "kind": "ssh", "L": 3, "a": 1e200, "b": 1,
           "t_final": 1, "integrator": {"method": method}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "topochain.cli", "run", "--config", str(cfg_path), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


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
