#!/usr/bin/env python3
"""Benchmark harness for topochain: one workload per run, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pump --seed 1 --seconds 1 --trace 0 --self-test

A run generates the workload's configs from ``--seed`` and runs each through
``topochain.cli.main(["run", "--config", ...])`` with the CLI defaults
(``--threads 1``, BLAS at its default thread count).  Whole passes over the
configs repeat until ``--seconds`` have passed (at least one pass).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced and traced passes in turn, and reports the per-layer metrics and
the tracing overhead.  Outputs are checked against independent oracles
(``oracles.py``) outside the timed region, and their SHA-256s must repeat
across passes and across runs of one seed.  The last line of standard
output is the result as JSON; the exit code is 0 only when every output is
correct.  ``--workload all`` runs every workload in its own process and
prints each metric with its unit and sample count.

Scratch files go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import topochain from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "topochain" / "__init__.py").is_file():
        raise SystemExit(f"error: no topochain package under {SRC}")
    sys.path.insert(0, str(SRC))
    import topochain
    from topochain import cli

    if Path(topochain.__file__).resolve().parent != (SRC / "topochain").resolve():
        raise SystemExit(f"error: imported topochain from {topochain.__file__}, not from {SRC}")
    return cli


def write_configs(jobs, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        paths[job.name] = directory / f"{job.name}.json"
        paths[job.name].write_text(json.dumps(job.config, indent=1), encoding="utf-8")
    return paths


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _blas_threads(package):
    import ctypes
    import glob

    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib_path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name(package) -> str:
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop; shows how fast the host ran."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_name(numpy),
        "numpy_blas_threads": _blas_threads(numpy),
        "scipy_blas": _blas_name(scipy),
        "scipy_blas_threads": _blas_threads(scipy),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "calibration_ms": calibration_ms(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    """Wall time of fresh processes that import topochain and write the configs."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
               "--probe-setup", str(scratch / f"probe{i}")]
        start = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return samples


def run_passes(cli, jobs, config_paths, run_dir, seconds, first, tracer=None):
    """Whole passes over the jobs until ``seconds`` have passed (at least one).

    Returns the pass walls and, per pass, each job's exit code."""
    walls, codes = [], []
    start = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        while True:
            index = first + len(walls)
            out = run_dir / f"pass{index}"
            pass_codes = {}
            t0 = time.perf_counter()
            for job in jobs:
                if tracer is not None:
                    tracer.start_run(f"pass{index}/{job.name}")
                argv = ["run", "--config", str(config_paths[job.name]), "--out", str(out)] + job.flags
                try:
                    with contextlib.redirect_stdout(sink):
                        pass_codes[job.name] = cli.main(argv)
                except SystemExit as exc:
                    pass_codes[job.name] = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash of one config fails that config, not the run
                    traceback.print_exc()
                    pass_codes[job.name] = 1
            walls.append(time.perf_counter() - t0)
            codes.append(pass_codes)
            if time.perf_counter() - start >= seconds:
                return walls, codes


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_hashes(out_dir: Path, job) -> dict:
    """Output SHA-256s from the job's manifest, each checked against its file."""
    manifest = json.loads((out_dir / f"{job.name}.manifest.json").read_text(encoding="utf-8"))
    outputs = manifest["outputs"]
    for name, sha in outputs.items():
        if _sha256(out_dir / name) != sha:
            raise ValueError(f"{name} does not match the SHA-256 in its manifest")
    return outputs


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "topochain").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def verify(jobs, codes, run_dir, workload, seed, self_test):
    """Failed executions (pass, job) and the problems found, outside the timed region."""
    import oracles

    by_name = {job.name: job for job in jobs}
    failed, problems = set(), []
    hashes = {}
    for index, pass_codes in enumerate(codes):
        out = run_dir / f"pass{index}"
        for job in jobs:
            if pass_codes[job.name] != 0:
                failed.add((index, job.name))
                problems.append(f"pass {index} {job.name}: exit code {pass_codes[job.name]}")
                continue
            try:
                got = output_hashes(out, job)
            except (OSError, ValueError, KeyError) as exc:
                failed.add((index, job.name))
                problems.append(f"pass {index} {job.name}: {exc}")
                continue
            if hashes.setdefault(job.name, got) != got:
                failed.add((index, job.name))
                problems.append(f"pass {index} {job.name}: outputs differ from pass 0")

    state = OUT / "hashes" / source_digest() / f"{workload}-seed{seed}.json"
    if state.is_file():
        earlier = json.loads(state.read_text(encoding="utf-8"))
        for name, got in hashes.items():
            if earlier.get(name, got) != got:
                failed.update((i, name) for i in range(len(codes)))
                problems.append(f"{name}: outputs differ from an earlier run of seed {seed}")
    elif len(hashes) == len(jobs):
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text(json.dumps(hashes, indent=1, sort_keys=True), encoding="utf-8")

    first = run_dir / "pass0"
    for job in jobs:
        if (0, job.name) in failed:
            continue
        found = oracles.check(job, first, by_name)
        if found:
            failed.update((i, job.name) for i in range(len(codes)))
            problems += [f"{job.name}: {p}" for p in found]

    missed = []
    if self_test:
        missed = corruption_self_test(jobs, first, run_dir / "corrupt", by_name, failed)
    return failed, problems, missed


def corruption_self_test(jobs, out_dir, scratch, by_name, failed):
    """Perturb one cell of each CSV output in turn; every oracle must notice."""
    import oracles

    missed = []
    for job in jobs:
        if (0, job.name) in failed:
            continue
        manifest = json.loads((out_dir / f"{job.name}.manifest.json").read_text(encoding="utf-8"))
        for name in manifest["outputs"]:
            if not name.endswith(".csv"):
                continue
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(out_dir, scratch)
            oracles.corrupt(scratch / name)
            caught = bool(oracles.check(job, scratch, by_name))
            if not caught:
                missed.append(f"{job.name}: a perturbed cell in {name} went unnoticed")
            print(f"self-test: perturbed {name}: {'caught' if caught else 'MISSED'}")
    shutil.rmtree(scratch, ignore_errors=True)
    return missed


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_workload(args, spec) -> int:
    from workloads import jobs_for

    cli = import_program()
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup = measure_setup(args.workload, args.seed, run_dir / "probes")
        jobs = jobs_for(args.workload, args.seed)
        config_paths = write_configs(jobs, run_dir / "configs")
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            traced, untraced, codes = [], [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                for enabled, pass_walls in ((False, untraced), (True, traced)):
                    tracer.enabled = enabled
                    more_walls, more_codes = run_passes(cli, jobs, config_paths, run_dir, 0.0, len(codes),
                                                        tracer if enabled else None)
                    pass_walls += more_walls
                    codes += more_codes
            walls = traced
        else:
            walls, codes = run_passes(cli, jobs, config_paths, run_dir, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems, missed = verify(jobs, codes, run_dir, args.workload, args.seed, args.self_test)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    samples = {}
    if args.trace:
        values = tracer.metrics(traced)
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write_jsonl(spans_path)
        for name in tracer.absent:
            print(f"absent span: {name}")
        for name, count in tracer.note_failures.items():
            print(f"span {name}: {count} counts could not be read")
        print(f"spans written to {spans_path}")
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1}

    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or missing:
        problems.append(f"metrics not matching BENCHMARK.json: missing {missing}, unlisted {unknown}")
    attempted = len(jobs) * len(codes)
    correct = not failed and not unknown and not missing and not missed
    machine = machine_record()

    for problem in problems + missed:
        print(f"FAIL {problem}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} timed pass(es) of {len(jobs)} configs, "
          f"fail_ratio {len(failed)}/{attempted}")
    for name in units:
        if name in values:
            count = f"  (n={samples[name]})" if name in samples else ""
            print(f"  {name:36s} {values[name]:>16.6f} {units[name]}{count}")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
              "pass_walls": walls, "setup_samples": setup, "samples": samples, "problems": problems + missed,
              "absent_spans": tracer.absent if tracer else [], "fail_ratio": len(failed) / attempted,
              "metrics": values}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own process; prints each metric by name."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.self_test:
            cmd.append("--self-test")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {done.returncode})")
            status = 1
            continue
        detail = json.loads((OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json")
                            .read_text(encoding="utf-8"))
        ok = result["correct"] and done.returncode == 0
        status = status or (0 if ok else 1)
        print(f"{workload}: correct={result['correct']} fail_ratio={result['failed']}/{result['attempted']}")
        for problem in detail["problems"]:
            print(f"  FAIL {problem}")
        for name, metric in result["metrics"].items():
            count = detail["samples"].get(name)
            count = f"  (n={count})" if count else ""
            print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}{count}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="also check that a perturbed cell in every CSV output fails its oracle")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    if args.probe_setup:
        import_program()
        from workloads import jobs_for

        write_configs(jobs_for(args.workload, args.seed), Path(args.probe_setup))
        return 0
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
