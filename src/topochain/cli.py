"""Command-line front end.

Subcommands:
  run        execute a JSON experiment config
  reproduce  run the bundled preset configs for one figure id
  couplings  modulated-coupling sweep straight from flags
  fluxqubit  flux-qubit spectrum/coupling sweep straight from flags
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import parse_config
from .couplings import DEFAULT_N_MAX
from .errors import SchemaError, TopochainError
from .presets import FIGURE_IDS
from .runner import reproduce, run


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("TOPOCHAIN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"ignoring non-integer TOPOCHAIN_THREADS={env!r}", file=sys.stderr)
    return 1


def _add_common(parser):
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None, help="worker threads for sweeps (env TOPOCHAIN_THREADS)")
    parser.add_argument("--amplitudes", action="store_true", help="add re_j/im_j state columns to trajectory CSVs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topochain",
        description="Topological edge-state storage and adiabatic transfer in 1D qubit chains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    _add_common(p_run)

    p_rep = sub.add_parser("reproduce", help="write the data files behind one figure")
    p_rep.add_argument("figure", help=f"one of: {', '.join(FIGURE_IDS)}")
    _add_common(p_rep)

    p_cpl = sub.add_parser("couplings", help="effective-coupling sweep over drive ratios")
    p_cpl.add_argument("--scheme", choices=("identical", "matched"), default="identical")
    p_cpl.add_argument("--bare-a", type=float, default=1.0)
    p_cpl.add_argument("--bare-b", type=float, default=1.0)
    p_cpl.add_argument("--alpha1", nargs=3, type=float, default=(0.0, 2.0, 21), metavar=("START", "STOP", "POINTS"))
    p_cpl.add_argument("--alpha2", nargs=3, type=float, default=(0.0, 2.0, 21), metavar=("START", "STOP", "POINTS"))
    p_cpl.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    _add_common(p_cpl)

    p_flx = sub.add_parser("fluxqubit", help="flux-qubit levels and couplings vs bias flux")
    p_flx.add_argument("--f-alpha", type=float, default=0.2)
    p_flx.add_argument("--f-eps-range", nargs=2, type=float, default=(-0.05, 0.05), metavar=("LO", "HI"))
    p_flx.add_argument("--sweep-points", type=int, default=41)
    p_flx.add_argument("--levels", type=int, default=5)
    p_flx.add_argument("--charge-cutoff", type=int, default=15)
    _add_common(p_flx)
    return parser


def _config_from_flags(args) -> dict:
    if args.subcommand == "couplings":
        def rng(triple):
            return {"start": triple[0], "stop": triple[1], "points": int(triple[2])}

        return {
            "schema": 1,
            "command": "couplings",
            "scheme": args.scheme,
            "bare_a": args.bare_a,
            "bare_b": args.bare_b,
            "alpha1": rng(args.alpha1),
            "alpha2": rng(args.alpha2),
            "n_max": args.n_max,
        }
    return {
        "schema": 1,
        "command": "fluxqubit",
        "f_alpha": args.f_alpha,
        "f_eps_range": {"start": args.f_eps_range[0], "stop": args.f_eps_range[1], "points": args.sweep_points},
        "levels": args.levels,
        "spec": {"charge_cutoff": args.charge_cutoff},
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = _threads_from(args)
    try:
        if args.subcommand == "run":
            text = Path(args.config).read_text(encoding="utf-8")
            cfg = parse_config(text)
            if args.seed is not None:
                raw = dict(cfg.raw, seed=args.seed)
                cfg = parse_config(json.dumps(raw))
            result = run(cfg, args.out, threads, args.amplitudes)
            for path in result.files + [result.manifest]:
                print(f"wrote {path}")
        elif args.subcommand == "reproduce":
            results = reproduce(args.figure, args.out, threads, args.amplitudes)
            for result in results:
                for path in result.files + [result.manifest]:
                    print(f"wrote {path}")
        else:
            cfg = parse_config(json.dumps(_config_from_flags(args)))
            result = run(cfg, args.out, threads, args.amplitudes)
            if args.subcommand == "couplings":
                print(result.files[0].read_text(encoding="utf-8"), end="")
            for path in result.files + [result.manifest]:
                print(f"wrote {path}")
    except SchemaError as exc:
        print("config rejected:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except (FileNotFoundError, TopochainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # e.g. MemoryError or a library's ValueError: one line, no traceback
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}" + (f": {detail}" if detail else ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
