"""Command-line front end.

Subcommands:
  run        execute a JSON experiment config
  reproduce  run the bundled preset configs for one or more figure ids

Every command of the config format (README, "Config format") is reached
through ``run --config``; a figure's presets through ``reproduce``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_config
from .errors import SchemaError, TopochainError
from .presets import FIGURE_IDS
from .runner import reproduce, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topochain",
        description="Topological edge-state storage and adiabatic transfer in 1D qubit chains",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_rep = sub.add_parser("reproduce", help="write the data files behind one or more figures")
    p_rep.add_argument("figure", nargs="+", help=f"any of: {', '.join(FIGURE_IDS)}, or all")
    for p in (p_run, p_rep):
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--amplitudes", action="store_true", help="add re_j/im_j state columns to trajectory CSVs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "run":
            cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
            if args.seed is not None:
                cfg = parse_config(json.dumps(dict(cfg.raw, seed=args.seed)))
            results = [run(cfg, args.out, args.amplitudes)]
        else:
            results = reproduce(args.figure, args.out, args.amplitudes, args.seed)
        for result in results:
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
