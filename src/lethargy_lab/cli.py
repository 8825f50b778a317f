"""Command-line entry point.

Subcommands mirror the pipeline stages: ``analyze`` (profile + condition
checkers), ``plan`` (anchor/step recursions), ``witness``, ``verify`` (full
pipeline with the sandwich table), and ``demo-dense`` (sup-norm polynomial
distances on a grid). Exit status: 0 pass, 2 bound violation, 3 config
error, 4 solver or plan stall.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigInvalid, LethargyLabError, NoProgress, PlanStalled
from .scenarios import bundled_scenarios, demo_dense_chain, run_scenario

def _load_config(source: str) -> dict:
    path = Path(source)
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    bundled = bundled_scenarios()
    if source in bundled:
        return bundled[source]
    raise ConfigInvalid(
        f"{source!r} is neither a config file nor a bundled scenario "
        f"(bundled: {', '.join(sorted(bundled))})")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True,
                        help="path to a scenario JSON, or a bundled scenario name")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mode", choices=("literal", "strict"), default=None,
                        help="override the config's plan mode (default strict)")
    parser.add_argument("--out", default=None, help="directory for reports")
    parser.add_argument("--format", choices=("json", "csv", "both"),
                        default="both", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lethargy-lab",
        description="Best-approximation lethargy bounds on nested subspace chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "separation profile and admissibility condition checkers"),
        ("plan", "anchor indices, step targets, and the upper constant"),
        ("witness", "construct the witness element"),
        ("verify", "full pipeline with the per-n sandwich table"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    demo = sub.add_parser("demo-dense",
                          help="sup-norm distances to polynomial subspaces on a grid")
    demo.add_argument("--grid", type=int, default=257)
    demo.add_argument("--degrees", type=int, default=12)
    demo.add_argument("--target", choices=("step", "runge", "exp", "both"),
                      default="both",
                      help="'both' runs the step and the smooth (runge) targets")
    demo.add_argument("--out", default=None)
    demo.add_argument("--format", choices=("json", "csv", "both"),
                      default="both", dest="fmt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo-dense":
            targets = ("step", "runge") if args.target == "both" else (args.target,)
            for target in targets:
                payload = demo_dense_chain(args.grid, args.degrees, target,
                                           out_dir=args.out, fmt=args.fmt)
                first = payload["rows"][0]["distance"]
                last = payload["rows"][-1]["distance"]
                print(f"demo-dense {target}: degree 1 -> {first:.6g}, "
                      f"degree {args.degrees} -> {last:.6g}")
            return 0
        config = _load_config(args.config)
        bundle = run_scenario(config, seed=args.seed, out_dir=args.out,
                              fmt=args.fmt, stage=args.command,
                              mode=args.mode)
        print(f"{bundle['name']}: {bundle['status']}")
        return int(bundle["exit_code"])
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (PlanStalled, NoProgress) as exc:
        print(f"solver stall: {exc}", file=sys.stderr)
        return 4
    except LethargyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
