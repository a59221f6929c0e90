"""Command-line front end: analyze, baseline, oracle-check, toy-curve.

The CLI only parses flags, times and prints: :mod:`nethom.reports` checks
the flag values and builds every report body. Exit codes: 0 success
(degenerate instances still report, with "undefined" fields), 1 failed
validation checks, 2 input/parse errors, 3 enumeration limit refusals.
Every report is made by :func:`_emit`: the tool version, command and seed,
then the command's fields, as JSON (--format tsv gives a flat key/value
variant). All output, toy-curve's CSV too, goes through :func:`_write`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

from . import __version__, reports
from .oracle import DEFAULT_ENUMERATION_LIMIT, EnumerationLimitError


def _jsonable(x: Any) -> Any:
    """Make report values JSON-safe; missing/non-finite numbers -> "undefined"."""
    if x is None:
        return "undefined"
    if isinstance(x, float):
        return x if math.isfinite(x) else "undefined"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _flatten(payload: Any, prefix: str = "") -> list[tuple[str, str]]:
    if not isinstance(payload, dict):
        return [(prefix[:-1], json.dumps(payload))]
    return [row for k, v in payload.items() for row in _flatten(v, f"{prefix}{k}.")]


def _emit(command: str, seed: int | None, body: dict, args) -> None:
    """Write the report ``body`` under the tool/command/seed header, as --format asks."""
    payload = _jsonable(
        {"tool": {"name": "nethom", "version": __version__}, "command": command, "seed": seed, **body}
    )
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{k}\t{v}\n" for k, v in _flatten(payload))
    _write(text, args.out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    graph, coloring = reports.load_pair(args.graph, args.coloring, args.dedupe)
    t1 = time.perf_counter()
    body = reports.analyze(graph, coloring, args.preset)
    t2 = time.perf_counter()
    body["timing"] = {"parse_seconds": t1 - t0, "compute_seconds": t2 - t1}
    _emit("analyze", None, body, args)
    return 0


def cmd_baseline(args) -> int:
    body = reports.baseline(args.graph, args.coloring, args.samples, args.seed, args.preset, args.dedupe)
    _emit("baseline", args.seed, body, args)
    return 0


def cmd_oracle_check(args) -> int:
    body = reports.oracle_check(args.graph, args.profile, args.limit, args.dedupe)
    _emit("oracle-check", None, body, args)
    return 1 if any(c["status"] == "FAIL" for c in body["checks"]) else 0


def cmd_toy_curve(args) -> int:
    text, notes = reports.toy_curve(args.edges)
    sys.stderr.write("".join(f"note: {note}\n" for note in notes))
    _write(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nethom",
        description="Quantify network homophily under the random coloring null model.",
    )
    parser.add_argument("--version", action="version", version=f"nethom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--dedupe", action="store_true", help="merge duplicate edges")

    p = sub.add_parser("analyze", help="index report for one graph + coloring")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--preset", choices=tuple(reports.PRESET_FLAGS), default="all")
    common_io(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("baseline", help="indices on random colorings of the same profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=tuple(reports.PRESET_FLAGS), default="all")
    common_io(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("oracle-check", help="validate closed forms by exact enumeration")
    p.add_argument("--graph", required=True)
    p.add_argument("--profile", required=True, help="comma-separated class sizes, e.g. 2,2")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    common_io(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("toy-curve", help="exact curves for the disjoint-edges example")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_toy_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EnumerationLimitError) else 2


if __name__ == "__main__":
    sys.exit(main())
