"""Command-line front end: analyze, baseline, oracle-check, toy-curve.

Exit codes: 0 success (degenerate instances still report, with "undefined"
fields), 1 failed validation checks, 2 input/parse errors, 3 enumeration
limit refusals. Every report is made by :func:`_emit`: the tool version,
command and seed, then the command's fields, as JSON (--format tsv gives a
flat key/value variant). :func:`_index_block` is the one JSON view of an
``IndexReport``. All output, toy-curve's CSV too, goes through :func:`_write`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any

from . import __version__
from .colorings import (
    Coloring,
    ObservedOutcome,
    Profile,
    homophilic_counts,
    load_coloring,
    sample_counts,
)
from .graphs import Graph, gamma_invariant, load_edge_list, summarize
from .indices import (
    PRESET_NAMES,
    IndexEvaluator,
    build_index_report,
    index_a,
    z_scores,
)
from .moments import covariance_structure
from .oracle import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    enumerate_colorings,
    matching_graph,
    matching_tail_table,
    validate,
)

_PRESET_FLAGS = {
    "ratio": ("ratio",),
    "avgdeg": ("avg_internal_degree",),
    "dyadicity": ("dyadicity",),
    "all": PRESET_NAMES,
}


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


def _load_pair(args) -> tuple[Graph, Coloring]:
    with open(args.graph, "rb") as fh:
        graph = load_edge_list(fh, dedupe=args.dedupe)
    with open(args.coloring, "rb") as fh:
        coloring = load_coloring(fh, graph)
    return graph, coloring


def _graph_block(summary) -> dict:
    return {
        "n": summary.n,
        "m": summary.m,
        "density": summary.rho,
        "delta1": summary.delta1,
        "delta2": summary.delta2,
        "dispersion": summary.upsilon,
        "pi3": summary.pi3,
        "gamma": float(gamma_invariant(summary)),
    }


def _profile_block(coloring: Coloring) -> dict:
    return {"classes": coloring.class_labels, "sizes": coloring.profile.sizes}


def _index_block(report) -> dict:
    return {
        "a": report.a,
        "one_minus_a": None if report.a is None else 1.0 - report.a,
        "one_minus_a_x1e6": None if report.a is None else (1.0 - report.a) * 1e6,
        "r": report.r,
        "one_minus_r": 1.0 - report.r,
        "h": report.h,
        "j_theta": report.j_theta,
        "newman_q": report.newman_q,
        "descriptive_ratio": report.descriptive_ratio,
    }


def _mean(values: list) -> float | None:
    """The mean of per-sample values, or None unless the value is defined on every sample."""
    return None if any(v is None for v in values) else sum(values) / len(values)


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    graph, coloring = _load_pair(args)
    t1 = time.perf_counter()
    summary = summarize(graph)
    cs = covariance_structure(summary, coloring.profile)
    outcome = homophilic_counts(graph, coloring)
    report = build_index_report(graph, coloring, outcome, cs, presets=_PRESET_FLAGS[args.preset])
    t2 = time.perf_counter()
    _emit("analyze", None, {
        "graph": _graph_block(summary),
        "profile": _profile_block(coloring),
        "observed": report.observed,
        "expected": report.mbar,
        "variance": cs.var_f.tolist(),
        "z": report.z,
        "indices": _index_block(report),
        "degeneracy": {
            "degenerate": cs.degenerate,
            "active_classes": [coloring.class_labels[i] for i in cs.active],
            "notes": report.notes,
        },
        "timing": {"parse_seconds": t1 - t0, "compute_seconds": t2 - t1},
    }, args)
    return 0


def cmd_baseline(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    graph, coloring = _load_pair(args)
    profile = coloring.profile
    cs = covariance_structure(summarize(graph), profile)
    observed = homophilic_counts(graph, coloring)
    seeds = list(range(args.seed, args.seed + args.samples))
    evaluator = IndexEvaluator(
        graph, profile, cs, coloring.class_labels, presets=_PRESET_FLAGS[args.preset]
    )
    counts, mass = sample_counts(graph, profile, seeds)
    reports = [evaluator.report(row, row_mass) for row, row_mass in zip(counts.tolist(), mass.tolist())]
    means = {
        "a": _mean([r.a for r in reports]),
        "r": _mean([r.r for r in reports]),
        "h": _mean([r.h for r in reports]),
        **{f"j_theta.{name}": _mean([r.j_theta[name] for r in reports]) for name in reports[0].j_theta},
        "newman_q": _mean([r.newman_q for r in reports]),
        "descriptive_ratio": _mean([r.descriptive_ratio for r in reports]),
    }
    _emit("baseline", args.seed, {
        "seeds": seeds,
        "samples": args.samples,
        "profile": _profile_block(coloring),
        "observed_input": observed.counts,
        "per_sample": [
            {"seed": seed, "observed": r.observed, "indices": _index_block(r)}
            for seed, r in zip(seeds, reports)
        ],
        "means": means,
    }, args)
    return 0


def cmd_oracle_check(args) -> int:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    with open(args.graph, "rb") as fh:
        graph = load_edge_list(fh, dedupe=args.dedupe)
    sizes = []
    for tok in map(str.strip, args.profile.split(",")):  # blanks around a size are allowed
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"--profile must be comma-separated sizes in digits 0-9, got {tok!r}")
        sizes.append(int(tok))
    profile = Profile(tuple(sizes))
    dist = enumerate_colorings(graph, profile, limit=args.limit)
    summary = summarize(graph)
    checks = validate(dist, covariance_structure(summary, profile))
    _emit("oracle-check", None, {
        "instance": {"graph": _graph_block(summary), "profile": profile.sizes, "colorings": dist.total},
        "checks": checks,
    }, args)
    return 0 if all(c["status"] != "FAIL" for c in checks) else 1


def cmd_toy_curve(args) -> int:
    m = args.edges
    if m < 2:
        raise ValueError("--edges must be >= 2")
    if m % 2:
        print(f"note: odd edge count {m}: support capped at floor(m/2)", file=sys.stderr)
    cs = covariance_structure(summarize(matching_graph(m)), Profile((m, m)))
    tails = matching_tail_table(m)
    lines = ["k,F,ratio,modularity,index_a"]
    for k in range(m // 2 + 1):
        f_k = float(1 - tails[k])
        ratio = 2 * k / m
        modularity = 2 * (k / m - 0.25)
        a_k = index_a(z_scores(ObservedOutcome((k, k)), cs), cs)
        lines.append(f"{k},{f_k!r},{ratio!r},{modularity!r},{a_k!r}")
    _write("\n".join(lines) + "\n", args.out)
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
    p.add_argument("--preset", choices=tuple(_PRESET_FLAGS), default="all")
    common_io(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("baseline", help="indices on random colorings of the same profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=tuple(_PRESET_FLAGS), default="all")
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
