"""Command-line front end: analyze, baseline, oracle-check, toy-curve.

Exit codes: 0 success (degenerate instances still report, with "undefined"
fields), 1 failed validation checks, 2 input/parse errors, 3 enumeration
limit refusals. Reports are JSON by default (--format tsv gives a flat
key/value variant); toy-curve emits CSV. Every report embeds the tool
version and the seed(s) that produced it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .colorings import (
    Coloring,
    ColoringError,
    ObservedOutcome,
    Profile,
    homophilic_counts,
    load_coloring,
    sample_counts,
)
from .graphs import EdgeListError, Graph, gamma_invariant, load_edge_list, summarize
from .indices import (
    NU_MODES,
    PRESET_NAMES,
    IndexEvaluator,
    build_index_report,
    index_a,
    z_scores,
)
from .moments import covariance_structure
from .oracle import (
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
        return x if np.isfinite(x) else "undefined"
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(x.item())
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _flatten(payload: Any, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
        return rows
    rows.append((prefix[:-1], json.dumps(payload)))
    return rows


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join(f"{k}\t{v}\n" for k, v in _flatten(payload))
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
    g = gamma_invariant(summary)
    return {
        "n": summary.n,
        "m": summary.m,
        "density": summary.rho,
        "delta1": summary.delta1,
        "delta2": summary.delta2,
        "dispersion": summary.upsilon,
        "pi3": summary.pi3,
        "gamma": float(g) if g is not None else None,
    }


def _index_block(report) -> dict:
    return {
        "a": report.a,
        "one_minus_a": None if report.a is None else 1.0 - report.a,
        "one_minus_a_x1e6": None if report.a is None else (1.0 - report.a) * 1e6,
        "r": report.r,
        "one_minus_r": 1.0 - report.r,
        "h": report.h,
        "j_theta": dict(report.j_theta),
        "newman_q": report.newman_q,
        "descriptive_ratio": report.descriptive_ratio,
    }


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    graph, coloring = _load_pair(args)
    t1 = time.perf_counter()
    summary = summarize(graph)
    profile = coloring.profile
    cs = covariance_structure(summary, profile)
    outcome = homophilic_counts(graph, coloring)
    report = build_index_report(
        graph, coloring, outcome, cs,
        presets=_PRESET_FLAGS[args.preset], nu_mode=args.nu,
    )
    t2 = time.perf_counter()
    payload = _jsonable(
        {
            "tool": {"name": "nethom", "version": __version__},
            "command": "analyze",
            "seed": None,
            "graph": _graph_block(summary),
            "profile": {
                "classes": list(coloring.class_labels),
                "sizes": list(profile.sizes),
            },
            "observed": list(report.observed),
            "expected": list(report.mbar),
            "variance": [float(v) for v in cs.var],
            "z": list(report.z),
            "indices": _index_block(report),
            "degeneracy": {
                "degenerate": cs.degenerate,
                "active_classes": [coloring.class_labels[i] for i in cs.active],
                "notes": list(report.notes),
            },
            "timing": {
                "parse_seconds": t1 - t0,
                "compute_seconds": t2 - t1,
            },
        }
    )
    _emit(payload, args.format, args.out)
    return 0


def cmd_baseline(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    graph, coloring = _load_pair(args)
    summary = summarize(graph)
    profile = coloring.profile
    cs = covariance_structure(summary, profile)
    per_sample = []
    values: dict[str, list[float]] = {}

    def _tally(key: str, value: float | None) -> None:
        values.setdefault(key, [])
        if value is not None:
            values[key].append(value)

    observed = homophilic_counts(graph, coloring)
    seeds = list(range(args.seed, args.seed + args.samples))
    evaluator = IndexEvaluator(
        graph, profile, cs, coloring.class_labels,
        presets=_PRESET_FLAGS[args.preset], nu_mode=args.nu,
    )
    counts, mass = sample_counts(graph, profile, seeds)
    for seed, row, row_mass in zip(seeds, counts.tolist(), mass.tolist()):
        rep = evaluator.report(row, row_mass)
        per_sample.append(
            {"seed": seed, "observed": list(rep.observed), "indices": _index_block(rep)}
        )
        _tally("a", rep.a)
        _tally("r", rep.r)
        _tally("h", rep.h)
        for name, val in rep.j_theta.items():
            _tally(f"j_theta.{name}", val)
        _tally("newman_q", rep.newman_q)
        _tally("descriptive_ratio", rep.descriptive_ratio)

    # a mean is reported only when the index was defined on every sample
    means = {
        key: (sum(vals) / len(vals) if len(vals) == args.samples else None)
        for key, vals in values.items()
    }
    payload = _jsonable(
        {
            "tool": {"name": "nethom", "version": __version__},
            "command": "baseline",
            "seed": args.seed,
            "seeds": seeds,
            "samples": args.samples,
            "profile": {
                "classes": list(coloring.class_labels),
                "sizes": list(profile.sizes),
            },
            "observed_input": list(observed.counts),
            "per_sample": per_sample,
            "means": means,
        }
    )
    _emit(payload, args.format, args.out)
    return 0


def cmd_oracle_check(args) -> int:
    with open(args.graph, "rb") as fh:
        graph = load_edge_list(fh, dedupe=args.dedupe)
    profile = Profile(tuple(int(tok) for tok in args.profile.split(",") if tok.strip()))
    dist = enumerate_colorings(graph, profile, limit=args.limit)
    summary = summarize(graph)
    checks = validate(dist, covariance_structure(summary, profile))
    payload = _jsonable(
        {
            "tool": {"name": "nethom", "version": __version__},
            "command": "oracle-check",
            "seed": None,
            "instance": {
                "graph": _graph_block(summary),
                "profile": list(profile.sizes),
                "colorings": dist.total,
            },
            "checks": checks,
        }
    )
    _emit(payload, args.format, args.out)
    return 0 if all(c["status"] != "FAIL" for c in checks) else 1


def cmd_toy_curve(args) -> int:
    m = args.edges
    if m < 2:
        raise ValueError("--edges must be >= 2")
    if m % 2:
        print(f"note: odd edge count {m}: support capped at floor(m/2)", file=sys.stderr)
    graph = matching_graph(m)
    summary = summarize(graph)
    profile = Profile((m, m))
    cs = covariance_structure(summary, profile)
    tails = matching_tail_table(m)
    lines = ["k,F,ratio,modularity,index_a"]
    for k in range(m // 2 + 1):
        f_k = float(1 - tails[k])
        ratio = 2 * k / m
        modularity = 2 * (k / m - 0.25)
        a_k = index_a(z_scores(ObservedOutcome((k, k)), cs), cs)
        lines.append(f"{k},{f_k!r},{ratio!r},{modularity!r},{a_k!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    p.add_argument("--nu", choices=NU_MODES, default="maxdeg")
    common_io(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("baseline", help="indices on random colorings of the same profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=tuple(_PRESET_FLAGS), default="all")
    p.add_argument("--nu", choices=NU_MODES, default="maxdeg")
    common_io(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("oracle-check", help="validate closed forms by exact enumeration")
    p.add_argument("--graph", required=True)
    p.add_argument("--profile", required=True, help="comma-separated class sizes, e.g. 2,2")
    p.add_argument("--limit", type=int, default=10**6)
    common_io(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("toy-curve", help="exact curves for the disjoint-edges example")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_toy_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EdgeListError, ColoringError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
