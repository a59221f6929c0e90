"""Traced in-process run of one nethom CLI command, for per-layer metrics.

Usage: python3 perfbench/trace.py --seconds S --out-plain P --out-traced T -- ARGV...

Runs ``nethom.cli.main(ARGV + ["--out", ...])`` in this process: one untimed
call, then pairs of an untraced and a traced call, in alternating order, until
S seconds have passed (at least one pair). For a traced call every function
in ``FUNCTIONS`` is replaced, in every nethom module namespace that holds it,
by a timing wrapper; nested wrapped calls are caught, and a function's self
time is its wrapped spans minus the wrapped child spans inside them. The wrappers exist only in this process and
are removed after each traced call. Prints one JSON object: per-function
calls, self and inclusive seconds, items handled (edges parsed, colorings
enumerated), the traced and untraced totals, and exit codes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

# layer.function, as nethom's modules name them
FUNCTIONS = (
    "graphs.load_edge_list",
    "graphs.summarize",
    "colorings.load_coloring",
    "colorings.random_coloring",
    "colorings.homophilic_counts",
    "moments.moment_summary",
    "moments.covariance_structure",
    "moments.covariance_exact",
    "indices.build_index_report",
    "indices.z_scores",
    "indices.index_a",
    "indices.index_r",
    "indices.index_h",
    "indices.index_j_theta",
    "indices.newman_modularity",
    "oracle.enumerate_colorings",
    "oracle.exact_moments",
    "oracle.exact_tail",
)

# work items a call handled, read from its result
ITEMS = {
    "graphs.load_edge_list": lambda graph: graph.m,
    "oracle.enumerate_colorings": lambda dist: dist.total,
}


class Tracer:
    """Per-function call counts and self/inclusive time of one traced call."""

    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "items": 0}
                      for name in FUNCTIONS}
        self.children = [0.0]  # wrapped child time of each open span; [0] is cli.main
        self.patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        items = ITEMS.get(name)
        children = self.children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                children[-1] += dt
                stat["calls"] += 1
                stat["self_s"] += dt - inner
                stat["total_s"] += dt
            if items is not None:
                stat["items"] += items(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "nethom" or key.startswith("nethom.")]
        for name in FUNCTIONS:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"nethom.{layer}"), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-plain", required=True)
    parser.add_argument("--out-traced", required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = [a for a in args.cli_argv if a != "--"]

    from nethom import cli

    def plain_call():
        t0 = time.perf_counter()
        codes.append(cli.main(cli_argv + ["--out", args.out_plain]))
        plain_s.append(time.perf_counter() - t0)

    def traced_call():
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            codes.append(cli.main(cli_argv + ["--out", args.out_traced]))
            total = time.perf_counter() - t0
        finally:
            tracer.remove()
        traced_s.append(total)
        runs.append({"cli_self_s": total - tracer.children[0], "functions": tracer.stats})

    plain_s, traced_s, codes, runs = [], [], [], []
    cli.main(cli_argv + ["--out", args.out_plain])  # untimed: first-call allocations
    deadline = time.perf_counter() + args.seconds
    while True:  # alternate which side goes first, so drift hits both alike
        first, second = (plain_call, traced_call) if len(runs) % 2 == 0 else (traced_call, plain_call)
        first()
        second()
        if time.perf_counter() >= deadline:
            break

    functions = {}
    for name in FUNCTIONS:
        per_run = [run["functions"][name] for run in runs]
        # counts repeat exactly from run to run; times are medians
        functions[name] = {
            "calls": per_run[0]["calls"],
            "items": per_run[0]["items"],
            "self_s": statistics.median(r["self_s"] for r in per_run),
            "total_s": statistics.median(r["total_s"] for r in per_run),
        }
    json.dump({
        "pairs": len(runs),
        "exit_codes": codes,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "total_s": statistics.median(traced_s),
        "cli_self_s": statistics.median(run["cli_self_s"] for run in runs),
        "overhead_s": statistics.median(traced_s) - statistics.median(plain_s),
        "functions": functions,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
