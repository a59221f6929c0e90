"""Seeded input generator for the nethom CLI benchmark.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes the workload's input files into DIR (``graph.edges`` and, except for
enumeration, ``coloring.tsv``) and beside them ``expected.json``: the realised
properties of the traffic (n, m, s, distinct class sizes, id kind, max degree,
sign of gamma, colorings, support size) and the values the output checks
compare against. Every expected value is computed here from the generated
arrays, never by calling nethom, so the checks stay independent of the code
they check. The same (workload, seed) always writes the same bytes.

Adapted from ``_write_synthetic_instance`` in tests/test_acceptance.py and
extended with the per-workload properties recorded in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np

WORKLOADS = {
    # SNAP style: '#' header, integer ids, edges sorted by (u, v), 'v' lines
    # only for isolated vertices; near-regular degrees from stub matching
    "big_graph": dict(n=60_000, m=300_000, s=20, isolated=20),
    # 'u<k>' ids, shuffled edges, Chung-Lu hubs (weight ~ rank^-0.7),
    # Zipf-like class sizes with many distinct values
    "many_classes": dict(n=20_000, m=80_000, s=400, hub_exponent=0.7, zipf_exponent=0.95),
    # uniform G(n, m), integer ids, shuffled edges
    "resampling": dict(n=20_000, m=100_000, s=20),
    # random 11-vertex, 22-edge graph whose outcome support falls in a narrow
    # window, so the oracle's quadratic tail loop does the same work per seed
    "enumeration": dict(n=11, m=22, profile=(3, 4, 4), support=(132, 135)),
}


def _first_distinct(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Mask of pairs that are no loop and the first occurrence of their pair."""
    _, first = np.unique(lo * n + hi, return_index=True)
    keep = np.zeros(lo.size, dtype=bool)
    keep[first] = True
    return keep & (lo != hi)


def stub_matching(rng: np.random.Generator, n: int, m: int, isolated: int):
    """Near-regular simple graph with ``isolated`` degree-0 vertices, sorted.

    Every other vertex gets 2m/(n - isolated) stubs (the remainder spread one
    each) and stubs are paired uniformly; stubs that form a loop or repeat a
    pair are shuffled and paired again. Endpoints are uniform over stubs, the
    degree dispersion is far below (1 - rho)/2, so gamma > 0 (a uniform
    G(n, m) graph has dispersion near 1 and gamma < 0).
    """
    iso = np.sort(rng.choice(n, size=isolated, replace=False))
    live = np.setdiff1d(np.arange(n, dtype=np.int64), iso)
    base, extra = divmod(2 * m, live.size)
    pending = np.concatenate([np.repeat(live, base), rng.choice(live, size=extra, replace=False)])
    placed = np.empty(0, dtype=np.int64)  # sorted packed pairs lo * n + hi
    while pending.size:
        pending = rng.permutation(pending)
        a, b = pending[0::2], pending[1::2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        packed = lo * n + hi
        ok = _first_distinct(lo, hi, n)
        if placed.size:
            at = np.minimum(np.searchsorted(placed, packed), placed.size - 1)
            ok &= placed[at] != packed
        if not ok.any():
            break
        new = np.sort(packed[ok])
        placed = np.insert(placed, np.searchsorted(placed, new), new)
        pending = np.concatenate([a[~ok], b[~ok]])
    # stubs that keep colliding (all on one vertex): close with uniform pairs
    taken = set(placed.tolist()) if placed.size < m else set()
    extra_pairs = []
    while placed.size + len(extra_pairs) < m:
        a, b = sorted(int(x) for x in rng.choice(live, size=2, replace=False))
        if a * n + b not in taken:
            taken.add(a * n + b)
            extra_pairs.append(a * n + b)
    placed = np.sort(np.concatenate([placed, np.asarray(extra_pairs, dtype=np.int64)]))
    return placed // n, placed % n


def weighted_pairs(rng: np.random.Generator, n: int, m: int, weights: np.ndarray):
    """m distinct non-loop pairs, endpoints drawn with probability ~ weights."""
    p = weights / weights.sum()
    lo = np.empty(0, dtype=np.int64)
    hi = np.empty(0, dtype=np.int64)
    while lo.size < m:
        size = int((m - lo.size) * 1.3) + 1000
        a = rng.choice(n, size=size, p=p)
        b = rng.choice(n, size=size, p=p)
        lo = np.concatenate([lo, np.minimum(a, b)])
        hi = np.concatenate([hi, np.maximum(a, b)])
        keep = _first_distinct(lo, hi, n)
        lo, hi = lo[keep], hi[keep]
    return lo[:m], hi[:m]


def zipf_sizes(n: int, s: int, exponent: float) -> np.ndarray:
    """s class sizes >= 2 summing to n, size_k ~ k^-exponent (largest first)."""
    shape = np.arange(1, s + 1, dtype=float) ** -exponent
    lo_c, hi_c = 0.0, float(n)
    for _ in range(200):  # bisect the scale so the sizes sum to n
        mid = (lo_c + hi_c) / 2
        if (2 + np.floor(mid * shape)).sum() > n:
            hi_c = mid
        else:
            lo_c = mid
    sizes = (2 + np.floor(lo_c * shape)).astype(np.int64)
    sizes[0] += n - int(sizes.sum())
    return sizes


def gamma_exact(n: int, m: int, degrees: np.ndarray) -> Fraction:
    """Degree-moment form of gamma: (n / n^(4)) ((2n-3)/(2n-2) d1^2 + d1/2 - d2)."""
    d1 = Fraction(2 * m, n)
    d2 = Fraction(int(np.dot(degrees, degrees)), n)
    return Fraction(n, math.perm(n, 4)) * (Fraction(2 * n - 3, 2 * n - 2) * d1 * d1 + d1 / 2 - d2)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _all_colorings(sizes: tuple[int, ...]) -> np.ndarray:
    """Every coloring of the profile as a (count, n) int8 array.

    Class k takes every size_k-subset of the positions still free; the last
    class takes what is left.
    """
    n = sum(sizes)
    rows = np.full((1, n), len(sizes) - 1, dtype=np.int8)
    free = np.arange(n)[None, :]
    for k, size in enumerate(sizes[:-1]):
        width = free.shape[1]
        picks = np.array(list(itertools.combinations(range(width), size)))
        rests = np.array([[i for i in range(width) if i not in pick] for pick in picks])
        count = len(picks)
        rows = np.repeat(rows, count, axis=0)
        free = np.repeat(free, count, axis=0)
        reps = free.shape[0] // count
        np.put_along_axis(rows, np.take_along_axis(free, np.tile(picks, (reps, 1)), axis=1), k, axis=1)
        free = np.take_along_axis(free, np.tile(rests, (reps, 1)), axis=1)
    return rows


def support_size(indicators: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> int:
    """Distinct per-class homophilic count vectors over all colorings.

    ``indicators[k]`` is the (colorings, n) 0/1 matrix of class k, so the
    class-k count of every coloring is the quadratic form x' A x with A the
    upper-triangular adjacency matrix.
    """
    n = indicators[0].shape[1]
    adj = np.zeros((n, n))
    adj[lo, hi] = 1.0
    key = np.zeros(indicators[0].shape[0], dtype=np.int64)
    for x in indicators:
        counts = np.rint(((x @ adj) * x).sum(axis=1)).astype(np.int64)
        key = key * (lo.size + 1) + counts
    return int(np.unique(key).size)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _edge_text(ids, lo, hi, sep: str) -> str:
    return "".join(f"{ids[a]}{sep}{ids[b]}\n" for a, b in zip(lo.tolist(), hi.tolist()))


def _class_summary(labels, assign, lo, hi, s):
    """Per-class label, size and homophilic count, recounted from the arrays."""
    sizes = np.bincount(assign, minlength=s)
    cu = assign[lo]
    observed = np.bincount(cu[cu == assign[hi]], minlength=s)
    return {labels[k]: [int(sizes[k]), int(observed[k])] for k in range(s)}


def _enumeration(rng: np.random.Generator, cfg: dict, seed: int, out: str) -> dict:
    n, m, profile = cfg["n"], cfg["m"], cfg["profile"]
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    colorings = _all_colorings(profile)
    indicators = [(colorings == k).astype(float) for k in range(len(profile))]
    for draws in itertools.count(1):
        pick = np.sort(rng.choice(len(pairs), size=m, replace=False))
        lo, hi = pairs[pick, 0], pairs[pick, 1]
        support = support_size(indicators, lo, hi)
        if cfg["support"][0] <= support <= cfg["support"][1]:
            break
    degrees = np.bincount(np.concatenate([lo, hi]), minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    ids = [str(i) for i in range(n)]
    _write(
        os.path.join(out, "graph.edges"),
        _edge_text(ids, lo, hi, " ") + "".join(f"v {ids[i]}\n" for i in isolated),
    )
    gamma = gamma_exact(n, m, degrees)
    return {
        "workload": "enumeration",
        "seed": seed,
        "properties": {
            "n": n, "m": m, "s": len(profile),
            "distinct_class_sizes": len(set(profile)),
            "id_kind": "int", "max_degree": int(degrees.max()),
            "gamma_sign": _sign(gamma), "isolated": int(isolated.size),
            "colorings": int(colorings.shape[0]), "support": support,
            "graph_draws": draws,
        },
        "profile": list(profile),
        "colorings": int(colorings.shape[0]),
    }


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into ``out`` and return its expected record."""
    cfg = WORKLOADS[workload]
    # the workload name is mixed into the stream so workloads never share draws
    rng = np.random.default_rng([seed, sum(workload.encode())])
    if workload == "enumeration":
        return _enumeration(rng, cfg, seed, out)

    n, m, s = cfg["n"], cfg["m"], cfg["s"]
    header = ""
    if workload == "big_graph":
        lo, hi = stub_matching(rng, n, m, cfg["isolated"])  # sorted by (u, v)
        ids = [str(i) for i in range(n)]
        sizes = np.bincount(rng.integers(0, s, size=n), minlength=s)
        header = (
            f"# Undirected graph: nethom benchmark big_graph, seed {seed}\n"
            f"# Nodes: {n} Edges: {m}\n"
            "# FromNodeId\tToNodeId\n"
        )
        u, v = lo, hi
    else:
        if workload == "many_classes":
            rank = rng.permutation(n) + 1
            lo, hi = weighted_pairs(rng, n, m, rank ** -cfg["hub_exponent"])
            ids = [f"u{i}" for i in range(n)]
            sizes = zipf_sizes(n, s, cfg["zipf_exponent"])
        else:
            lo, hi = weighted_pairs(rng, n, m, np.ones(n))
            ids = [str(i) for i in range(n)]
            sizes = np.bincount(rng.integers(0, s, size=n), minlength=s)
        order = rng.permutation(m)  # shuffled edges in random orientation
        flip = rng.random(m) < 0.5
        lo, hi = lo[order], hi[order]
        u, v = np.where(flip, hi, lo), np.where(flip, lo, hi)
    assign = rng.permutation(np.repeat(np.arange(s), sizes))
    degrees = np.bincount(np.concatenate([lo, hi]), minlength=n)
    isolated = np.flatnonzero(degrees == 0)

    sep = "\t" if header else " "
    _write(
        os.path.join(out, "graph.edges"),
        header + _edge_text(ids, u, v, sep) + "".join(f"v {ids[i]}\n" for i in isolated),
    )
    labels = [f"c{k}" for k in range(s)]
    _write(
        os.path.join(out, "coloring.tsv"),
        "".join(f"{ids[i]}\t{labels[k]}\n" for i, k in enumerate(assign.tolist())),
    )
    classes = _class_summary(labels, assign, lo, hi, s)
    gamma = gamma_exact(n, m, degrees)
    return {
        "workload": workload,
        "seed": seed,
        "properties": {
            "n": n, "m": m, "s": s,
            "distinct_class_sizes": len({size for size, _ in classes.values()}),
            "id_kind": "str" if workload == "many_classes" else "int",
            "max_degree": int(degrees.max()),
            "gamma_sign": _sign(gamma), "isolated": int(isolated.size),
            "colorings": None, "support": None,
        },
        "gamma": float(gamma),
        "gamma_exact": f"{gamma.numerator}/{gamma.denominator}",
        "classes": classes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    expected = generate(args.workload, args.seed, args.out)
    _write(os.path.join(args.out, "expected.json"), json.dumps(expected, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
