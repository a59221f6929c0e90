"""Ground-truth engines: exact enumeration, Monte Carlo tails, matching tails.

The engines are independent of the closed-form moment formulas, so they can
validate them. Enumeration counts every coloring of a profile exactly once,
choosing the classes one by one as vertex bitmasks and counting the edges
inside each with ``int.bit_count``; colorings that leave the same vertices
to the later classes share those classes' outcome counts. Monte Carlo
estimation reuses the seeded uniform sampler;
the disjoint-edges ("matching") graph additionally admits a fully explicit
tail formula evaluated in exact arbitrary-precision rationals.

:func:`validate` is the one place that compares the closed forms, the
bounds behind the indices, the sign of the covariances and the
Sherman-Morrison inverse with them, each against the enumerated law. It
checks each exact tail of an index's score against 1 - |index|, computed by
the report's own score and fold from :mod:`nethom.indices`.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .colorings import ColoringError, ObservedOutcome, Profile, sample_counts
from .graphs import Graph, _gamma_from_counts, _Record
from .indices import _fold_a, _fold_h, _fold_r, _score_a, _score_h, _score_r, z_scores
from .moments import CovarianceStructure

__all__ = [
    "EnumerationLimitError",
    "ExactDistribution",
    "TailEstimate",
    "TreeGammaReport",
    "enumerate_colorings",
    "exact_moments",
    "exact_tail",
    "mc_tail",
    "matching_tail_table",
    "matching_graph",
    "tree_gamma_scan",
    "validate",
]

# two-sided 99% normal quantile, i.e. Phi^-1(0.995)
_Z99 = 2.5758293035489004

DEFAULT_ENUMERATION_LIMIT = 10**6

# seeds per sample_counts call in mc_tail, so its count rows take at most 16 * s KiB
_MC_BLOCK = 1024

_SIDES = {"ge": operator.ge, "le": operator.le}


class EnumerationLimitError(RuntimeError):
    """The coloring space is larger than the configured enumeration limit."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        try:
            text = str(count)
        except ValueError:  # over Python's int-to-str digit limit (4300 by default)
            text = f"10^{math.log10(count):.2f}"
        super().__init__(f"{text} colorings exceed the enumeration limit {limit}")


class ExactDistribution(_Record, eq=False):
    """Exact law of the homophilic-count vector for one (graph, profile).

    ``outcome_counts`` maps each outcome tuple to its number of colorings
    among the ``total`` colorings of the profile.
    """

    graph: Graph
    profile: Profile
    outcome_counts: dict[tuple[int, ...], int]
    total: int

    @cached_property
    def support(self) -> dict[tuple[int, ...], Fraction]:
        """Outcome tuples to exact rational probabilities, summing to exactly 1."""
        return {k: Fraction(c, self.total) for k, c in self.outcome_counts.items()}


class _InsideEdges(dict):
    """Vertex-set bitmask -> number of edges with both ends in the set.

    ``adj`` maps a vertex's bit to the bitmask of its neighbours. Each entry
    is counted on first use, from whichever of the set and its complement
    has fewer vertices.
    """

    def __init__(self, adj: dict[int, int], m: int):
        self.adj, self.m = adj, m
        self.n, self.everyone = len(adj), sum(adj)

    def __missing__(self, mask: int) -> int:
        if 2 * mask.bit_count() > self.n:
            # every edge lies inside the set unless it touches the complement
            other = self.everyone ^ mask
            rest, touching = other, self[other]
            while rest:
                low = rest & -rest
                rest ^= low
                touching -= self.adj[low].bit_count()
            inside = self.m + touching
        else:
            # each vertex adds its neighbours among the set's higher vertices
            rest, inside = mask, 0
            while rest:
                low = rest & -rest
                rest ^= low
                inside += (self.adj[low] & rest).bit_count()
        self[mask] = inside
        return inside


def enumerate_colorings(
    g: Graph, p: Profile, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> ExactDistribution:
    """Count the colorings of profile ``p`` behind each outcome vector exactly.

    Refuses (with the computed count) when the number of colorings exceeds
    ``limit``. Probabilities are exact: count / multinomial.

    The classes are chosen in ascending size as vertex bitmasks, each from
    the vertices left by the smaller ones, so the largest class is the rest.
    Once two classes are chosen, the same remaining set recurs, so the
    outcome counts of the later classes are kept per remaining set. The
    bitmasks alone take up to about n^2/8 bytes, whatever the profile.
    """
    if p.n != g.n:
        raise ColoringError(f"profile sums to {p.n} but the graph has {g.n} vertices")
    total = p.coloring_count()
    if total > limit:
        raise EnumerationLimitError(total, limit)
    s = p.s
    order = sorted(range(s), key=p.sizes.__getitem__)
    sizes = sorted(p.sizes)
    bits = [1 << v for v in range(g.n)]
    adj = dict.fromkeys(bits, 0)
    for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()):
        adj[bits[u]] |= bits[v]
        adj[bits[v]] |= bits[u]
    inside = _InsideEdges(adj, g.m).__getitem__
    # suffix counts per remaining set; its size fixes k, and no set recurs before k = 2
    memo: dict[int, Counter] = {}

    def later(k: int, rest: int) -> Counter:
        """Outcome counts of classes ``order[k:]`` over the colorings of ``rest``."""
        if k == s - 1:  # reached only when s == 1
            return Counter({(inside(rest),): 1})
        if k >= 2 and rest in memo:
            return memo[rest]
        picks = list(map(sum, itertools.combinations([b for b in bits if rest & b], sizes[k])))
        if k == s - 2:
            out = Counter(zip(map(inside, picks), map(inside, map(rest.__xor__, picks))))
        else:
            out = Counter()
            for pick in picks:
                head = (inside(pick),)
                for tail, count in later(k + 1, rest ^ pick).items():
                    out[head + tail] += count
        if k >= 2:
            memo[rest] = out
        return out

    slot = sorted(range(s), key=order.__getitem__)  # class i sits at slot[i] in the tuples
    counts = {tuple(map(out.__getitem__, slot)): c for out, c in later(0, (1 << g.n) - 1).items()}
    if sum(counts.values()) != total:
        raise AssertionError("enumeration did not cover the coloring space exactly")
    return ExactDistribution(graph=g, profile=p, outcome_counts=counts, total=total)


def exact_moments(
    d: ExactDistribution,
) -> tuple[tuple[Fraction, ...], list[list[Fraction]]]:
    """Exact rational mean vector and covariance matrix of the distribution.

    Accumulates integer sums over the coloring counts and divides once, so
    only O(s^2) rational operations happen regardless of the support size.
    """
    s = d.profile.s
    total = d.total
    sum1 = [0] * s
    sum2 = [[0] * s for _ in range(s)]
    for out, count in d.outcome_counts.items():
        for i in range(s):
            ci = count * out[i]
            sum1[i] += ci
            row = sum2[i]
            for j in range(i, s):
                row[j] += ci * out[j]
    mean = tuple(Fraction(x, total) for x in sum1)
    cov = [[Fraction(sum2[min(i, j)][max(i, j)], total) - mean[i] * mean[j] for j in range(s)]
           for i in range(s)]
    return mean, cov


def exact_tail(
    d: ExactDistribution,
    statistic: Callable[[tuple[int, ...]], float | Fraction | int],
    threshold: float | Fraction | int,
    side: str = "ge",
) -> Fraction:
    """Exact probability mass of {outcome : statistic(outcome) <side> threshold}.

    ``side`` is "ge" or "le". The statistic must be evaluable on every
    support point; comparisons are taken as given, and a nan is in neither
    tail; for exact ties, compute the threshold with the same statistic.
    """
    _keep(side)  # a bad side raises before the statistic is evaluated
    return _ScoreLaw(d, map(statistic, d.outcome_counts)).tail(threshold, side)


def _keep(side: str) -> Callable:
    if side not in _SIDES:
        raise ValueError("side must be 'ge' or 'le'")
    return _SIDES[side]


class _ScoreLaw:
    """The exact law of a score, ``scores[k]`` on the k-th outcome of ``d.outcome_counts``: its
    sorted values, the prefix sums of their coloring counts, and the total; a nan score is dropped."""

    def __init__(self, d: ExactDistribution, scores: Iterable):
        order = sorted(vc for vc in zip(scores, d.outcome_counts.values()) if vc[0] == vc[0])
        self.values, self.total = [v for v, _ in order], d.total
        self.cum = [0, *itertools.accumulate(c for _, c in order)]

    def tail(self, v, side: str) -> Fraction:
        """P(score >= v) for side "ge", P(score <= v) for "le", by bisection; 0 at a nan ``v``."""
        at = bisect_left(self.values, v) if side == "ge" else bisect_right(self.values, v)
        k = self.cum[-1] - self.cum[at] if side == "ge" else self.cum[at]
        return Fraction(k if v == v else 0, self.total)


def _bound_holds(d: ExactDistribution, cs: CovarianceStructure, scores: Sequence, fold) -> bool:
    """P(score >= v) for v > 0, else P(score <= v), is at most 1 - |fold(v, cs)|
    + 1e-12 at every outcome's own score v: the index bounds the tail. A zero
    score folds to 0, whose bound 1 always holds."""
    law = _ScoreLaw(d, scores)
    return all(float(law.tail(v, "ge" if v > 0 else "le")) <= 1.0 - abs(fold(v, cs)) + 1e-12
               for v in scores)


def _check(name: str, ok: bool | None, detail: str) -> dict:
    status = "SKIPPED" if ok is None else ("PASS" if ok else "FAIL")
    return {"name": name, "status": status, "detail": detail}


def _inverse(a: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse of a square matrix by exact Gauss-Jordan elimination, or None if singular."""
    k = len(a)
    rows = [[*row, *(Fraction(i == j) for j in range(k))] for i, row in enumerate(a)]
    for c in range(k):
        p = next((r for r in range(c, k) if rows[r][c]), None)
        if p is None:
            return None
        top = [x / rows[p][c] for x in rows[p]]
        rows[p] = rows[c]
        rows = [top if r == c else [x - row[c] * y for x, y in zip(row, top)]
                for r, row in enumerate(rows)]
    return [row[k:] for row in rows]


def validate(d: ExactDistribution, cs: CovarianceStructure) -> list[dict]:
    """Check the closed forms in ``cs`` for ``d.profile`` against the exact law ``d``.

    Returns ``{name, status, detail}`` records (PASS, FAIL or SKIPPED) for
    ``moments``, ``cantelli_index_a``, ``cantelli_index_r``,
    ``chebyshev_index_h``, ``sign_structure`` and ``sherman_morrison``, in that
    order. The tail checks score every support point with the report's own
    score and bound its exact tail by 1 - |index| from the report's own fold.
    The last two read the enumerated covariance C: every off-diagonal entry
    must have the sign of gamma, and be 0 exactly when gamma is 0 or a class
    has fewer than two vertices; and ``cs.corr_inv_quad(z)`` must equal the
    exact d'C^-1 d on the active set at every support point, to 1e-9 relative,
    or, where ``cs.degenerate`` is set, C must be singular on the active set.
    """
    act = cs.active
    mean, cov = exact_moments(d)
    moments_ok = mean == cs.mbar and cov == cs.exact()
    checks = [_check("moments", moments_ok,
                     f"closed forms vs exact enumeration over {d.total} colorings")]

    zs = [z_scores(ObservedOutcome(out), cs) for out in d.outcome_counts]
    if act:
        ok_a = _bound_holds(d, cs, [_score_a(z, cs) for z in zs], _fold_a)
        checks.append(_check("cantelli_index_a", ok_a, "exact tail <= Cantelli bound"))
    else:
        checks.append(_check("cantelli_index_a", None, "all classes degenerate"))

    ok_r = _bound_holds(d, cs, [_score_r(out, cs) for out in d.outcome_counts], _fold_r)
    checks.append(_check("cantelli_index_r", ok_r, "exact tail <= Cantelli bound"))

    if not cs.degenerate:
        norms = [_score_h(z, cs) for z in zs]
        checks.append(_check("chebyshev_index_h", _bound_holds(d, cs, norms, _fold_h),
                             "exact tail <= s/|z|^2"))
    else:
        checks.append(_check("chebyshev_index_h", None, "degenerate correlation block"))

    if cs.s >= 2:
        sign = (cs.gamma > 0) - (cs.gamma < 0)
        big = [c >= 2 for c in d.profile.sizes]
        sign_ok = all((x > 0) - (x < 0) == sign * (big[i] and big[j])
                      for i, row in enumerate(cov) for j, x in enumerate(row) if i != j)
        checks.append(_check("sign_structure", sign_ok, f"gamma = {float(cs.gamma):.6g}"))
    else:
        checks.append(_check("sign_structure", None, "single class"))

    if not act:
        return checks + [_check("sherman_morrison", None, "empty active set")]
    inv = _inverse([[cov[i][j] for j in act] for i in act])
    if cs.degenerate:  # the structure withholds the inverse, so C must have none
        singular = inv is None
        detail = "degenerate: enumerated covariance is " + ("singular" if singular else "invertible")
        return checks + [_check("sherman_morrison", singular, detail + " on the active set")]
    if inv is None:
        detail = "enumerated covariance is singular on the active set"
        return checks + [_check("sherman_morrison", False, detail)]
    # d'C^-1 d = e'Ne / scale for the integers e = total * d and N = den * C^-1
    den = math.lcm(*(x.denominator for row in inv for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in inv]
    sums = [(mean[i] * d.total).numerator for i in act]
    scale = den * d.total**2
    worst = 0.0
    for out, norm in zip(d.outcome_counts, norms):
        e = [out[i] * d.total - t for i, t in zip(act, sums)]
        exact = sum(x * sum(map(operator.mul, row, e)) for x, row in zip(e, num)) / scale
        worst = max(worst, abs(norm - exact) / max(1.0, exact))
    detail = f"max relative gap {worst:.3g} to the exact d'C^-1 d"
    return checks + [_check("sherman_morrison", worst <= 1e-9, detail)]


class TailEstimate(_Record):
    """Monte Carlo tail estimate with a 99% normal-approximation half-width."""

    estimate: float
    half_width: float
    samples: int
    seed: int

    @property
    def bounds(self) -> tuple[float, float]:
        """The 99% Wilson score interval of the estimate, clamped into [0, 1].

        Unlike estimate ± half_width, it keeps a nonzero width when no
        sample or every sample hits.
        """
        n, z2 = self.samples, _Z99 * _Z99
        center = (self.estimate + z2 / (2 * n)) / (1 + z2 / n)
        spread = self.estimate * (1 - self.estimate) / n + z2 / (4 * n * n)
        half = _Z99 / (1 + z2 / n) * math.sqrt(spread)
        return max(0.0, center - half), min(1.0, center + half)


def mc_tail(
    g: Graph,
    p: Profile,
    statistic: Callable[[tuple[int, ...]], float | Fraction | int],
    threshold: float | Fraction | int,
    side: str = "ge",
    samples: int = 10**5,
    seed: int = 0,
) -> TailEstimate:
    """Estimate a tail probability from uniform colorings with seeds seed, seed+1, ...

    Deterministic for fixed arguments; disjoint seed ranges can run in
    parallel and merge by hit counts. The colorings come from
    :func:`~nethom.colorings.sample_counts` in blocks of ``_MC_BLOCK`` seeds,
    so memory stays bounded for any sample count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    keep = _keep(side)
    hits = 0
    stop = seed + samples
    for lo in range(seed, stop, _MC_BLOCK):
        counts, _ = sample_counts(g, p, range(lo, min(lo + _MC_BLOCK, stop)))
        hits += sum(1 for out in counts.tolist() if keep(statistic(tuple(out)), threshold))
    est = hits / samples
    half = _Z99 * math.sqrt(est * (1.0 - est) / samples)
    return TailEstimate(estimate=est, half_width=half, samples=samples, seed=seed)


def matching_graph(m: int) -> Graph:
    """The graph made of m vertex-disjoint edges (2m vertices)."""
    if m < 1:
        raise ValueError("need at least one edge")
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def matching_tail_table(m: int) -> list[Fraction]:
    """Exact tails [P(M >= k) for k = 0..floor(m/2)] on the matching graph.

    M is the count of same-class edges in one class under uniform colorings
    of profile (m, m) on m disjoint edges:

        P(M >= k) = 2^m (m!)^2 / (2m)! * sum_{t=k}^{floor(m/2)} m!/(t! t! (m-2t)!) * 4^-t

    Valid for any m >= 1 (the sum is capped at floor(m/2); odd m follows
    from the same counting). Nonincreasing in k, and equal to 1 at k = 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # integer suffix sums S_k = sum_{t>=k} multinomial(m; t,t,m-2t) * 4^(h-t)
    # over the common denominator 4^h, h = floor(m/2)
    h = m // 2
    fm = math.factorial(m)
    terms = [
        fm // (math.factorial(t) ** 2 * math.factorial(m - 2 * t)) * 4 ** (h - t)
        for t in range(h + 1)
    ]
    suffix = [0] * (h + 2)
    for t in range(h, -1, -1):
        suffix[t] = suffix[t + 1] + terms[t]
    pref = Fraction(2**m * math.factorial(m) ** 2, math.factorial(2 * m))
    den = 4**h
    return [pref * Fraction(sk, den) for sk in suffix[: h + 1]]


class TreeGammaReport(_Record):
    """Extremes of the covariance-scale invariant over labeled trees on n vertices.

    ``max_count`` and ``min_count`` count the labeled trees attaining
    ``gamma_max`` and ``gamma_min``; ``max_all_paths`` says every maximizer
    is a path and ``min_all_stars`` every minimizer a star. For n <= 3 the
    one tree shape is both, so the two extremes coincide.
    """

    n: int
    gamma_max: Fraction
    gamma_min: Fraction
    max_count: int
    min_count: int
    max_all_paths: bool
    min_all_stars: bool
    tree_count: int


def tree_gamma_scan(n: int) -> TreeGammaReport:
    """Scan all labeled trees on n vertices (2 <= n <= 8) for gamma extremes.

    A labeled tree is a word in [n]^(n-2) (its Pruefer sequence), and a
    vertex's degree is 1 plus the number of times it occurs there. So the
    scan visits each multiset of letters once, as the
    (n-2)! / prod(count!) trees sharing its degree sequence.
    """
    if not 2 <= n <= 8:
        raise ValueError("tree scan supports 2 <= n <= 8")
    # gamma is strictly decreasing in pi3 at fixed (n, m): the gamma maximizers
    # are the pi3 minimizers and vice versa, so trees are grouped by pi3
    groups: dict[int, list] = {}  # pi3 -> [trees, all paths, all stars]
    for letters in itertools.combinations_with_replacement(range(n), n - 2):
        counts = Counter(letters).values()
        top = max(counts, default=0)
        pi3 = sum(c * (c + 1) // 2 for c in counts)  # C(d, 2) at degree d = c + 1
        group = groups.setdefault(pi3, [0, True, True])
        group[0] += math.factorial(n - 2) // math.prod(map(math.factorial, counts))
        group[1] = group[1] and top <= 1  # a path: no degree above 2
        group[2] = group[2] and top == n - 2  # a star: one vertex of degree n - 1
    lo, hi = min(groups), max(groups)
    return TreeGammaReport(
        n=n,
        gamma_max=_gamma_from_counts(n, n - 1, lo),
        gamma_min=_gamma_from_counts(n, n - 1, hi),
        max_count=groups[lo][0],
        min_count=groups[hi][0],
        max_all_paths=groups[lo][1],
        min_all_stars=groups[hi][2],
        tree_count=sum(trees for trees, _, _ in groups.values()),
    )
