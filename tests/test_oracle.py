"""Enumeration, Monte Carlo tails, the matching-graph formula, tree scan."""

import itertools
import math
import operator
import statistics
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nethom as nh
from conftest import per_class_moments
from nethom import indices, oracle
from nethom.graphs import _gamma_from_counts
from nethom.oracle import _ScoreLaw, exact_moments, validate


class TestEnumerateColorings:
    def test_p3_distribution(self, p3):
        d = nh.enumerate_colorings(p3, nh.Profile((2, 1)))
        assert d.support == {(1, 0): Fraction(2, 3), (0, 0): Fraction(1, 3)}
        assert d.total == 3

    def test_k4_point_mass(self, k4):
        d = nh.enumerate_colorings(k4, nh.Profile((2, 2)))
        assert d.support == {(1, 1): Fraction(1)}

    def test_two_disjoint_edges(self, two_edges):
        d = nh.enumerate_colorings(two_edges, nh.Profile((2, 2)))
        assert d.support == {(1, 1): Fraction(1, 3), (0, 0): Fraction(2, 3)}

    def test_masses_sum_to_one_exactly(self, p4):
        for sizes in [(2, 2), (3, 1), (1, 1, 2), (1, 1, 1, 1)]:
            d = nh.enumerate_colorings(p4, nh.Profile(sizes))
            assert sum(d.support.values()) == 1

    def test_limit_refusal_reports_count(self, p4):
        with pytest.raises(nh.EnumerationLimitError) as exc:
            nh.enumerate_colorings(p4, nh.Profile((2, 2)), limit=5)
        assert exc.value.count == 6
        assert exc.value.limit == 5
        assert str(exc.value) == "6 colorings exceed the enumeration limit 5"

    def test_limit_refusal_of_a_count_too_long_to_print(self):
        # 2000! has 5736 digits, over Python's default int-to-str limit of 4300
        g = nh.Graph.from_edges(2000, [(0, 1)])
        with pytest.raises(nh.EnumerationLimitError) as exc:
            nh.enumerate_colorings(g, nh.Profile((1,) * 2000))
        assert exc.value.count == math.factorial(2000)
        assert str(exc.value).endswith(" colorings exceed the enumeration limit 1000000")

    def test_profile_mismatch_names_both_sizes(self, p4):
        with pytest.raises(nh.ColoringError, match="profile sums to 5 but the graph has 4"):
            nh.enumerate_colorings(p4, nh.Profile((2, 3)))

    def test_outcomes_satisfy_support_bounds(self, p4):
        d = nh.enumerate_colorings(p4, nh.Profile((2, 2)))
        for out in d.support:
            assert all(0 <= x <= min(p4.m, 1) for x in out)
            assert sum(out) <= p4.m


def _multiset_permutations(sizes):
    """Yield every distinct arrangement of the class-label multiset once.

    Lexicographic next-permutation on the working list; callers must not
    mutate or retain the yielded list.
    """
    a = [cls for cls, size in enumerate(sizes) for _ in range(size)]
    n = len(a)
    while True:
        yield a
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def _naive_outcome_counts(g, p):
    """The reference law: every coloring in turn, every edge of each."""
    edges = list(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    counts = Counter()
    for a in _multiset_permutations(p.sizes):
        out = [0] * p.s
        for u, v in edges:
            if a[u] == a[v]:
                out[a[u]] += 1
        counts[tuple(out)] += 1
    return counts


@st.composite
def small_instances(draw, min_n=4, max_n=10, max_s=5, max_colorings=2 * 10**4):
    """A graph on min_n-max_n vertices and a profile of at most max_s classes and max_colorings colorings."""
    n = draw(st.integers(min_n, max_n))
    s = draw(st.integers(1, min(max_s, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=s - 1, max_size=s - 1, unique=True)))
    p = nh.Profile(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))
    assume(p.coloring_count() <= max_colorings)
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return nh.Graph.from_edges(n, itertools.compress(pairs, keep)), p


_C5 = [(i, (i + 1) % 5) for i in range(5)]
_K4 = list(itertools.combinations(range(4), 2))
_DENSE10 = [(i, j) for i, j in itertools.combinations(range(10), 2) if (i * j) % 3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances())
@example((nh.Graph.from_edges(4, _K4), nh.Profile((4,))))  # one class
@example((nh.Graph.from_edges(6, []), nh.Profile((2, 3, 1))))  # no edges
@example((nh.Graph.from_edges(3, [(0, 1), (1, 2)]), nh.Profile((2, 1))))  # n < 4
@example((nh.Graph.from_edges(2, [(0, 1)]), nh.Profile((1, 1))))
@example((nh.Graph.from_edges(5, _C5), nh.Profile((1,) * 5)))  # singleton classes
@example((nh.Graph.from_edges(6, _C5 + [(4, 5), (0, 3)]), nh.Profile((2, 2, 2))))  # equal sizes
@example((nh.Graph.from_edges(10, _DENSE10), nh.Profile((4, 3, 2, 1))))  # decreasing sizes
def test_enumeration_matches_the_naive_loop(case):
    g, p = case
    d = nh.enumerate_colorings(g, p)
    assert d.outcome_counts == _naive_outcome_counts(g, p)
    assert d.total == p.coloring_count()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances(min_n=7, max_n=12, max_s=4, max_colorings=10**6))
@example((nh.Graph.from_edges(8, []), nh.Profile((3, 3, 2))))  # no edges
@example((nh.Graph.from_edges(7, []), nh.Profile((7,))))
def test_tail_bounds_hold_beyond_the_atlas(case):
    # every index the report prints bounds the exact tail of its score
    g, p = case
    checks = validate(nh.enumerate_colorings(g, p), nh.covariance_structure(nh.summarize(g), p))
    assert [c["name"] for c in checks if c["status"] == "FAIL"] == []


def _wilson_low(hits: int, samples: int) -> float:
    """The lower end of the 99 % Wilson score interval of the frequency hits / samples."""
    z = statistics.NormalDist().inv_cdf(0.995)
    freq, z2 = hits / samples, z * z / samples
    half = z * math.sqrt(freq * (1 - freq) / samples + z2 / (4 * samples))
    return (freq + z2 / 2 - half) / (1 + z2)


def test_tail_bounds_hold_at_scale_under_the_null():
    """Each index's tail bound holds on 2000 uniform colorings of a 20,000-vertex G(n, m) graph.

    The Cantelli bound of an index is P(index >= u) <= 1 - u, and the same
    for index <= -u. For a, r and every j_theta preset, and u in {0.5, 0.8,
    0.9}, the 99 % Wilson lower end of each frequency must not exceed 1 - u.
    """
    n, m, samples = 20_000, 100_000, 2000
    rng = np.random.default_rng(7)
    u, v = rng.integers(0, n, (2, m + m // 10))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])  # the first draw of each pair
    first = first[lo[first] != hi[first]][:m]  # a uniform m-subset of the pairs of distinct vertices
    g = nh.Graph.from_edges(n, np.stack([u[first], v[first]], axis=1))
    p = nh.Profile(tuple(range(525, 1500, 50)))  # 20 classes of distinct sizes, n vertices in all
    assert (g.m, p.n, p.s) == (m, n, 20)
    cs = nh.covariance_structure(nh.summarize(g), p)
    evaluator = nh.IndexEvaluator(g, p, cs, tuple(map(str, range(p.s))))
    counts, mass = nh.sample_counts(g, p, range(samples))
    reports = [evaluator.report(row, w) for row, w in zip(counts.tolist(), mass.tolist())]
    values = {"a": [rep.a for rep in reports], "r": [rep.r for rep in reports]}
    for name in indices.PRESET_NAMES:
        values[f"j_theta.{name}"] = [rep.j_theta[name] for rep in reports]
    for name, index in values.items():
        index = np.array(index, dtype=float)  # every index is defined: a None would read nan
        assert not np.isnan(index).any(), name
        for u in (0.5, 0.8, 0.9):
            for side, hits in (("ge", index >= u), ("le", index <= -u)):
                low = _wilson_low(int(np.count_nonzero(hits)), samples)
                assert low <= 1 - u, (name, side, u, low)


class TestExactMoments:
    def test_p4_profile_2_2(self, p4):
        d = nh.enumerate_colorings(p4, nh.Profile((2, 2)))
        mean, cov = nh.exact_moments(d)
        assert mean == (Fraction(1, 2), Fraction(1, 2))
        assert cov == [
            [Fraction(1, 4), Fraction(1, 12)],
            [Fraction(1, 12), Fraction(1, 4)],
        ]

    def test_point_mass_zero_covariance(self, k4):
        d = nh.enumerate_colorings(k4, nh.Profile((2, 2)))
        _, cov = nh.exact_moments(d)
        assert cov == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]

    def test_two_disjoint_edges_cross_moment(self, two_edges):
        d = nh.enumerate_colorings(two_edges, nh.Profile((2, 2)))
        mean, cov = nh.exact_moments(d)
        assert mean == (Fraction(1, 3), Fraction(1, 3))
        assert cov[0][1] == Fraction(2, 9)


class TestExactTail:
    def test_p3_marginal(self, p3):
        d = nh.enumerate_colorings(p3, nh.Profile((2, 1)))
        assert nh.exact_tail(d, lambda out: out[0], 1, "ge") == Fraction(2, 3)

    def test_threshold_below_support_minimum(self, p3):
        d = nh.enumerate_colorings(p3, nh.Profile((2, 1)))
        assert nh.exact_tail(d, lambda out: out[0], -5, "ge") == 1

    def test_p4_z_mean_tail(self, p4):
        s = nh.summarize(p4)
        p = nh.Profile((2, 2))
        cs = nh.covariance_structure(s, p)
        d = nh.enumerate_colorings(p4, p)
        mbar = [float(x) for x in cs.mbar]
        sig = [math.sqrt(x) for x in cs.var]

        def z_mean(out):
            return float(np.mean([(out[i] - mbar[i]) / sig[i] for i in range(2)]))

        assert nh.exact_tail(d, z_mean, z_mean((1, 1)), "ge") == Fraction(1, 3)

    def test_le_side(self, p3):
        d = nh.enumerate_colorings(p3, nh.Profile((2, 1)))
        assert nh.exact_tail(d, lambda out: out[0], 0, "le") == Fraction(1, 3)


class TestMcTail:
    def test_p3_estimate_close_to_exact(self, p3):
        est = nh.mc_tail(p3, nh.Profile((2, 1)), lambda o: o[0], 1, "ge",
                         samples=10**5, seed=0)
        assert abs(est.estimate - 2 / 3) < 0.01
        assert est.half_width < 0.01
        assert est.samples == 10**5

    def test_impossible_event(self, p3):
        est = nh.mc_tail(p3, nh.Profile((2, 1)), lambda o: o[0], 99, "ge",
                         samples=500, seed=1)
        assert est.estimate == 0.0

    def test_deterministic_given_seed(self, p4):
        kwargs = dict(samples=2000, seed=42)
        e1 = nh.mc_tail(p4, nh.Profile((2, 2)), lambda o: sum(o), 1, "ge", **kwargs)
        e2 = nh.mc_tail(p4, nh.Profile((2, 2)), lambda o: sum(o), 1, "ge", **kwargs)
        assert e1 == e2

    def test_interval_covers_exact_value_in_most_trials(self, p3):
        # seeded sweep: the 99% interval should miss the exact 2/3 rarely
        p = nh.Profile((2, 1))
        misses = 0
        trials = 200
        for t in range(trials):
            est = nh.mc_tail(p3, p, lambda o: o[0], 1, "ge", samples=400, seed=1000 * t)
            if abs(est.estimate - 2 / 3) > est.half_width:
                misses += 1
        assert misses <= math.ceil(0.01 * trials)

    def test_bounds_clamped(self, p3):
        est = nh.mc_tail(p3, nh.Profile((2, 1)), lambda o: o[0], 0, "ge",
                         samples=100, seed=3)
        lo, hi = est.bounds
        assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_bounds_when_no_sample_or_every_sample_hits(self):
        # P12 with profile 6,6: the exact P(T >= 10) is 1/462, which 1000 samples miss
        g = nh.Graph.from_edges(12, [(i, i + 1) for i in range(11)])
        p = nh.Profile((6, 6))
        exact = nh.exact_tail(nh.enumerate_colorings(g, p), sum, 10, "ge")
        assert exact == Fraction(1, 462)
        none = nh.mc_tail(g, p, sum, 10, samples=1000, seed=0)
        assert (none.estimate, none.half_width) == (0.0, 0.0)
        lo, hi = none.bounds
        assert lo < 1e-12 and exact < hi < 0.01
        every = nh.mc_tail(g, p, sum, 0, samples=1000, seed=0)
        assert (every.estimate, every.half_width) == (1.0, 0.0)
        lo, hi = every.bounds
        assert 0.99 < lo < 0.999 and hi > 1 - 1e-12

    def test_wilson_bounds_cover_the_estimate(self, p3):
        est = nh.mc_tail(p3, nh.Profile((2, 1)), lambda o: o[0], 1, "ge", samples=400, seed=5)
        lo, hi = est.bounds
        assert lo < est.estimate < hi
        # near the middle of [0, 1] the Wilson and normal intervals nearly agree
        assert abs((hi - lo) / 2 - est.half_width) < 0.002


class TestMatchingTail:
    def test_two_edges_exactly_one_third(self):
        assert nh.matching_tail_table(2)[1] == Fraction(1, 3)

    def test_k_zero_full_mass(self):
        for m in (1, 2, 3, 10, 57):
            assert nh.matching_tail_table(m)[0] == 1

    def test_nonincreasing_in_k(self):
        for m in (2, 7, 24):
            tails = nh.matching_tail_table(m)
            assert len(tails) == m // 2 + 1
            assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_agrees_with_enumeration(self, m):
        g = nh.matching_graph(m)
        d = nh.enumerate_colorings(g, nh.Profile((m, m)))
        for k, tail in enumerate(nh.matching_tail_table(m)):
            assert nh.exact_tail(d, lambda o: o[0], k, "ge") == tail

    def test_m500_mean_and_window(self):
        s = nh.summarize(nh.matching_graph(500))
        mbar = nh.covariance_structure(s, nh.Profile((500, 500))).mbar
        assert mbar[0] / 500 == Fraction(499, 1998)
        tails = nh.matching_tail_table(500)
        assert float(1 - tails[110]) < 0.05
        assert float(tails[141]) < 0.05

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            nh.matching_tail_table(0)


def _word_scan(n):
    """Reference tree scan for n >= 4: every Pruefer word in [n]^(n-2), one
    labeled tree each, tracking the running pi3 extremes."""
    c2 = [d * (d - 1) // 2 for d in range(n + 1)]
    best_pi3 = worst_pi3 = None
    best_count = worst_count = total = 0
    best_all_paths = worst_all_stars = True
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        pi3 = sum(c2[d] for d in deg)
        mx = max(deg)
        total += 1
        if best_pi3 is None or pi3 < best_pi3:
            best_pi3, best_count, best_all_paths = pi3, 1, mx <= 2
        elif pi3 == best_pi3:
            best_count += 1
            best_all_paths = best_all_paths and mx <= 2
        if worst_pi3 is None or pi3 > worst_pi3:
            worst_pi3, worst_count, worst_all_stars = pi3, 1, mx == n - 1
        elif pi3 == worst_pi3:
            worst_count += 1
            worst_all_stars = worst_all_stars and mx == n - 1
    return {
        "n": n,
        "gamma_max": _gamma_from_counts(n, n - 1, best_pi3),
        "gamma_min": _gamma_from_counts(n, n - 1, worst_pi3),
        "max_count": best_count,
        "min_count": worst_count,
        "max_all_paths": best_all_paths,
        "min_all_stars": worst_all_stars,
        "tree_count": total,
    }


class TestTreeGammaScan:
    def test_n4_extremes(self):
        rep = nh.tree_gamma_scan(4)
        assert rep.gamma_max == Fraction(1, 48)
        assert rep.gamma_min == Fraction(-1, 16)
        assert rep.max_all_paths and rep.min_all_stars
        assert rep.tree_count == 16  # 4^2 labeled trees

    def test_n5_extremes(self):
        rep = nh.tree_gamma_scan(5)
        assert rep.gamma_max == Fraction(1, 100)
        # star on 5 vertices has 4 leaves: gamma = -1/(4+1)^2
        assert rep.gamma_min == Fraction(-1, 25)
        assert rep.max_all_paths and rep.min_all_stars
        assert rep.max_count == math.factorial(5) // 2
        assert rep.min_count == 5

    @pytest.mark.parametrize(
        "n,gamma,count", [(2, Fraction(-1, 4), 1), (3, Fraction(-1, 9), 3)], ids=["n2", "n3"]
    )
    def test_smallest_trees(self, n, gamma, count):
        # K2 and P3 are each both a path and a star
        rep = nh.tree_gamma_scan(n)
        assert rep.gamma_max == rep.gamma_min == gamma
        assert rep.max_count == rep.min_count == rep.tree_count == count
        assert rep.max_all_paths and rep.min_all_stars

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_word_by_word_scan(self, n):
        assert vars(nh.tree_gamma_scan(n)) == _word_scan(n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nh.tree_gamma_scan(9)


def _oracle_instance(g, sizes):
    s = nh.summarize(g)
    p = nh.Profile(sizes)
    return nh.enumerate_colorings(g, p), nh.covariance_structure(s, p)


_TIED_INSTANCES = [
    ("k4", (2, 2)),
    ("k4", (1, 1, 2)),
    ("c6", (3, 3)),
    ("c6", (2, 2, 2)),
    ("p4", (2, 2)),
    ("p4", (1, 1, 2)),
]


def _cycle(n):
    return nh.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _named(request, name):
    if name == "c6":
        return _cycle(6)
    if name == "star5":
        return nh.load_edge_list("x a\nx b\nx c\nx d")
    return request.getfixturevalue(name)


def _counted(dist, values, v, side):
    """The mass of the outcomes whose value compares to ``v`` as ``side`` says, counted outcome by outcome."""
    keep = {"ge": operator.ge, "le": operator.le}[side]
    return Fraction(sum(c for x, c in zip(values, dist.outcome_counts.values()) if keep(x, v)), dist.total)


class TestSortedTails:
    """The exact score law's tails, by one sort and bisection, against a count outcome by outcome."""

    @pytest.mark.parametrize("name,sizes", _TIED_INSTANCES)
    def test_matches_exact_tail_on_every_value(self, request, name, sizes):
        g = _cycle(6) if name == "c6" else request.getfixturevalue(name)
        dist, cs = _oracle_instance(g, sizes)
        stats = [
            lambda o: sum(o),
            lambda o: o[0] - o[-1],
            lambda o: sum(Fraction(x) - mb for x, mb in zip(o, cs.mbar)),
            lambda o: float(nh.z_scores(nh.ObservedOutcome(o), cs).sum()),
        ]
        for stat in stats:
            values = [stat(o) for o in dist.outcome_counts]
            law = _ScoreLaw(dist, values)
            for v in values + [min(values) - 1, max(values) + 1]:
                for side in ("ge", "le"):
                    want = _counted(dist, values, v, side)
                    assert law.tail(v, side) == nh.exact_tail(dist, stat, v, side) == want, (v, side)

    def test_a_nan_counts_in_neither_tail(self, p4):
        """A nan score is in neither tail, and a nan threshold has neither tail, as ``>=`` and ``<=`` say."""
        dist, _ = _oracle_instance(p4, (2, 2))
        nan = float("nan")

        def stat(o):
            return nan if o[0] == 0 else float(sum(o))

        values = [stat(o) for o in dist.outcome_counts]
        assert 0 < sum(v != v for v in values) < len(values)
        law = _ScoreLaw(dist, values)
        for v in [*values, -1.0, 1.5, 3.0]:
            for side in ("ge", "le"):
                want = _counted(dist, values, v, side)
                assert law.tail(v, side) == nh.exact_tail(dist, stat, v, side) == want, (v, side)
        for side in ("ge", "le"):
            assert law.tail(nan, side) == nh.exact_tail(dist, sum, nan, side) == 0
        assert law.tail(1.0, "ge") + law.tail(1.0, "le") < 1  # the nan scores' mass is in neither


class TestValidate:
    NAMES = [
        "moments",
        "cantelli_index_a",
        "cantelli_index_r",
        "chebyshev_index_h",
        "sign_structure",
        "sherman_morrison",
    ]

    def test_six_checks_in_order(self, p4):
        checks = validate(*_oracle_instance(p4, (2, 2)))
        assert [c["name"] for c in checks] == self.NAMES
        assert all(c["status"] == "PASS" for c in checks)

    def test_perturbed_mean_fails_moments(self, p4):
        dist, cs = _oracle_instance(p4, (2, 2))
        bad = per_class_moments((2, 2), (cs.mbar[0] + Fraction(1, 7),) + cs.mbar[1:], cs.var)
        cs_bad = nh.CovarianceStructure(cs.gamma, cs.vec, bad)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs_bad)}
        assert statuses["moments"] == "FAIL"

    def test_moments_check_reads_the_given_structure(self, p4):
        dist, cs = _oracle_instance(p4, (2, 2))
        ms = per_class_moments((2, 2), cs.mbar, cs.var)
        doubled = nh.CovarianceStructure(2 * cs.gamma, cs.vec, ms)
        statuses = {c["name"]: c["status"] for c in validate(dist, doubled)}
        assert statuses["moments"] == "FAIL"

    # gamma > 0, gamma > 0, and gamma < 0 with a singleton class
    MUTANT_INSTANCES = [("p4", (2, 2)), ("c6", (2, 2, 2)), ("star5", (2, 2, 1))]

    @pytest.mark.parametrize("name,sizes", MUTANT_INSTANCES)
    def test_flipped_covariance_sign_fails_sign_structure(self, request, monkeypatch, name, sizes):
        # the check reads the enumerated covariance, not the closed form
        dist, cs = _oracle_instance(_named(request, name), sizes)
        assert validate(dist, cs)[4]["status"] == "PASS"

        def flipped(d):
            mean, cov = exact_moments(d)
            cov[0][1] = cov[1][0] = -cov[0][1]
            return mean, cov

        monkeypatch.setattr(oracle, "exact_moments", flipped)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs)}
        assert statuses["sign_structure"] == "FAIL"

    def test_nonzero_covariance_of_a_singleton_class_fails_sign_structure(self, monkeypatch):
        dist, cs = _oracle_instance(_named(None, "star5"), (2, 2, 1))

        def filled(d):
            mean, cov = exact_moments(d)
            cov[0][2] = cov[2][0] = cov[0][1]  # class 2 has one vertex: its entries are 0
            return mean, cov

        monkeypatch.setattr(oracle, "exact_moments", filled)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs)}
        assert statuses["sign_structure"] == "FAIL"

    @pytest.mark.parametrize("name,sizes", MUTANT_INSTANCES)
    def test_perturbed_sherman_morrison_constant_fails(self, request, name, sizes):
        dist, cs = _oracle_instance(_named(request, name), sizes)
        assert validate(dist, cs)[5]["status"] == "PASS"
        cs._k *= 1 + 1e-6
        check = validate(dist, cs)[5]
        assert (check["name"], check["status"]) == ("sherman_morrison", "FAIL")

    def test_singular_enumerated_covariance_fails_sherman_morrison(self, p4, monkeypatch):
        dist, cs = _oracle_instance(p4, (2, 2))

        def rank_one(d):
            mean, cov = exact_moments(d)
            return mean, [[cov[0][0]] * 2] * 2

        monkeypatch.setattr(oracle, "exact_moments", rank_one)
        check = validate(dist, cs)[5]
        assert check["status"] == "FAIL" and "singular" in check["detail"]

    def test_degenerate_claim_on_an_invertible_covariance_fails_sherman_morrison(self, p4):
        dist, cs = _oracle_instance(p4, (2, 2))
        cs.degenerate = True  # withholds an inverse that the enumerated law has
        checks = validate(dist, cs)
        assert [c["status"] for c in checks[3:]] == ["SKIPPED", "PASS", "FAIL"]
        assert "invertible" in checks[5]["detail"]

    def test_perturbed_zero_q_solve_fails_sherman_morrison(self):
        # the prism C6 x K2 with a class of 6 has q = 0 there, solved row by row
        prism = nh.load_edge_list("".join(f"{i} {(i + 1) % 6}\n{i + 6} {(i + 1) % 6 + 6}\n{i} {i + 6}\n"
                                          for i in range(6)))
        dist, cs = _oracle_instance(prism, (6, 3, 3))
        assert cs.q[0] == 0 and not cs.degenerate
        assert [c["status"] for c in validate(dist, cs)] == ["PASS"] * 6
        cs._q[1] *= 1 + 1e-6
        check = validate(dist, cs)[5]
        assert (check["name"], check["status"]) == ("sherman_morrison", "FAIL")

    # each fold with half its spread, which claims less tail than Cantelli's bound allows
    HALF_SPREAD = {
        "_fold_a": ("cantelli_index_a", lambda total, cs: indices._squash(total, cs.var_zsum / 2)),
        "_fold_r": ("cantelli_index_r",
                    lambda t, cs: indices._fold(t / cs.mbar_den, cs.var_total / 2) if t else 0.0),
    }

    @pytest.mark.parametrize("fold", sorted(HALF_SPREAD))
    def test_tail_checks_read_the_fold_of_the_report(self, p3, monkeypatch, fold):
        # P3 with profile 2,1 has one active class, and its Cantelli bounds are tight
        dist, cs = _oracle_instance(p3, (2, 1))
        o = nh.ObservedOutcome((1, 0))
        before = nh.index_a(nh.z_scores(o, cs), cs), nh.index_r(o, cs)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs)}
        assert set(statuses.values()) == {"PASS"}
        name, half = self.HALF_SPREAD[fold]
        original = getattr(indices, fold)
        for module in (indices, oracle):  # wherever nethom holds the fold
            if getattr(module, fold, None) is original:
                monkeypatch.setattr(module, fold, half)
        # the printed index moves, and validate checks the moved index
        assert (nh.index_a(nh.z_scores(o, cs), cs), nh.index_r(o, cs)) != before
        statuses[name] = "FAIL"
        assert {c["name"]: c["status"] for c in validate(dist, cs)} == statuses

    @pytest.mark.parametrize("name,sizes", [("p4", (2, 2)), ("c6", (2, 2, 2))])
    def test_shrunk_variances_fail_every_bound(self, request, name, sizes):
        # z-scores and bounds read the variances from the one structure,
        # so both shrink by the same factor
        g = _cycle(6) if name == "c6" else request.getfixturevalue(name)
        dist, cs = _oracle_instance(g, sizes)
        small = per_class_moments(sizes, cs.mbar, tuple(v / 100 for v in cs.var))
        cs_small = nh.CovarianceStructure(cs.gamma / 100, cs.vec, small)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs_small)}
        for check in ("cantelli_index_a", "cantelli_index_r", "chebyshev_index_h"):
            assert statuses[check] == "FAIL", check
