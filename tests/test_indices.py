"""The homophily quantifiers: pinned examples, ranges, bounds, monotonicity."""

import math
from fractions import Fraction

import numpy as np
import pytest

import nethom as nh
from conftest import per_class_moments, random_composition, random_gnp


def _setup(graph, sizes):
    s = nh.summarize(graph)
    p = nh.Profile(sizes)
    return s, p, nh.covariance_structure(s, p)


class TestZScores:
    def test_p3_single_active_class(self, p3):
        _, _, cs = _setup(p3, (2, 1))
        z = nh.z_scores(nh.ObservedOutcome((1, 0)), cs)
        assert cs.active == (0,)
        assert z[0] == pytest.approx(1 / math.sqrt(2))
        assert z[1] == 0.0

    def test_observed_equal_to_expectation_scores_zero(self):
        ms = per_class_moments((2, 3), (Fraction(1), Fraction(2)), (Fraction(4), Fraction(1)))
        cs = nh.CovarianceStructure(Fraction(0), (0, 0), ms)
        z = nh.z_scores(nh.ObservedOutcome((1, 2)), cs)
        assert z.tolist() == [0.0, 0.0]
        assert cs.active == (0, 1)
        assert not z.flags.writeable

    def test_p4_unbalanced_profile(self, p4):
        _, _, cs = _setup(p4, (3, 1))
        z = nh.z_scores(nh.ObservedOutcome((0, 0)), cs)
        assert z[0] == pytest.approx((0 - 1.5) / math.sqrt(0.25))

    def test_all_degenerate_flagged(self, k4):
        _, _, cs = _setup(k4, (2, 2))
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        assert cs.active == ()
        assert z.tolist() == [0.0, 0.0]


class TestIndexA:
    def test_p3_matches_exact_index(self, p3):
        _, _, cs = _setup(p3, (2, 1))
        z = nh.z_scores(nh.ObservedOutcome((1, 0)), cs)
        a = nh.index_a(z, cs)
        assert a == pytest.approx(1 / 3)

    def test_p4_worked_value(self, p4):
        _, _, cs = _setup(p4, (2, 2))
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        assert nh.index_a(z, cs) == pytest.approx(3 / 5)

    def test_zero_z_scores_zero(self, p4):
        _, _, cs = _setup(p4, (2, 2))
        # z = 0 is not attainable with integer counts here; synthesize it
        assert nh.index_a(np.zeros(2), cs) == 0.0

    def test_undefined_when_all_degenerate(self, k4):
        _, _, cs = _setup(k4, (2, 2))
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        assert nh.index_a(z, cs) is None


class TestIndexR:
    def test_p3(self, p3):
        _, _, cs = _setup(p3, (2, 1))
        assert nh.index_r(nh.ObservedOutcome((1, 0)), cs) == pytest.approx(1 / 3)

    def test_two_disjoint_edges(self, two_edges):
        _, _, cs = _setup(two_edges, (2, 2))
        assert nh.index_r(nh.ObservedOutcome((1, 1)), cs) == pytest.approx(2 / 3)

    def test_expected_outcome_zero(self, k4):
        _, _, cs = _setup(k4, (2, 2))
        # observed equals the expected outcome (1, 1): T = 0 and spread = 0
        assert nh.index_r(nh.ObservedOutcome((1, 1)), cs) == 0.0

    def test_saturates_on_constant_outcome_with_deviation(self, k4):
        _, _, cs = _setup(k4, (2, 2))
        # impossible observation on a degenerate instance: bound collapses
        assert nh.index_r(nh.ObservedOutcome((0, 0)), cs) == -1.0

    def test_tiny_exact_deviation_is_not_zero(self):
        # the deviation 1e-13 is exactly nonzero: r = t^2 / (t^2 + t^2) = 1/2
        ms = per_class_moments((2,), (1 - Fraction(1, 10**13),), (Fraction(1, 10**26),))
        cs = nh.CovarianceStructure(Fraction(0), (0,), ms)
        assert nh.index_r(nh.ObservedOutcome((1,)), cs) == pytest.approx(0.5, rel=1e-12)


class TestWeightPresets:
    def test_ratio(self, p4):
        _, p, _ = _setup(p4, (2, 2))
        w = nh.weight_preset("ratio", p4, p)
        assert w.w == pytest.approx([1 / 3, 1 / 3])

    def test_dyadicity(self, two_edges):
        _, p, _ = _setup(two_edges, (2, 2))
        w = nh.weight_preset("dyadicity", two_edges, p)
        assert w.w == pytest.approx([0.5, 0.5])

    def test_avg_internal_degree_maxdeg(self, two_edges):
        # max degree 1 in a perfect matching; nu = 1 gives w = 2/c
        _, p, _ = _setup(two_edges, (2, 2))
        w = nh.weight_preset("avg_internal_degree", two_edges, p)
        assert w.w == pytest.approx([1.0, 1.0])

    def test_avg_internal_degree_on_p4(self, p4):
        _, p, _ = _setup(p4, (2, 2))
        w = nh.weight_preset("avg_internal_degree", p4, p)  # Delta = 2
        assert w.w == pytest.approx([0.5, 0.5])

    def test_ratio_undefined_without_edges(self):
        g = nh.load_edge_list("v a\nv b")
        with pytest.raises(nh.UndefinedQuantityError):
            nh.weight_preset("ratio", g, nh.Profile((1, 1)))

    def test_small_classes_get_zero_dyadicity_weight(self, p3):
        _, p, _ = _setup(p3, (2, 1))
        w = nh.weight_preset("dyadicity", p3, p)
        assert w.w[1] == 0.0


class TestIndexJTheta:
    def test_dyadicity_on_disjoint_edges(self, two_edges):
        _, p, cs = _setup(two_edges, (2, 2))
        w = nh.weight_preset("dyadicity", two_edges, p)
        j = nh.index_j_theta(nh.ObservedOutcome((1, 1)), cs, w)
        assert j == pytest.approx(2 / 3)

    def test_zero_score_gives_zero(self, p4):
        _, p, cs = _setup(p4, (2, 2))
        w = nh.WeightVector(np.array([1.0, 1.0]))
        # counts (0, 1) give deviations (-1/2, +1/2): the weighted score vanishes
        assert nh.index_j_theta(nh.ObservedOutcome((0, 1)), cs, w) == 0.0

    def test_scale_invariance_exact_for_pow2(self, p4):
        _, p, cs = _setup(p4, (2, 2))
        o = nh.ObservedOutcome((1, 0))
        base = nh.WeightVector(np.array([0.75, 0.25]))
        j0 = nh.index_j_theta(o, cs, base)
        for lam in (2.0, 4.0, 0.5, 0.125):
            j = nh.index_j_theta(o, cs, nh.WeightVector(lam * base.w))
            assert j == j0

    def test_scale_invariance_general(self, p4):
        _, p, cs = _setup(p4, (2, 2))
        o = nh.ObservedOutcome((1, 1))
        base = nh.WeightVector(np.array([0.3, 0.7]))
        j0 = nh.index_j_theta(o, cs, base)
        j1 = nh.index_j_theta(o, cs, nh.WeightVector(3.0 * base.w))
        assert j1 == pytest.approx(j0, rel=1e-12)

    def test_scale_invariance_at_extreme_scales(self):
        # 6-cycle plus the chord a-d: w * 1e-14 used to fall under the zero
        # floor of the score, and w * 1e300 to overflow the spread into NaN
        g = nh.load_edge_list("a b\nb c\nc d\nd e\ne f\nf a\na d")
        _, _, cs = _setup(g, (3, 3))
        o = nh.ObservedOutcome((2, 2))
        base = np.array([0.75, 0.25])
        j0 = nh.index_j_theta(o, cs, nh.WeightVector(base))
        assert j0 == pytest.approx(0.4966, abs=1e-4)
        for lam in (1e-300, 1e-14, 1e-6, 1.0, 1e300):
            j = nh.index_j_theta(o, cs, nh.WeightVector(lam * base))
            assert j == pytest.approx(j0, rel=1e-12, abs=0.0)
        for lam in (2.0**-1000, 2.0**-47, 2.0**1000):
            assert nh.index_j_theta(o, cs, nh.WeightVector(lam * base)) == j0

    def test_ratio_preset_equals_index_r(self, two_edges):
        # m = 2 makes every rescaling a power of two, so equality is bitwise
        _, p, cs = _setup(two_edges, (2, 2))
        w = nh.weight_preset("ratio", two_edges, p)
        for counts in [(1, 1), (0, 0), (1, 0)]:
            o = nh.ObservedOutcome(counts)
            assert nh.index_j_theta(o, cs, w) == nh.index_r(o, cs)

    def test_rejects_negative_weights(self):
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                nh.WeightVector(np.array([bad, 1.0]))

    def test_keeps_a_read_only_float_copy(self):
        a = np.array([1, 2])
        w = nh.WeightVector(a)
        a[0] = 3  # the caller's array stays writable and detached
        assert w.w.tolist() == [1.0, 2.0]
        assert w.w.dtype == np.float64 and not w.w.flags.writeable
        assert nh.WeightVector([0.5, 0.0]).w.tolist() == [0.5, 0.0]
        with pytest.raises(ValueError):
            nh.WeightVector(["x", 1.0])


class TestIndexH:
    def test_p3_below_dimension(self, p3):
        _, _, cs = _setup(p3, (2, 1))
        z = nh.z_scores(nh.ObservedOutcome((1, 0)), cs)
        assert nh.index_h(z, cs) == 0.0  # |z|^2 = 1/2 < 1 active class

    def test_p4_below_dimension(self, p4):
        _, _, cs = _setup(p4, (2, 2))
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        # Gamma^-1 norm of (1,1) is 3/2 < 2
        assert nh.index_h(z, cs) == 0.0

    def test_norm_twice_dimension_gives_half(self):
        # identity correlation: |z|^2 = sum z_i^2; pick z with norm 2 * s_a
        cs = nh.CovarianceStructure(
            gamma=Fraction(0),
            vec=(Fraction(1), Fraction(1)),
            ms=per_class_moments((2, 2), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
        )
        assert cs.active == (0, 1)
        z = np.array([math.sqrt(2.0), math.sqrt(2.0)])
        assert nh.index_h(z, cs) == pytest.approx(0.5)

    def test_undefined_when_degenerate(self, two_edges):
        _, _, cs = _setup(two_edges, (2, 2))
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        assert nh.index_h(z, cs) is None


class TestNewmanModularity:
    def test_matching_toy_line(self, two_edges):
        f = nh.load_coloring("a\tr\nb\tr\nc\tb\nd\tb", two_edges)
        o = nh.homophilic_counts(two_edges, f)
        assert o.counts == (1, 1)
        q = nh.newman_modularity(two_edges, f, o)
        assert q == pytest.approx(0.5)  # 2 * (k/m - 1/4) at k = 1, m = 2

    def test_single_edge_one_class_zero(self):
        g = nh.load_edge_list("a b")
        f = nh.load_coloring("a\tc\nb\tc", g)
        o = nh.homophilic_counts(g, f)
        assert nh.newman_modularity(g, f, o) == 0.0

    def test_p3_unbalanced(self, p3):
        f = nh.load_coloring("a\tred\nb\tred\nc\tblue", p3)
        o = nh.homophilic_counts(p3, f)
        assert nh.newman_modularity(p3, f, o) == pytest.approx(-1 / 8)

    def test_undefined_without_edges(self):
        g = nh.load_edge_list("v a\nv b")
        f = nh.load_coloring("a\tx\nb\ty", g)
        o = nh.homophilic_counts(g, f)
        assert nh.newman_modularity(g, f, o) is None


class TestDescriptiveRatio:
    def test_all_homophilic(self):
        assert nh.descriptive_ratio(nh.ObservedOutcome((2, 1)), 3) == 1.0

    def test_matching_identity(self, two_edges):
        # k homophilic per color on the matching: ratio = modularity + 1/2
        f = nh.load_coloring("a\tr\nb\tr\nc\tb\nd\tb", two_edges)
        o = nh.homophilic_counts(two_edges, f)
        ratio = nh.descriptive_ratio(o, two_edges.m)
        q = nh.newman_modularity(two_edges, f, o)
        assert ratio == pytest.approx(1.0)
        assert ratio == pytest.approx(q + 0.5)

    def test_half(self, p3):
        assert nh.descriptive_ratio(nh.ObservedOutcome((1, 0)), 2) == 0.5

    def test_undefined_for_empty_graph(self):
        assert nh.descriptive_ratio(nh.ObservedOutcome((0,)), 0) is None


class TestRangesAndMonotonicity:
    def test_values_stay_in_range_on_random_instances(self):
        rng = np.random.default_rng(149)
        for _ in range(60):
            n = int(rng.integers(4, 18))
            g = random_gnp(rng, n, float(rng.uniform(0.1, 0.9)), min_edges=1)
            s = nh.summarize(g)
            p = random_composition(rng, n, int(rng.integers(1, min(5, n) + 1)))
            cs = nh.covariance_structure(s, p)
            f = nh.random_coloring(p, seed=int(rng.integers(2**32)))
            o = nh.homophilic_counts(g, f)
            z = nh.z_scores(o, cs)
            a = nh.index_a(z, cs)
            if a is not None:
                assert -1.0 <= a <= 1.0
            r = nh.index_r(o, cs)
            assert -1.0 <= r <= 1.0
            h = nh.index_h(z, cs)
            if h is not None:
                assert 0.0 <= h <= 1.0
            for preset in nh.indices.PRESET_NAMES:
                try:
                    w = nh.weight_preset(preset, g, p)
                except nh.UndefinedQuantityError:
                    continue
                j = nh.index_j_theta(o, cs, w)
                assert -1.0 <= j <= 1.0

    def test_indices_nondecreasing_in_each_count(self, p4):
        _, p, cs = _setup(p4, (2, 2))
        w = nh.weight_preset("dyadicity", p4, p)
        grid = [(i, j) for i in range(2) for j in range(2)]
        for i, j in grid:
            for di, dj in ((1, 0), (0, 1)):
                lo = nh.ObservedOutcome((i, j))
                hi = nh.ObservedOutcome((i + di, j + dj))
                assert nh.index_r(hi, cs) >= nh.index_r(lo, cs)
                assert nh.index_j_theta(hi, cs, w) >= nh.index_j_theta(lo, cs, w)
                za_lo = nh.index_a(nh.z_scores(lo, cs), cs)
                za_hi = nh.index_a(nh.z_scores(hi, cs), cs)
                assert za_hi >= za_lo


class TestCantelliBounds:
    def test_p3_bound_tight(self, p3):
        # exact tail of the z-mean at the observed (1,0) equals the bound
        s, p, cs = _setup(p3, (2, 1))
        dist = nh.enumerate_colorings(p3, p)
        tail = nh.exact_tail(dist, lambda out: out[0], 1, "ge")
        assert tail == Fraction(2, 3)
        z = nh.z_scores(nh.ObservedOutcome((1, 0)), cs)
        a = nh.index_a(z, cs)
        assert float(1 - tail) == pytest.approx(a)  # Cantelli is tight here

    def test_p4_bound_valid(self, p4):
        s, p, cs = _setup(p4, (2, 2))
        dist = nh.enumerate_colorings(p4, p)
        # z-mean >= its observed value at (1,1) iff both counts are 1
        tail = nh.exact_tail(dist, lambda out: out[0] + out[1], 2, "ge")
        assert tail == Fraction(1, 3)
        z = nh.z_scores(nh.ObservedOutcome((1, 1)), cs)
        a = nh.index_a(z, cs)
        exact_index = 1 - tail  # = 2/3
        assert a <= float(exact_index) + 1e-12
        assert a == pytest.approx(3 / 5)


class TestBuildIndexReport:
    def test_k4_all_z_based_undefined(self, k4):
        s, p, cs = _setup(k4, (2, 2))
        f = nh.load_coloring("a\tr\nb\tr\nc\tb\nd\tb", k4)
        o = nh.homophilic_counts(k4, f)
        rep = nh.build_index_report(k4, f, o, cs)
        assert rep.a is None
        assert rep.h is None
        assert any("degenerate" in note for note in rep.notes)
        assert rep.r == 0.0

    def test_p4_report_values(self, p4):
        s, p, cs = _setup(p4, (2, 2))
        f = nh.load_coloring("a\tred\nb\tred\nc\tblue\nd\tblue", p4)
        o = nh.homophilic_counts(p4, f)
        rep = nh.build_index_report(p4, f, o, cs)
        assert rep.observed == (1, 1)
        assert rep.a == pytest.approx(0.6)
        assert rep.h == 0.0
        assert rep.descriptive_ratio == pytest.approx(2 / 3)
        assert rep.gamma == pytest.approx(1 / 48)
        assert set(rep.j_theta) == {"ratio", "avg_internal_degree", "dyadicity"}
