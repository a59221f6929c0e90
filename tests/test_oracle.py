"""Enumeration, Monte Carlo tails, the matching-graph formula, tree scan."""

import math
from fractions import Fraction

import numpy as np
import pytest

import nethom as nh
from conftest import per_class_moments
from nethom.oracle import _sorted_tails, validate


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

    def test_profile_mismatch_names_both_sizes(self, p4):
        with pytest.raises(nh.ColoringError, match="profile sums to 5 but the graph has 4"):
            nh.enumerate_colorings(p4, nh.Profile((2, 3)))

    def test_outcomes_satisfy_support_bounds(self, p4):
        d = nh.enumerate_colorings(p4, nh.Profile((2, 2)))
        for out in d.support:
            assert all(0 <= x <= min(p4.m, 1) for x in out)
            assert sum(out) <= p4.m


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
            nh.matching_tail_log(4, 3)
        with pytest.raises(ValueError):
            nh.matching_tail_log(4, -1)
        with pytest.raises(ValueError):
            nh.matching_tail_table(0)

    def test_log_space_agreement(self):
        for m in (3, 10, 57, 121, 200):
            tails = nh.matching_tail_table(m)
            for k in range(0, m // 2 + 1, max(1, m // 7)):
                exact = tails[k]
                approx = math.exp(nh.matching_tail_log(m, k))
                assert abs(approx - float(exact)) <= 1e-10 * float(exact)


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

    def test_n3_degenerate(self):
        rep = nh.tree_gamma_scan(3)
        assert rep.degenerate
        assert rep.gamma_max is None and rep.gamma_min is None
        assert rep.max_all_paths and rep.min_all_stars

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


class TestSortedTails:
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
            tail = _sorted_tails(dist, values)
            for v in values + [min(values) - 1, max(values) + 1]:
                for side in ("ge", "le"):
                    assert tail(v, side) == nh.exact_tail(dist, stat, v, side), (v, side)


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
        cs_bad = nh.CovarianceStructure(cs.gamma, cs.coef, cs.vec, bad)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs_bad)}
        assert statuses["moments"] == "FAIL"

    def test_moments_check_reads_the_given_structure(self, p4):
        dist, cs = _oracle_instance(p4, (2, 2))
        ms = per_class_moments((2, 2), cs.mbar, cs.var)
        doubled = nh.CovarianceStructure(cs.gamma, 2 * cs.coef, cs.vec, ms)
        statuses = {c["name"]: c["status"] for c in validate(dist, doubled)}
        assert statuses["moments"] == "FAIL"

    @pytest.mark.parametrize("name,sizes", [("p4", (2, 2)), ("c6", (2, 2, 2))])
    def test_shrunk_variances_fail_every_bound(self, request, name, sizes):
        # z-scores and bounds read the variances from the one structure,
        # so both shrink by the same factor
        g = _cycle(6) if name == "c6" else request.getfixturevalue(name)
        dist, cs = _oracle_instance(g, sizes)
        small = per_class_moments(sizes, cs.mbar, tuple(v / 100 for v in cs.var))
        cs_small = nh.CovarianceStructure(cs.gamma, cs.coef / 100, cs.vec, small)
        statuses = {c["name"]: c["status"] for c in validate(dist, cs_small)}
        for check in ("cantelli_index_a", "cantelli_index_r", "chebyshev_index_h"):
            assert statuses[check] == "FAIL", check
