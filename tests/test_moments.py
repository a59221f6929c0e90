"""Closed-form moments against enumeration, and the covariance structure."""

from fractions import Fraction

import numpy as np
import pytest

import nethom as nh
from conftest import random_composition, random_gnp


def _structure(g, sizes):
    return nh.covariance_structure(nh.summarize(g), nh.Profile(sizes))


class TestExpectedCounts:
    def test_p3_profile_2_1(self, p3):
        # exhaustive check: colorings (rrb, rbr, brr) give counts 1, 0, 1
        assert _structure(p3, (2, 1)).mbar == (Fraction(2, 3), Fraction(0))

    def test_complete_graph_half_class_pairs(self, k4):
        assert _structure(k4, (2, 2)).mbar == (Fraction(1), Fraction(1))

    def test_empty_graph_zero(self):
        g = nh.load_edge_list("v a\nv b\nv c")
        assert _structure(g, (2, 1)).mbar == (Fraction(0), Fraction(0))


class TestMarginalVariances:
    def test_p3_profile_2_1(self, p3):
        assert _structure(p3, (2, 1)).var == (Fraction(2, 9), Fraction(0))

    def test_complete_graph_constant_outcome(self, k4):
        assert _structure(k4, (2, 2)).var == (Fraction(0), Fraction(0))

    def test_p4_profile_2_2(self, p4):
        assert _structure(p4, (2, 2)).var == (Fraction(1, 4), Fraction(1, 4))

    def test_five_cycle_large_class_is_constant(self):
        # removing one vertex from a 5-cycle always leaves 3 edges
        g = nh.load_edge_list("a b\nb c\nc d\nd e\ne a")
        assert _structure(g, (4, 1)).var == (Fraction(0), Fraction(0))


class TestCovarianceStructure:
    def test_two_disjoint_edges_degenerate(self, two_edges):
        s = nh.summarize(two_edges)
        p = nh.Profile((2, 2))
        cs = nh.covariance_structure(s, p)
        assert cs.gamma == Fraction(1, 18)
        assert cs.sigma[0, 1] == pytest.approx(2 / 9, abs=1e-15)
        assert cs.q == (0.0, 0.0)
        assert cs.degenerate
        assert cs.sigma_inv is None and cs.corr_inv is None
        assert cs.corr[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_p4_sigma_and_inverse_pinned(self, p4):
        s = nh.summarize(p4)
        cs = nh.covariance_structure(s, nh.Profile((2, 2)))
        assert np.allclose(cs.sigma, [[0.25, 1 / 12], [1 / 12, 0.25]], atol=1e-15)
        assert np.allclose(cs.sigma_inv, [[4.5, -1.5], [-1.5, 4.5]], atol=1e-12)
        assert np.max(np.abs(cs.sigma @ cs.sigma_inv - np.eye(2))) <= 1e-9

    def test_star_negative_covariance(self, star4):
        # both classes would need the center vertex, so E[M1*M2] = 0
        s = nh.summarize(star4)
        cov = nh.covariance_exact(s, nh.Profile((2, 2)))
        assert cov[0][1] == Fraction(-1, 4)
        assert Fraction(-1, 4) == nh.gamma_invariant(s) * 2 * 2

    def test_rank_one_identity(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            n = int(rng.integers(5, 20))
            g = random_gnp(rng, n, float(rng.uniform(0.2, 0.9)), min_edges=1)
            s = nh.summarize(g)
            p = random_composition(rng, n, int(rng.integers(2, min(6, n))), min_size=1)
            cs = nh.covariance_structure(s, p)
            gamma = float(cs.gamma)
            vec = [float(x) for x in cs.vec]
            rebuilt = np.diag([float(x) for x in cs.q]) + gamma * np.outer(vec, vec)
            assert np.allclose(rebuilt, cs.sigma, atol=1e-11)

    def test_off_diagonals_share_gamma_sign(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(5, 25))
            g = random_gnp(rng, n, float(rng.uniform(0.1, 0.9)), min_edges=1)
            s = nh.summarize(g)
            p = random_composition(rng, n, int(rng.integers(2, min(7, n))), min_size=1)
            cs = nh.covariance_structure(s, p)
            offs = cs.sigma[~np.eye(p.s, dtype=bool)]
            gamma = float(cs.gamma)
            if gamma > 0:
                assert np.all(offs >= 0)
            elif gamma < 0:
                assert np.all(offs <= 0)
            else:
                assert np.all(offs == 0)

    def test_sherman_morrison_matches_dense_inverse(self):
        rng = np.random.default_rng(113)
        done = 0
        while done < 40:
            n = int(rng.integers(12, 80))
            g = random_gnp(rng, n, float(rng.uniform(0.15, 0.7)), min_edges=1)
            s = nh.summarize(g)
            smax = min(50, n // 2)
            p = random_composition(rng, n, int(rng.integers(2, smax + 1)), min_size=2)
            cs = nh.covariance_structure(s, p)
            if cs.degenerate or len(cs.active) != p.s:
                continue
            dense = np.linalg.inv(cs.sigma)
            assert np.max(np.abs(dense - cs.sigma_inv)) <= 1e-9 * max(
                1.0, np.max(np.abs(dense))
            )
            done += 1

    def test_m_matrix_regimes(self):
        rng = np.random.default_rng(131)
        done_neg = done_pos = 0
        while done_neg < 10 or done_pos < 10:
            n = int(rng.integers(8, 40))
            regular = rng.random() < 0.5
            if regular:
                # near-regular graphs push gamma positive
                g = random_gnp(rng, n, 0.9, min_edges=1)
            else:
                g = random_gnp(rng, n, float(rng.uniform(0.1, 0.4)), min_edges=1)
            s = nh.summarize(g)
            p = random_composition(rng, n, int(rng.integers(2, min(6, n // 2) + 1)), min_size=2)
            cs = nh.covariance_structure(s, p)
            if cs.degenerate or len(cs.active) != p.s:
                continue
            gamma = float(cs.gamma)
            if gamma <= 0 and done_neg < 10:
                # Z-matrix with nonnegative inverse
                assert np.all(cs.sigma_inv >= -1e-10)
                done_neg += 1
            elif gamma >= 0 and done_pos < 10:
                off = cs.sigma_inv[~np.eye(p.s, dtype=bool)]
                assert np.all(off <= 1e-10)
                assert np.all(cs.sigma >= 0)
                done_pos += 1

    def test_all_degenerate_has_empty_active_set(self, k4):
        s = nh.summarize(k4)
        cs = nh.covariance_structure(s, nh.Profile((2, 2)))
        assert cs.active == ()
        assert cs.degenerate
        assert cs.corr is None


class TestOracleEquivalenceSpot:
    """Closed forms == enumeration on hand-picked instances (full sweep in acceptance)."""

    @pytest.mark.parametrize(
        "edges,profile",
        [
            ("a b\nb c", (2, 1)),
            ("a b\nb c", (1, 1, 1)),
            ("a b\nb c\nc d", (2, 2)),
            ("a b\nb c\nc d", (3, 1)),
            ("a b\nc d", (2, 2)),
            ("a b\na c\na d\nb c\nb d\nc d", (2, 2)),
            ("x a\nx b\nx c", (2, 2)),
            ("a b\nb c\nc a\nc d\nd e", (2, 2, 1)),
        ],
    )
    def test_mean_and_covariance_match(self, edges, profile):
        g = nh.load_edge_list(edges)
        s = nh.summarize(g)
        p = nh.Profile(profile)
        dist = nh.enumerate_colorings(g, p)
        mean, cov = nh.exact_moments(dist)
        assert mean == nh.covariance_structure(s, p).mbar
        assert cov == nh.covariance_exact(s, p)

    def test_sampled_seven_vertex_instances(self):
        # the exhaustive sweep stops at n = 6; sample the n = 7 layer
        rng = np.random.default_rng(77)
        for _ in range(6):
            g = random_gnp(rng, 7, float(rng.uniform(0.2, 0.8)))
            s = nh.summarize(g)
            for sizes in [(3, 2, 2), (4, 3), (5, 1, 1), (2, 2, 2, 1)]:
                p = nh.Profile(sizes)
                dist = nh.enumerate_colorings(g, p)
                mean, cov = nh.exact_moments(dist)
                assert mean == nh.covariance_structure(s, p).mbar
                assert cov == nh.covariance_exact(s, p)
