"""Edge-list parsing, graph summaries, and the covariance-scale invariant."""

from fractions import Fraction

import numpy as np
import pytest

import nethom as nh
from conftest import brute_disjoint_ordered_pairs, brute_pi3, random_gnp


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = nh.load_edge_list("a b\nb c")
        assert g.n == 3
        assert g.m == 2
        assert g.degrees.tolist() == [1, 2, 1]
        assert g.labels == ("a", "b", "c")

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(nh.DuplicateEdgeError) as exc:
            nh.load_edge_list("a b\na b")
        assert exc.value.line == 2

    def test_duplicate_reversed_also_rejected(self):
        with pytest.raises(nh.DuplicateEdgeError):
            nh.load_edge_list("a b\nb a")

    def test_dedupe_flag_merges(self):
        g = nh.load_edge_list("a b\na b\nb a", dedupe=True)
        assert g.m == 1

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(nh.SelfLoopError) as exc:
            nh.load_edge_list("x x")
        assert exc.value.line == 1

    def test_malformed_line(self):
        with pytest.raises(nh.MalformedLineError) as exc:
            nh.load_edge_list("a b\nc")
        assert exc.value.line == 2

    def test_comments_blanks_and_extra_tokens(self):
        g = nh.load_edge_list("# header\n\na b  # trailing\nb c extra tokens\n")
        assert g.m == 2
        assert g.n == 3

    def test_isolated_vertex_declaration(self):
        g = nh.load_edge_list("a b\nv lonely\n")
        assert g.n == 3
        assert g.m == 1
        assert g.degrees.tolist() == [1, 1, 0]
        assert "lonely" in g.labels

    def test_first_appearance_order_is_deterministic(self):
        g = nh.load_edge_list("z y\nx z")
        assert g.labels == ("z", "y", "x")

    def test_index_is_cached_and_maps_labels(self):
        g = nh.load_edge_list("z y\nx z\nv w")
        assert g.index is g.index
        assert g.index == {"z": 0, "y": 1, "x": 2, "w": 3}
        assert all(g.labels[i] == lab for lab, i in g.index.items())

    def test_bytes_input(self):
        g = nh.load_edge_list(b"a b\nb c")
        assert g.m == 2

    def test_degrees_sum_to_twice_edges(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_gnp(rng, int(rng.integers(2, 15)), float(rng.uniform(0, 1)))
            assert int(g.degrees.sum()) == 2 * g.m


class TestSummarize:
    def test_k4_two_paths(self, k4):
        s = nh.summarize(k4)
        assert s.pi3 == 12  # n^(3) / 2 for a complete graph

    def test_star_counts(self, star4):
        s = nh.summarize(star4)
        assert s.pi3 == 3 == brute_pi3(star4)
        assert s.ordered_disjoint_pairs == 0

    def test_path_counts(self, p4):
        s = nh.summarize(p4)
        assert s.pi3 == 2 == brute_pi3(p4)
        assert s.ordered_disjoint_pairs == 2 == brute_disjoint_ordered_pairs(p4)

    def test_density_and_moments(self, p4):
        s = nh.summarize(p4)
        assert s.rho == pytest.approx(0.5)
        assert s.delta1 == pytest.approx(1.5)
        assert s.delta2 == pytest.approx(2.5)
        assert s.upsilon == pytest.approx((2.5 - 1.5**2) / 1.5)

    def test_pi3_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            g = random_gnp(rng, n, float(rng.uniform(0, 0.9)))
            if g.m > 50:
                continue
            s = nh.summarize(g)
            assert s.pi3 == brute_pi3(g)
            assert s.ordered_disjoint_pairs == brute_disjoint_ordered_pairs(g)

    def test_single_vertex(self):
        g = nh.load_edge_list("v only")
        s = nh.summarize(g)
        assert (s.n, s.m, s.pi3) == (1, 0, 0)


class TestGammaInvariant:
    def test_star_closed_form(self, star4):
        assert nh.gamma_invariant(nh.summarize(star4)) == Fraction(-1, 16)

    def test_path_closed_form(self, p4):
        assert nh.gamma_invariant(nh.summarize(p4)) == Fraction(1, 48)

    def test_complete_graph_zero(self, k4):
        assert nh.gamma_invariant(nh.summarize(k4)) == 0

    def test_undefined_below_four_vertices(self, p3):
        assert nh.gamma_invariant(nh.summarize(p3)) is None
        assert nh.gamma_from_degree_moments(nh.summarize(p3)) is None

    def test_two_forms_agree_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            g = random_gnp(rng, n, float(rng.uniform(0, 1)))
            s = nh.summarize(g)
            a = nh.gamma_invariant(s)
            b = nh.gamma_from_degree_moments(s)
            assert a == b
            assert abs(float(a) - float(b)) <= 1e-12

    def test_sign_matches_dispersion_margin(self):
        rng = np.random.default_rng(37)
        hits = {True: 0, False: 0}
        for _ in range(120):
            n = int(rng.integers(4, 30))
            g = random_gnp(rng, n, float(rng.uniform(0.05, 0.95)), min_edges=1)
            s = nh.summarize(g)
            gamma = nh.gamma_invariant(s)
            margin = nh.dispersion_margin(s)
            assert (gamma <= 0) == (margin >= 0)
            hits[gamma <= 0] += 1
        # the sweep must exercise both sign regimes to mean anything
        assert hits[True] > 0 and hits[False] > 0

    def test_dispersion_margin_undefined_without_edges(self):
        g = nh.load_edge_list("v a\nv b")
        assert nh.dispersion_margin(nh.summarize(g)) is None
