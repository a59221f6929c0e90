"""Edge-list parsing, graph summaries, and the covariance-scale invariant."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nethom as nh
from conftest import brute_disjoint_ordered_pairs, brute_pi3, random_gnp


def gamma_from_degree_moments(s: nh.GraphSummary) -> Fraction:
    """Degree-moment form of :func:`nethom.gamma_invariant`, an independent cross-check.

    (n / n^(4)) * ((2n-3)/(2n-2) * delta1^2 + delta1/2 - delta2), exact, for n >= 4.
    """
    n = s.n
    d1 = Fraction(2 * s.m, n)
    d2 = Fraction(s.sum_sq_degrees, n)
    return Fraction(n, math.perm(n, 4)) * (Fraction(2 * n - 3, 2 * n - 2) * d1 * d1 + d1 / 2 - d2)


def reference_from_edges(n, edges, dedupe=False):
    """Every ``Graph.from_edges`` rule applied pair by pair, in order; raises at the first bad pair.

    Returns the edge lists and the degrees.
    """
    seen = set()
    us, vs = [], []
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise nh.EdgeListError(f"edge {pair!r} is not a pair of endpoints")
        try:
            operator.index(u), operator.index(v)
        except TypeError:
            raise nh.EdgeListError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise nh.EdgeListError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise nh.SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            if dedupe:
                continue
            raise nh.DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        us.append(u)
        vs.append(v)
    degrees = [0] * n
    for w in us + vs:
        degrees[w] += 1
    return us, vs, degrees


def _from_edges_outcome(build, n, edges, dedupe):
    """Edges and degrees as lists, or the error's class, message and line.

    A list of pairs is passed as an iterator, which ``from_edges`` accepts;
    an array is passed as it is.
    """
    try:
        out = build(n, iter(edges) if isinstance(edges, list) else edges, dedupe=dedupe)
    except nh.EdgeListError as exc:
        return type(exc), str(exc), exc.line
    if isinstance(out, nh.Graph):
        assert (out.edges_u.dtype, out.edges_v.dtype) == (np.int32, np.int32)
        assert out.degrees.dtype == np.int64
        assert out.labels == tuple(str(i) for i in range(n))
        return out.edges_u.tolist(), out.edges_v.tolist(), out.degrees.tolist()
    return out


@st.composite
def small_edge_inputs(draw):
    """n <= 6 and pairs with out-of-range or non-integer endpoints, self-loops and repeats.

    Some items are not pairs: one or three endpoints, a bare integer, or None.
    """
    n = draw(st.integers(0, 6))
    # most pairs are simple edges, so that the rules are met past the first few
    outside = st.one_of(st.integers(-2, -1), st.integers(n, n + 1), st.just(2**70))
    endpoint = st.integers(0, n - 1) if n else outside
    non_integer = st.one_of(
        st.floats(-1.0, n + 1.0),
        st.floats(-1.0, n + 1.0).map(np.float64),
        st.sampled_from(["0", "1", "x"]),
    )
    edges = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(
            st.sampled_from(["edge"] * 10 + ["repeat"] * 3 + ["loop", "outside", "non_integer", "not_a_pair"])
        )
        pairs = [pair for pair in edges if isinstance(pair, tuple) and len(pair) == 2]
        if kind == "repeat" and pairs:  # an earlier pair again, either way round
            u, v = draw(st.sampled_from(pairs))
            edges.append(draw(st.sampled_from([(u, v), (v, u)])))
        elif kind == "loop":
            u = draw(endpoint)
            edges.append((u, u))
        elif kind == "not_a_pair":
            u = draw(endpoint)
            edges.append(draw(st.sampled_from([(u,), (u, u, u), u, None])))
        elif kind in ("outside", "non_integer"):
            bad = draw(outside if kind == "outside" else non_integer)
            edges.append(tuple(draw(st.permutations([draw(endpoint), bad]))))
        else:
            u = draw(endpoint)
            edges.append((u, draw(endpoint.filter(lambda v: v != u)) if n > 1 else u))
    return n, edges


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


class TestFromEdges:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_edge_inputs(), st.booleans())
    @example((3, []), False)
    @example((3, [(0, 0), (1, 2, 3)]), False)  # a self-loop above a pair of three endpoints
    @example((3, [(0, 1), (0, 1, 2)]), False)
    @example((3, [(0, 1), 5]), False)
    @example((3, [(0, 1), (1,), (0, 1, 2)]), False)  # a bad pair after an earlier bad pair
    @example((3, [(0, 1), (0, 3), None]), True)
    @example((3, [(0, 1), ("x", 1), (2,)]), False)
    @example((3, [(1, 0), (2,), (0, 1)]), False)  # a repeat below the bad pair
    def test_matches_reference_rule_loop(self, case, dedupe):
        n, edges = case
        expected = _from_edges_outcome(reference_from_edges, n, edges, dedupe)
        assert _from_edges_outcome(nh.Graph.from_edges, n, edges, dedupe) == expected
        # the same pairs as (m, 2) integer arrays, when every item is a pair whose endpoints fit in int32
        if all(
            isinstance(pair, tuple) and len(pair) == 2 and all(type(x) is int and abs(x) < 2**31 for x in pair)
            for pair in edges
        ):
            for dtype in (np.int64, np.int32):
                pairs = np.array(edges, dtype=dtype).reshape(len(edges), 2)
                assert _from_edges_outcome(nh.Graph.from_edges, n, pairs, dedupe) == expected

    def test_integer_array_is_not_aliased(self):
        pairs = np.array([[0, 1], [1, 2]], dtype=np.int32)
        g = nh.Graph.from_edges(3, pairs)
        assert not np.shares_memory(g.edges_u, pairs) and not np.shares_memory(g.edges_v, pairs)
        assert pairs.flags.writeable

    def test_repeated_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=("a", "a", "b"))

    def test_labels_given_as_a_list_are_kept_as_a_tuple(self):
        g = nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        assert g.labels == ("a", "b", "c")
        f = nh.load_coloring("a\tx\nb\tx\nc\ty\n", g)
        assert f.assignment.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("labels", [(1, 2, 3), ("a", None, "c"), ("a", b"b", "c")])
    def test_label_that_is_not_a_string_rejected(self, labels):
        with pytest.raises(ValueError, match="is not a string"):
            nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=labels)


def _int64_rule(n, eu, ev, dedupe):
    """The simple-graph check on int64 keys min(u, v) * n + max(u, v), whatever n."""
    loop = eu == ev
    packed = np.minimum(eu, ev).astype(np.int64) * n + np.maximum(eu, ev)
    first = np.zeros(packed.size, dtype=bool)
    first[np.unique(packed, return_index=True)[1]] = True
    bad = loop if dedupe else loop | ~first
    if bad.any():
        return eu, ev, int(bad.argmax())
    return eu[first], ev[first], None


# Edges over n vertices that reach the largest keys. At n = 2**16 + 1 the keys
# of (0, n - 2) and (n - 2, n - 1) are 2**32 apart, so 32-bit keys would
# call them a repeat; at n = 2**16 a self-loop at n - 1 has the key 2**32 - 1.
KEY_WIDTH_CASES = {
    "simple": lambda n: [(0, n - 2), (n - 2, n - 1), (n - 1, 0)],
    "repeat": lambda n: [(0, n - 2), (n - 2, n - 1), (n - 2, n - 1)],
    "reversed repeat": lambda n: [(0, n - 2), (n - 2, n - 1), (n - 1, n - 2), (n - 2, 0)],
    "self-loop": lambda n: [(0, n - 2), (n - 1, n - 1), (n - 2, n - 1)],
}


@pytest.mark.parametrize("dedupe", [False, True], ids=["strict", "dedupe"])
@pytest.mark.parametrize("case", KEY_WIDTH_CASES)
@pytest.mark.parametrize("n", [2**16, 2**16 + 1], ids=["uint32 keys", "int64 keys"])
class TestKeyWidth:
    """The simple-graph check on both sides of the widest graph whose edge keys fit in 32 bits."""

    def test_check_matches_int64_rule(self, n, case, dedupe):
        edges = np.array(KEY_WIDTH_CASES[case](n), dtype=np.int32)
        eu, ev = edges[:, 0].copy(), edges[:, 1].copy()
        assert nh.graphs._edge_keys(n, eu, ev).dtype == (np.uint32 if n == 2**16 else np.int64)
        got, want = nh.graphs._simple_edges(n, eu, ev, dedupe), _int64_rule(n, eu, ev, dedupe)
        assert got[2] == want[2]
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    def test_from_edges_matches_reference(self, n, case, dedupe):
        edges = KEY_WIDTH_CASES[case](n)
        expected = _from_edges_outcome(reference_from_edges, n, edges, dedupe)
        assert _from_edges_outcome(nh.Graph.from_edges, n, edges, dedupe) == expected

    def test_load_matches_int64_rule_and_names_the_line(self, n, case, dedupe):
        # vertex i is declared on line i + 1, so its index is i and edge k is on line n + k + 1
        edges = KEY_WIDTH_CASES[case](n)
        text = "".join(f"v {i}\n" for i in range(n)) + "".join(f"{u} {v}\n" for u, v in edges)
        pairs = np.array(edges, dtype=np.int32)
        eu, ev, k = _int64_rule(n, pairs[:, 0], pairs[:, 1], dedupe)
        if k is None:
            g = nh.load_edge_list(text, dedupe=dedupe)
            assert g.edges_u.tolist() == eu.tolist() and g.edges_v.tolist() == ev.tolist()
            return
        u, v = edges[k]
        error, message = (
            (nh.SelfLoopError, f"self-loop at vertex '{u}'")
            if u == v
            else (nh.DuplicateEdgeError, f"duplicate edge '{u}' '{v}'")
        )
        with pytest.raises(error) as info:
            nh.load_edge_list(text, dedupe=dedupe)
        assert (str(info.value), info.value.line) == (f"line {n + k + 1}: {message}", n + k + 1)


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

    def test_below_four_vertices_only_the_mean_term_is_left(self, p3):
        # no two edges are vertex-disjoint: gamma = -(m / n^(2))^2
        assert nh.gamma_invariant(nh.summarize(p3)) == -Fraction(2, 6) ** 2
        assert nh.gamma_invariant(nh.summarize(nh.load_edge_list("a b"))) == -Fraction(1, 2) ** 2
        assert nh.gamma_invariant(nh.summarize(nh.load_edge_list("v a"))) == 0

    def test_two_forms_agree_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            g = random_gnp(rng, n, float(rng.uniform(0, 1)))
            s = nh.summarize(g)
            a = nh.gamma_invariant(s)
            b = gamma_from_degree_moments(s)
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
