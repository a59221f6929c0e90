"""Coloring parsing, homophilic counting, and the seeded uniform sampler."""

import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh
from nethom import colorings
from conftest import monochrome_edge_scan, random_gnp


def reference_load_coloring(text, graph):
    """Every coloring rule applied line by line, in order; raises at the first bad line."""
    index = {lab: i for i, lab in enumerate(graph.labels)}
    class_index = {}
    assign = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "\t" not in line:
            raise nh.ColoringError(f"line {lineno}: expected 'vertex-id<TAB>class-label'")
        vid, label = (part.strip() for part in line.split("\t", 1))
        if not vid or not label:
            raise nh.ColoringError(f"line {lineno}: empty vertex id or class label")
        if vid not in index:
            raise nh.UnknownVertexError(f"line {lineno}: vertex {vid!r} is not in the graph")
        if index[vid] in assign:
            raise nh.DuplicateVertexError(f"line {lineno}: vertex {vid!r} assigned twice")
        assign[index[vid]] = class_index.setdefault(label, len(class_index))
    missing = [repr(lab) for i, lab in enumerate(graph.labels) if i not in assign]
    if missing:
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        raise nh.MissingVertexError(f"no class assigned to vertex {', '.join(missing[:5])}{more}")
    return [assign[i] for i in range(graph.n)], tuple(class_index)


def _coloring_outcome(load, text, graph):
    try:
        f = load(text, graph)
    except nh.ColoringError as exc:
        return type(exc), str(exc)
    if isinstance(f, nh.Coloring):
        assert f.assignment.dtype == np.int32
        return f.assignment.tolist(), f.class_labels
    return f


# a graph on eight vertices, so that more than five can be missing
COLORED = nh.load_edge_list("a b\nb c\nc d\nd a\nv e\nv f\nv gg\nv 7\n")


@st.composite
def coloring_texts(draw):
    """A coloring of ``COLORED`` with injected unknown, repeated, malformed and missing vertices."""
    labels = list(COLORED.labels)
    vids = draw(st.permutations(labels))
    vids = vids[: len(vids) - draw(st.sampled_from([0, 0, 0, 1, 2, 6]))]  # missing vertices
    tab = st.sampled_from(["\t", " \t", "\t "])
    lines = [v + draw(tab) + draw(st.sampled_from(["x", "y", "z z"])) for v in vids]
    for _ in range(draw(st.integers(0, 3))):
        bad = draw(
            st.sampled_from(
                [
                    draw(st.sampled_from(labels)) + "\tq",  # a repeated vertex
                    "zz\tq",  # an unknown vertex
                    "a x",  # no tab
                    " \tq",  # empty vertex id
                    "b\t # c",  # empty class label
                    "# only a comment",
                    "",
                ]
            )
        )
        lines.insert(draw(st.integers(0, len(lines))), bad)
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + line_end for line in lines)


class TestFallingFactorial:
    def test_basic(self):
        assert nh.falling_factorial(4, 2) == 12

    def test_zero_when_factor_hits_zero(self):
        assert nh.falling_factorial(3, 4) == 0

    @pytest.mark.parametrize("a", [0, 1, 5, 100])
    def test_zeroth_power_is_one(self, a):
        assert nh.falling_factorial(a, 0) == 1

    def test_matches_factorial_ratio(self):
        for a in range(0, 12):
            for q in range(0, a + 1):
                assert nh.falling_factorial(a, q) == math.factorial(a) // math.factorial(a - q)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nh.falling_factorial(-1, 2)


class TestProfile:
    def test_requires_positive_sizes(self):
        with pytest.raises(ValueError):
            nh.Profile((2, 0))

    def test_coloring_count(self):
        assert nh.Profile((2, 1)).coloring_count() == 3
        assert nh.Profile((2, 2)).coloring_count() == 6
        assert nh.Profile((4, 4)).coloring_count() == 70


class TestLoadColoring:
    def test_profile_by_first_appearance(self, p3):
        f = nh.load_coloring("a\tred\nb\tred\nc\tblue", p3)
        assert f.class_labels == ("red", "blue")
        assert f.profile.sizes == (2, 1)
        assert f.assignment.tolist() == [0, 0, 1]

    def test_missing_vertex(self, p3):
        with pytest.raises(nh.MissingVertexError, match="'c'"):
            nh.load_coloring("a\tred\nb\tred", p3)

    def test_unknown_vertex(self, p3):
        with pytest.raises(nh.UnknownVertexError, match="'zz'"):
            nh.load_coloring("a\tred\nb\tred\nc\tblue\nzz\tblue", p3)

    def test_duplicate_vertex(self, p3):
        with pytest.raises(nh.DuplicateVertexError, match="'a'"):
            nh.load_coloring("a\tred\na\tblue\nb\tred\nc\tblue", p3)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("a\tred\na\tblue\nzz\tred\n", nh.DuplicateVertexError, "line 2: vertex 'a' assigned twice"),
            ("zz\tred\na\tred\na\tblue\n", nh.UnknownVertexError, "line 1: vertex 'zz' is not in the graph"),
            ("a\tr\nb\tr\nb\tb\nnotab\n", nh.DuplicateVertexError, "line 3: vertex 'b' assigned twice"),
            ("a\tred\nnotab\na\tblue\n", nh.ColoringError, "line 2: expected 'vertex-id<TAB>class-label'"),
            ("a\tr\n \tr\na\tb\n", nh.ColoringError, "line 2: empty vertex id or class label"),
            ("b\tx\na\tx\nc\tx\nb\ty\na\ty\n", nh.DuplicateVertexError, "line 4: vertex 'b' assigned twice"),
            ("a\tred\na\tblue\n", nh.DuplicateVertexError, "line 2: vertex 'a' assigned twice"),
            ("a\tred\n", nh.MissingVertexError, "no class assigned to vertex 'b', 'c'"),
        ],
    )
    def test_first_offending_line_is_reported(self, p3, text, error, message):
        with pytest.raises(error) as exc:
            nh.load_coloring(text, p3)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(coloring_texts())
    def test_matches_reference_rule_loop(self, text):
        assert _coloring_outcome(nh.load_coloring, text, COLORED) == _coloring_outcome(
            reference_load_coloring, text, COLORED
        )

    def test_comments_and_blank_lines(self, p3):
        f = nh.load_coloring("# hi\n\na\tred\nb\tred\nc\tblue # inline\n", p3)
        assert f.profile.sizes == (2, 1)


def _general_load(text, graph):
    with mock.patch.object(colorings, "_token_coloring", return_value=None):
        return nh.load_coloring(text, graph)


class TestIntegerIdPath:
    def test_leaves_the_graph_index_unbuilt(self):
        g = nh.load_edge_list(b"# ids\n5\t12\n12\t0\nv 7\n")
        f = nh.load_coloring(b"0\tb\n5\ta\r\n# c\n12\ta\n7\tc # last\n", g)
        assert "index" not in g.__dict__
        assert f.assignment.tolist() == [1, 1, 0, 2]
        assert f.class_labels == ("b", "a", "c")

    # A graph label is non-canonical for the vectorized path unless it is one
    # nonempty token of printable ASCII: "2 " and "8\xe9" are not.
    @pytest.mark.parametrize(
        "graph,text",
        [
            (nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=("00", "1", "2 ")), "00\tx\n1\ty\n2\tx\n"),
            (nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=("00", "1", "2")), "0\tx\n1\ty\n2\tx\n"),
            (nh.Graph.from_edges(2, [(0, 1)], labels=("1\n2", "3")), "3\tx\n"),
            (nh.Graph.from_edges(2, [(0, 1)], labels=("", "3")), "3\tx\n"),
            (nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=("007", "7", "8\xe9")), "007\ta\n7\tb\n8\ta\n"),
            (nh.load_edge_list("007 7\n7 8\n"), "7\ta\n8\tb\n7\ta\n"),
            (nh.load_edge_list("007 7\n7 8\n"), "7\ta\n8\tb\n"),
        ],
    )
    def test_non_canonical_graph_labels_take_the_general_path(self, graph, text):
        assert colorings._token_coloring(text, graph) is None
        assert _coloring_outcome(nh.load_coloring, text, graph) == _coloring_outcome(
            _general_load, text, graph
        )
        assert _coloring_outcome(nh.load_coloring, text, graph) == _coloring_outcome(
            reference_load_coloring, text, graph
        )

    @pytest.mark.parametrize(
        "graph,text",
        [
            (nh.Graph.from_edges(3, [(0, 1), (1, 2)], labels=("00", "1", "2")), "00\tx\n1\ty\n2\tx\n"),
            (nh.load_edge_list("007 7\n7 8\n"), "007\ta\n7\tb\n8\ta\n"),
        ],
    )
    def test_non_canonical_decimal_labels_take_the_token_path(self, graph, text):
        assert colorings._token_coloring(text, graph) is not None
        assert "index" not in graph.__dict__
        assert _coloring_outcome(nh.load_coloring, text, graph) == _coloring_outcome(
            _general_load, text, graph
        )
        assert _coloring_outcome(nh.load_coloring, text, graph) == _coloring_outcome(
            reference_load_coloring, text, graph
        )


class TestHomophilicCounts:
    def test_path_split(self, p3):
        f = nh.load_coloring("a\tred\nb\tred\nc\tblue", p3)
        assert nh.homophilic_counts(p3, f).counts == (1, 0)

    def test_complete_graph_constant(self, k4):
        for text in (
            "a\tr\nb\tr\nc\tb\nd\tb",
            "a\tr\nb\tb\nc\tr\nd\tb",
            "a\tr\nb\tb\nc\tb\nd\tr",
        ):
            f = nh.load_coloring(text, k4)
            assert nh.homophilic_counts(k4, f).counts == (1, 1)

    def test_disjoint_edges_cross_coloring(self, two_edges):
        f = nh.load_coloring("a\tred\nc\tred\nb\tblue\nd\tblue", two_edges)
        assert nh.homophilic_counts(two_edges, f).counts == (0, 0)

    def test_total_matches_edge_scan_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            g = random_gnp(rng, n, float(rng.uniform(0, 1)))
            s = int(rng.integers(1, n + 1))
            sizes = [1] * s
            for _ in range(n - s):
                sizes[int(rng.integers(s))] += 1
            f = nh.random_coloring(nh.Profile(tuple(sizes)), seed=int(rng.integers(2**32)))
            out = nh.homophilic_counts(g, f)
            assert out.total == monochrome_edge_scan(g, f)


class TestRandomColoring:
    def test_single_class_trivial(self):
        f = nh.random_coloring(nh.Profile((5,)), seed=3)
        assert f.assignment.tolist() == [0] * 5

    def test_same_seed_same_assignment(self):
        p = nh.Profile((3, 2, 2))
        a = nh.random_coloring(p, seed=123).assignment
        b = nh.random_coloring(p, seed=123).assignment
        assert a.tolist() == b.tolist()
        c = nh.random_coloring(p, seed=124).assignment
        assert a.tolist() != c.tolist()

    def test_profile_preserved(self):
        p = nh.Profile((4, 1, 3))
        f = nh.random_coloring(p, seed=9)
        assert f.profile.sizes == (4, 1, 3)

    def test_uniform_over_three_colorings(self):
        # profile (2,1) on 3 vertices: 3 distinct colorings, 1/3 each
        p = nh.Profile((2, 1))
        freq = Counter()
        k = 60000
        for seed in range(k):
            freq[tuple(nh.random_coloring(p, seed).assignment.tolist())] += 1
        assert len(freq) == 3
        for count in freq.values():
            assert abs(count / k - 1 / 3) < 0.01

    def test_total_variation_against_uniform_law(self):
        # enumerable instance: profile (2,1,1) has n!/(2!) = 12 colorings
        p = nh.Profile((2, 1, 1))
        k = 20000
        freq = Counter()
        for seed in range(k):
            freq[tuple(nh.random_coloring(p, seed).assignment.tolist())] += 1
        assert len(freq) == 12
        uniform = Fraction(1, 12)
        tv = sum(abs(Fraction(c, k) - uniform) for c in freq.values()) / 2
        assert float(tv) <= 4 / math.sqrt(k)
