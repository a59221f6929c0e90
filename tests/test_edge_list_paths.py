"""The vectorized integer-id edge-list path against the general line-grammar path.

``load_edge_list`` takes the integer path whenever every id is a canonical
decimal; patching ``_int_id_edges`` to decline forces the general path on the
same bytes, so the two can be compared on any input. Both are also compared
with ``reference_load``, a line-by-line rule loop that shares no code with
the library, since the two paths share their error selection.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh
from nethom import graphs

PATHS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _general(data, dedupe=False):
    with mock.patch.object(graphs, "_int_id_edges", return_value=None):
        return nh.load_edge_list(data, dedupe=dedupe)


def reference_load(data, dedupe=False):
    """Every edge-list rule applied line by line, in order; raises at the first bad line."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    index = {}
    us, vs = [], []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) < 2:
            raise nh.MalformedLineError(f"expected two endpoints, got {parts[0]!r}", lineno)
        if parts[0] == "v" and len(parts) == 2:
            index.setdefault(parts[1], len(index))
            continue
        a = index.setdefault(parts[0], len(index))
        b = index.setdefault(parts[1], len(index))
        if a == b:
            raise nh.SelfLoopError(f"self-loop at vertex {parts[0]!r}", lineno)
        key = (min(a, b), max(a, b))
        if key in seen:
            if dedupe:
                continue
            raise nh.DuplicateEdgeError(f"duplicate edge {parts[0]!r} {parts[1]!r}", lineno)
        seen.add(key)
        us.append(a)
        vs.append(b)
    degrees = [0] * len(index)
    for w in us + vs:
        degrees[w] += 1
    return nh.Graph(
        n=len(index),
        edges_u=np.array(us, dtype=np.int32),
        edges_v=np.array(vs, dtype=np.int32),
        degrees=np.array(degrees, dtype=np.int64),
        labels=tuple(index),
    )


def _outcome(load, data, dedupe):
    """The graph's fields, or the error's class, message and line."""
    try:
        g = load(data, dedupe=dedupe)
    except (nh.EdgeListError, UnicodeDecodeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    arrays = (g.edges_u, g.edges_v, g.degrees)
    return (
        g.n,
        g.labels,
        tuple((a.dtype.str, a.flags.c_contiguous, a.tolist()) for a in arrays),
    )


# mostly small ids, so that self-loops and duplicate edges are common
IDS = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(0, 6).map(str),
    st.integers(0, 10**18 - 1).map(str),
    st.just("999999999999999999"),
)
BLANK = st.sampled_from(["", " ", "\t", "  ", " \t"])
SEP = st.sampled_from([" ", "\t", "  ", " \t "])
COMMENT = st.text(alphabet="abv 0123456789#\t", max_size=8).map(lambda t: "#" + t)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])

# Lines the integer path must decline, each built around ids a, b, c and a separator.
SPOILERS = {
    "extra token": lambda a, b, c, sep: a + sep + b + sep + c,
    "two edges on a line": lambda a, b, c, sep: a + sep + b + sep + c + sep + a,
    "two lone ids": lambda a, b, c, sep: a + "\n" + b,
    "v second": lambda a, b, c, sep: a + sep + "v",
    "v with two ids": lambda a, b, c, sep: "v" + sep + a + sep + b,
    "lone v": lambda a, b, c, sep: "v",
    "lone id": lambda a, b, c, sep: a,
    "007 beside 7": lambda a, b, c, sep: "007" + sep + "7",
    "leading zero": lambda a, b, c, sep: "0" + a + sep + b,
    "19 digits": lambda a, b, c, sep: "1234567890123456789" + sep + a,
    "20 digits": lambda a, b, c, sep: a + sep + "12345678901234567890",
    "letter id": lambda a, b, c, sep: a + sep + "x" + b,
    "v leading a token": lambda a, b, c, sep: "v" + a + sep + b,
    "v ending a token": lambda a, b, c, sep: a + "v" + sep + b,
    "v twice": lambda a, b, c, sep: "vv" + sep + a,
    "sign": lambda a, b, c, sep: "-" + a + sep + b,
    "vertical tab": lambda a, b, c, sep: a + "\x0b" + b,
    "form feed": lambda a, b, c, sep: a + sep + b + "\x0c" + c + sep + a,
    "unit separator": lambda a, b, c, sep: a + "\x1f" + b,
    "no-break space": lambda a, b, c, sep: a + "\xa0" + b,
    "next line": lambda a, b, c, sep: a + sep + b + "\x85" + c + sep + a,
    "non-ASCII comment": lambda a, b, c, sep: a + sep + b + " # caf\xe9",
}


@st.composite
def _integer_line(draw, pairs):
    """A line the integer path accepts; ``pairs`` collects the edges written."""
    kind = draw(st.sampled_from(["edge"] * 6 + ["decl"] * 2 + ["loop", "repeat", "blank", "comment"]))
    a = draw(IDS)
    b = draw(IDS.filter(lambda t: t != a))
    sep = draw(SEP)
    if kind == "repeat" and pairs:  # an earlier edge again, either way round
        body = sep.join(draw(st.permutations(draw(st.sampled_from(pairs)))))
    elif kind in ("edge", "repeat"):
        body = a + sep + b
        pairs.append((a, b))
    elif kind == "decl":
        body = "v" + sep + a
    elif kind == "loop":
        body = a + sep + a
    else:
        return draw(BLANK) + (draw(COMMENT) if kind == "comment" else "")
    return body


@st.composite
def edge_lists(draw):
    """Text of an edge list and whether the integer path must accept it.

    Half the lists hold only lines of the integer grammar; the other half
    add one line from ``SPOILERS`` at a random place.
    """
    pairs = []
    lines = draw(st.lists(_integer_line(pairs), max_size=14))
    accept = draw(st.booleans())
    if not accept:
        spoil = SPOILERS[draw(st.sampled_from(sorted(SPOILERS)))]
        line = spoil(draw(IDS), draw(IDS), draw(IDS), draw(SEP))
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = ""
    for line in lines:
        if line.strip() and draw(st.booleans()):
            line += draw(BLANK) + draw(COMMENT)  # mid-line comment
        text += draw(BLANK) + line + draw(BLANK) + draw(LINE_END)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text, accept


@PATHS
@given(edge_lists(), st.booleans(), st.booleans())
def test_integer_path_matches_general_path(case, dedupe, as_bytes):
    text, accept = case
    data = text.encode("utf-8") if as_bytes else text
    assert (graphs._int_id_edges(data) is not None) == accept, text
    assert _outcome(nh.load_edge_list, data, dedupe) == _outcome(_general, data, dedupe)


@PATHS
@given(edge_lists(), st.booleans(), st.booleans())
def test_both_paths_match_reference_rule_loop(case, dedupe, as_bytes):
    text, _ = case
    data = text.encode("utf-8") if as_bytes else text
    expected = _outcome(reference_load, data, dedupe)
    assert _outcome(nh.load_edge_list, data, dedupe) == expected
    assert _outcome(_general, data, dedupe) == expected


class TestIntegerPath:
    def test_snap_style_file_takes_it(self):
        data = b"# Nodes: 4 Edges: 3\r\n# FromNodeId\tToNodeId\r\n0\t5\r\n5\t12\r\n12\t0\r\nv 7\r\n"
        assert graphs._int_id_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == ("0", "5", "12", "7")
        assert g.degrees.tolist() == [2, 2, 2, 0]

    def test_sparse_ids_fall_back_to_unique(self):
        g = nh.load_edge_list("900000000000 3\n3 17\nv 5000000000\n17 900000000000\n")
        assert g.labels == ("900000000000", "3", "17", "5000000000")
        assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == [(0, 1), (1, 2), (2, 0)]

    def test_non_integer_id_anywhere_takes_general_path(self):
        data = b"1 2\n2 3\n3 x\n"
        assert graphs._int_id_edges(data) is None
        g = nh.load_edge_list(data)
        assert g.labels == ("1", "2", "3", "x")
        assert g.m == 3

    def test_leading_zero_ids_stay_distinct(self):
        data = b"007 7\n7 8\n"
        assert graphs._int_id_edges(data) is None
        g = nh.load_edge_list(data)
        assert g.labels == ("007", "7", "8")
        assert g.degrees.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("data", [b"", b"\n\n", b"# only\r\n  # comments\n", b"   \t\n"])
    def test_empty_and_comment_only_files(self, data):
        assert graphs._int_id_edges(data) is not None
        g = nh.load_edge_list(data)
        assert (g.n, g.m, g.labels) == (0, 0, ())
        assert _outcome(nh.load_edge_list, data, False) == _outcome(_general, data, False)

    def test_invalid_utf8_in_comment_still_raises(self):
        with pytest.raises(UnicodeDecodeError):
            nh.load_edge_list(b"1 2 # caf\xe9\n2 3\n")

    @pytest.mark.parametrize(
        "data,error,line",
        [
            (b"1 2\n3 3\n", nh.SelfLoopError, 2),
            (b"1 2\n# c\n2 1\n", nh.DuplicateEdgeError, 3),
            (b"1 2\n2\n2 2\n", nh.MalformedLineError, 2),
            (b"1 1\n2\n", nh.SelfLoopError, 1),
            (b"v 1\nv\n", nh.MalformedLineError, 2),
        ],
    )
    def test_errors_name_the_line(self, data, error, line):
        with pytest.raises(error) as exc:
            nh.load_edge_list(data)
        assert exc.value.line == line
        assert _outcome(nh.load_edge_list, data, False) == _outcome(_general, data, False)

    def test_dedupe_keeps_first_appearance(self):
        g = nh.load_edge_list(b"3 1\n1 2\n1 3\n2 1\n", dedupe=True)
        assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == [(0, 1), (1, 2)]
        assert g.degrees.dtype == np.int64
