"""The vectorized token path of the edge-list loader against the general line-grammar path.

``load_edge_list`` takes the token path whenever every non-blank line holds
two tokens of printable ASCII; patching ``_token_edges`` to decline forces
the general path on the same bytes, so the two can be compared on any
input. Both are also compared with ``reference_load``, a line-by-line rule
loop that shares no code with the library, since the two paths share their
error selection.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nethom as nh
from nethom import graphs

PATHS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def _general(data, dedupe=False):
    with mock.patch.object(graphs, "_token_edges", return_value=None):
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

# Lines that spoil a list of the integer grammar, each built around ids a, b, c
# and a separator.
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
# The spoilers that keep two printable-ASCII tokens on every line: the token
# path keys their ids as bytes. It must take the list when no id is longer
# than 8 bytes; beyond that its size guard decides.
KEYED = {
    "v second", "007 beside 7", "leading zero", "19 digits", "20 digits", "letter id",
    "v leading a token", "v ending a token", "v twice", "sign",
}


@st.composite
def _integer_line(draw, pairs):
    """A line of the integer grammar; ``pairs`` collects the edges written."""
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
    """Text of an edge list and whether the token path must take it.

    Half the lists hold only lines of the integer grammar; the other half
    add one line from ``SPOILERS`` at a random place. The token path must
    take the clean lists and decline every spoiler outside ``KEYED``; None
    leaves a list with a keyed id longer than 8 bytes to the size guard.
    """
    pairs = []
    lines = draw(st.lists(_integer_line(pairs), max_size=14))
    accept = draw(st.booleans())
    if not accept:
        name = draw(st.sampled_from(sorted(SPOILERS)))
        line = SPOILERS[name](draw(IDS), draw(IDS), draw(IDS), draw(SEP))
        lines.insert(draw(st.integers(0, len(lines))), line)
        if name in KEYED:
            longest = max(len(t) for body in lines for t in body.split("#")[0].split())
            accept = True if longest <= 8 else None
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
    if accept is not None:
        assert (graphs._token_edges(data) is not None) == accept, text
    assert _outcome(nh.load_edge_list, data, dedupe) == _outcome(_general, data, dedupe)


@PATHS
@given(edge_lists(), st.booleans(), st.booleans())
def test_both_paths_match_reference_rule_loop(case, dedupe, as_bytes):
    text, _ = case
    data = text.encode("utf-8") if as_bytes else text
    expected = _outcome(reference_load, data, dedupe)
    assert _outcome(nh.load_edge_list, data, dedupe) == expected
    assert _outcome(_general, data, dedupe) == expected


# Any printable-ASCII token: "#" would start a comment.
TOKEN_TEXT = st.text(
    alphabet=[chr(b) for b in range(0x21, 0x7F) if chr(b) != "#"], min_size=1, max_size=12
)
TOKENS = st.one_of(
    TOKEN_TEXT,
    st.integers(0, 10**6).map(str),
    st.integers(0, 10**4).map(lambda k: f"u{k}"),
    st.sampled_from(["v", "007", "7", "u1234567", "u12345678", "abcdefgh", "abcdefghi"]),
)


@st.composite
def token_lists(draw):
    """Text of an edge list of printable-ASCII ids, and whether the token path must take it.

    The ids come from a small pool, so self-loops and repeated edges are
    common, and "v" is drawn as a first and as a second token. Most lines
    hold two tokens; some hold none, one or three. The token path must
    take a list of zero or two tokens on every line and no id longer than
    8 bytes, and decline a list with a line of one or three tokens; None
    leaves the others to its size guard.
    """
    pool = draw(st.lists(TOKENS, min_size=1, max_size=6, unique=True))
    ids = st.sampled_from(pool + ["v"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        count = draw(st.sampled_from([2, 2, 2, 2, 2, 0, 1, 3]))
        lines.append([draw(ids) for _ in range(count)])
    text = ""
    for tokens in lines:
        line = draw(BLANK) + draw(SEP).join(tokens) + draw(BLANK)
        if draw(st.booleans()):
            line += draw(COMMENT)
        text += line + draw(LINE_END)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    if any(len(tokens) in (1, 3) for tokens in lines):
        return text, False
    if all(len(t) <= 8 for tokens in lines for t in tokens):
        return text, True
    return text, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(token_lists(), st.booleans(), st.booleans())
@example(("u1 v\nv v\nv u2\nu1 u2\n", True), False, True)
@example(("007 7\nabcdefgh 7\nabcdefghi 007\n", None), False, False)
@example(("u1 u2\nu2\n", False), False, True)
def test_token_path_matches_general_path_and_reference(case, dedupe, as_bytes):
    text, accept = case
    data = text.encode("ascii") if as_bytes else text
    if accept is not None:
        assert (graphs._token_edges(data) is not None) == accept, text
    expected = _outcome(reference_load, data, dedupe)
    assert _outcome(nh.load_edge_list, data, dedupe) == expected
    assert _outcome(_general, data, dedupe) == expected


class TestTokenPath:
    def test_string_ids_take_it(self):
        data = b"# users\nu1 u22\nu22 v\nv u333\nv v\n"
        assert graphs._token_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == ("u1", "u22", "v", "u333")
        assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("width", [7, 8, 9, 12])
    def test_ids_on_both_sides_of_eight_bytes(self, width):
        a, b, c = ("abcdefghijk"[: width - 1] + end for end in "xyz")
        data = f"{a} {b}\n{b} {c}\n{c}\t{a}\nv {a}\n"
        assert graphs._token_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == (a, b, c)
        assert g.degrees.tolist() == [2, 2, 2]

    def test_wide_ids_beyond_the_file_size_decline(self):
        data = "a b\n" * 10 + "abcdefghijkl b\n"  # 22 ids 12 bytes wide: 264 > 52 bytes
        assert graphs._token_edges(data) is None
        assert _outcome(nh.load_edge_list, data, True) == _outcome(reference_load, data, True)


class TestIntegerPath:
    def test_snap_style_file_takes_it(self):
        data = b"# Nodes: 4 Edges: 3\r\n# FromNodeId\tToNodeId\r\n0\t5\r\n5\t12\r\n12\t0\r\nv 7\r\n"
        assert graphs._token_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == ("0", "5", "12", "7")
        assert g.degrees.tolist() == [2, 2, 2, 0]

    def test_sparse_ids_fall_back_to_unique(self):
        g = nh.load_edge_list("900000000000 3\n3 17\nv 5000000000\n17 900000000000\n")
        assert g.labels == ("900000000000", "3", "17", "5000000000")
        assert list(zip(g.edges_u.tolist(), g.edges_v.tolist())) == [(0, 1), (1, 2), (2, 0)]

    def test_non_integer_id_anywhere_keeps_the_token_path(self):
        data = b"1 2\n2 3\n3 x\n"
        assert graphs._token_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == ("1", "2", "3", "x")
        assert g.m == 3

    def test_leading_zero_ids_stay_distinct(self):
        data = b"007 7\n7 8\n"
        assert graphs._token_edges(data) is not None
        g = nh.load_edge_list(data)
        assert g.labels == ("007", "7", "8")
        assert g.degrees.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("data", [b"", b"\n\n", b"# only\r\n  # comments\n", b"   \t\n"])
    def test_empty_and_comment_only_files(self, data):
        assert graphs._token_edges(data) is not None
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
