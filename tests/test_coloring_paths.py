"""The vectorized token path of the coloring loader against the general line loop.

``load_coloring`` takes the token path when every graph label is one token
of printable ASCII and every line is one such id, a tab and one label;
patching ``_token_coloring`` to decline forces the general path on the same
bytes, so the two can be compared on any input. Both are also compared with
``reference_load_coloring`` from ``test_colorings.py``, a line-by-line rule
loop that shares no code with the library.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh
from nethom import colorings, graphs
from test_colorings import reference_load_coloring

PATHS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# eight vertices with canonical decimal labels, so that more than five can be missing
EDGES = "3 10\n10 0\n0 7\n7 3\nv 12\nv 5\nv 100\nv 1\n"
VIDS = ("3", "10", "0", "7", "12", "5", "100", "1")


def _graph():
    """A fresh graph for every load, so that no load sees an index another one built."""
    g = nh.load_edge_list(EDGES)
    assert g.labels == VIDS
    return g


def _general(data, graph):
    with mock.patch.object(colorings, "_token_coloring", return_value=None):
        return nh.load_coloring(data, graph)


def _reference(data, graph):
    return reference_load_coloring(data.decode("utf-8") if isinstance(data, bytes) else data, graph)


def _outcome(load, data, graph=_graph):
    """The assignment and class labels, or the error's class, message and line.

    ``graph`` makes a fresh graph for the load.
    """
    try:
        f = load(data, graph())
    except (nh.ColoringError, UnicodeDecodeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(f, nh.Coloring):
        a = f.assignment
        assert (a.dtype, a.flags.c_contiguous, a.flags.writeable) == (np.int32, True, False)
        return a.tolist(), f.class_labels
    return list(f[0]), f[1]


LABELS = st.sampled_from(["red", "blue", "c1", "c12", "0", "R", "x_y", "~!"])
LEAD = st.sampled_from(["", "", " ", "  "])  # blanks before the id hold no tab
MID = st.sampled_from(["\t", "\t", " \t", "\t ", "\t\t", "  \t \t "])
TRAIL = st.sampled_from(["", "", " ", "\t", " \t "])
BLANK = st.sampled_from(["", " ", "\t", " \t "])
COMMENT = st.text(alphabet="ab 0\t#", max_size=6).map(lambda t: "#" + t)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])

# Ways to rewrite the line of vertex v with label lab that the token path must decline.
SPOILERS = {
    "leading-zero id": lambda v, lab: "0" + v + "\t" + lab,
    "unknown id": lambda v, lab: "99\t" + lab,
    "non-decimal id": lambda v, lab: v + "x\t" + lab,
    "colon id": lambda v, lab: ":\t" + lab,  # ":" follows "9": read as a digit, it would be 10
    "signed id": lambda v, lab: "+" + v + "\t" + lab,
    "19-digit id": lambda v, lab: "1234567890123456789\t" + lab,
    "tab before the id": lambda v, lab: "\t" + v + "\t" + lab,
    "missing tab": lambda v, lab: v + " " + lab,
    "lone id": lambda v, lab: v,
    "empty label": lambda v, lab: v + "\t",
    "label with an inner space": lambda v, lab: v + "\t" + lab + " " + lab,
    "label after a second tab": lambda v, lab: v + "\t" + lab + "\t" + lab,
    "non-ASCII label": lambda v, lab: v + "\tcaf\xe9",
    "unit separator after the label": lambda v, lab: v + "\t" + lab + "\x1f",
}
# Line ends str.splitlines() knows that the token path declines.
ODD_LINE_ENDS = ["\x0b", "\x0c", "\x1c"]

# Every way to spoil a text; None leaves it clean.
KINDS = [None] + sorted(SPOILERS) + ["odd line end", "missing", "repeated", "renamed"]


@st.composite
def coloring_texts(draw, kind):
    """Text of a coloring of ``VIDS``, spoiled as ``kind`` says.

    A clean text is a complete coloring the token path takes, with
    blanks, comments and any of LF, CRLF and CR. A spoiled one changes one
    thing: a line from ``SPOILERS``, an odd line end, missing vertices, a
    repeated vertex, or one vertex named in place of another.
    """
    vids = draw(st.permutations(VIDS))
    lines = [draw(LEAD) + v + draw(MID) + draw(LABELS) + draw(TRAIL) for v in vids]
    ends = [draw(LINE_END) for _ in lines]
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "odd line end":
        ends[at] = draw(st.sampled_from(ODD_LINE_ENDS))
    elif kind == "missing":
        for _ in range(draw(st.sampled_from([1, 2, 6]))):
            del lines[at % len(lines)], ends[at % len(ends)]
    elif kind == "repeated":
        lines.insert(draw(st.integers(0, len(lines))), draw(LEAD) + vids[at] + "\t" + draw(LABELS))
        ends.append("\n")
    elif kind == "renamed":  # one vertex named twice and another not at all, on n lines
        lines[at] = vids[at - 1] + "\t" + draw(LABELS)
    elif kind is not None:
        lines[at] = SPOILERS[kind](vids[at], draw(LABELS))
    text = ""
    for line, end in zip(lines, ends):
        if draw(st.booleans()):
            line += draw(BLANK) + draw(COMMENT)  # a comment after the line
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            text += draw(st.one_of(BLANK, COMMENT)) + draw(LINE_END)  # a blank or comment line
        text += line + end
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


@pytest.mark.parametrize("kind", KINDS)
@PATHS
@given(data=st.data())
def test_three_loaders_agree(kind, data):
    text = data.draw(coloring_texts(kind), label="text")
    encoded = text.encode("utf-8") if data.draw(st.booleans(), label="as bytes") else text
    g = _graph()
    # the token path takes exactly the clean texts, and never builds the index
    assert (colorings._token_coloring(encoded, g) is not None) == (kind is None)
    assert "index" not in g.__dict__
    expected = _outcome(_reference, encoded)
    assert _outcome(nh.load_coloring, encoded) == expected
    assert _outcome(_general, encoded) == expected


@pytest.mark.parametrize("text", ["", "3\t0\n10\t0\n0\t0\n7\t0\n12\t0\n5\t0\n100\t0\n1\t0"])
def test_empty_file_and_one_class(text):
    assert (colorings._token_coloring(text, _graph()) is not None) == bool(text)
    expected = _outcome(_reference, text)
    assert _outcome(nh.load_coloring, text) == expected == _outcome(_general, text)


# Graph labels of printable ASCII, on both sides of 8 bytes, and labels the
# token path must decline: one with a space, an empty one, a non-ASCII one.
TOKEN_LABELS = st.one_of(
    st.text(alphabet=[chr(b) for b in range(0x21, 0x7F) if chr(b) != "#"], min_size=1, max_size=12),
    st.integers(0, 10**4).map(lambda k: f"u{k}"),
    st.sampled_from(["v", "007", "7", "abcdefgh", "abcdefghi"]),
)
DECLINED_LABELS = ["a b", "", "caf\xe9"]
CLASSES = st.sampled_from(["red", "c1", "0", "007", "abcdefgh", "abcdefghi", "community-12"])
STRING_KINDS = [None, "missing", "repeated", "unknown id", "missing tab"]


@st.composite
def string_colorings(draw):
    """A graph's labels, a coloring text for it, and whether the token path must take it.

    The labels are distinct printable-ASCII tokens, or hold one label from
    ``DECLINED_LABELS``. The text names every vertex once, with blanks,
    comments and any of LF, CRLF and CR, or is spoiled as one of
    ``STRING_KINDS`` says. The token path must take a clean text for a
    graph of tokens when no label or id is longer than 8 bytes, and decline
    every spoiled text and every graph with a declined label; None leaves
    the others to its size guard.
    """
    labels = draw(st.lists(TOKEN_LABELS, min_size=1, max_size=8, unique=True))
    declined = draw(st.sampled_from([None, None, None] + DECLINED_LABELS))
    if declined is not None and declined not in labels:
        labels[draw(st.integers(0, len(labels) - 1))] = declined
    kind = draw(st.sampled_from(STRING_KINDS))
    vids = draw(st.permutations(labels))
    classes = [draw(CLASSES) for _ in vids]
    lines = [draw(LEAD) + v + draw(MID) + c + draw(TRAIL) for v, c in zip(vids, classes)]
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "missing":
        del lines[at]
    elif kind == "repeated":
        lines.insert(draw(st.integers(0, len(lines))), vids[at] + "\t" + classes[at])
    elif kind == "unknown id":
        lines[at] = "zz" + vids[at] + "zz\t" + classes[at]
    elif kind == "missing tab":
        lines[at] = vids[at] + " " + classes[at]
    text = ""
    for line in lines:
        if draw(st.booleans()):
            line += draw(BLANK) + draw(COMMENT)
        text += line + draw(LINE_END)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if declined is not None or kind is not None:
        return tuple(labels), text, False
    return tuple(labels), text, all(len(t) <= 8 for t in labels + classes) or None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(string_colorings(), st.booleans())
def test_string_id_graphs_three_loaders_agree(case, as_bytes):
    labels, text, accept = case
    encoded = text.encode("utf-8") if as_bytes else text

    def graph():
        return nh.Graph.from_edges(len(labels), [], labels=labels)

    g = graph()
    taken = colorings._token_coloring(encoded, g)
    assert "index" not in g.__dict__
    if accept is not None:
        assert (taken is not None) == accept, (labels, text)
    expected = _outcome(_reference, encoded, graph)
    assert _outcome(nh.load_coloring, encoded, graph) == expected
    assert _outcome(_general, encoded, graph) == expected


def test_string_ids_never_reach_a_line_loop():
    """A small ``u<k>`` edge list and coloring load with both line loops disabled."""
    edges = "".join(f"u{i} u{i + 1}\n" for i in range(12)) + "v loner\n"
    text = "".join(f"u{i}\tclass-{i % 3}\n" for i in range(13)) + "loner\tsolo-vertex\n"

    def refuse(*args):
        raise AssertionError("a line loop ran")

    with mock.patch.object(graphs, "_scan", refuse), mock.patch.object(nh.Graph, "index", property(refuse)):
        g = nh.load_edge_list(edges)
        f = nh.load_coloring(text, g)
    assert g.labels == tuple(f"u{i}" for i in range(13)) + ("loner",)
    assert f.class_labels == ("class-0", "class-1", "class-2", "solo-vertex")
    assert f.assignment.tolist() == [i % 3 for i in range(13)] + [3]
