"""The token paths read a text in chunks cut after line ends; where the cuts fall must not matter.

``graphs._CHUNK`` is patched down to a few bytes, so that cuts fall after
nearly every line end: between the CR and the LF of a pair, before a line
longer than a chunk, next to blank lines, "v" lines and the places comments
were cut from. Every loader, and every token path, must return what it
returns with the default chunk size, on the case tables of the path tests
and on inputs built around those cuts.
"""

from unittest import mock

import numpy as np
import pytest

import nethom as nh
from nethom import colorings, graphs
import test_coloring_paths as coloring_paths
import test_edge_list_paths as edge_paths

CHUNKS = [1, 3, 7, 64]


def _arrays(value):
    """A token path's result with every array as its dtype and entries."""
    if value is None:
        return None
    if isinstance(value, nh.Coloring):
        value = (value.assignment, value.class_labels)
    return tuple((a.dtype.str, a.tolist()) if isinstance(a, np.ndarray) else a for a in value)


def _edge_outcomes(data):
    return (
        _arrays(graphs._token_edges(data)),
        edge_paths._outcome(nh.load_edge_list, data, False),
        edge_paths._outcome(nh.load_edge_list, data, True),
    )


def _coloring_outcomes(data, graph):
    """The token path's coloring and the loader's, each against a fresh copy of ``graph``."""
    return (
        _arrays(colorings._token_coloring(data, graph())),
        coloring_paths._outcome(nh.load_coloring, data, graph),
    )


def _same_at_every_chunk_size(outcomes, *args):
    want = outcomes(*args)
    for size in CHUNKS:
        with mock.patch.object(graphs, "_CHUNK", size):
            assert outcomes(*args) == want, size
    return want


# Inputs built around the cuts: each holds what its name says, with LF,
# CR LF and CR line ends.
AROUND_CUTS = {
    "CR LF pairs": "1 2\r\n2 3\r\n\r\n3 4\r\nv 9\r\n",
    "lone CRs": "1 2\r2 3\r\r3 4\rv 9\r",
    "a line longer than a chunk": "1234567890123 2\n2 98765432109876543210\nv 3\n",
    "long lines of short ids": "1" + " " * 70 + "2\n2\t\t\t\t\t\t\t\t\t\t3\n",
    "comments across cuts": "# a header longer than the chunks\n1 2 # a comment\n# another\n2 3\n",
    "a comment between CR and LF": "1 2\r# c\n2 3\r#\n3 4\n",
    "a self-loop after a comment between CR and LF": "1 2\r# c\n2 3\r#\n3 3\n",
    "v lines": "v 5\nv 6\n5 6\nv 7\nv v\nu v\n",
    "blank lines": "\n\n1 2\n  \n\t\n2 3\n\n \r\n\r\n3 1\n\n",
    "no final line end": "1 2\n2 3\n3 4",
    "no final line end, CR": "1 2\r2 3",
    "a last line of one token": "1 2\n2 3\n4",
    "three tokens on a line after a cut": "1 2\n2 3\n3 4 5\n",
    "string ids": "u1 u22\nu22 v\nv u333\nabcdefghijk u1\n",
    "a self-loop": "1 2\n2 3\n3 3\n",
    "a repeated edge": "1 2\r\n2 3\r\n3 1\r\n2 1\r\n",
    # Ids that stop being canonical decimals after the first block of tokens, at every
    # chunk size: the block path falls back to keying every token in the middle of the file.
    "a leading zero late": "".join(f"{i} {i + 1}\n" for i in range(1, 50)) + "7 007\n3 9\n",
    "a 10-digit id late": "".join(f"{i} {i + 1}\n" for i in range(1, 50)) + "1234567890 5\n5 6\n",
    "u1 in a late v line": "".join(f"{i}\t{i + 1}\r\n" for i in range(1, 50)) + "v 60\r\nv u1\r\n",
    "a repeated edge after a late fall-back": "".join(f"{i} {i + 1}\n" for i in range(1, 50)) + "v x\n2 1\n",
    # a "v" line at a block boundary, whichever chunk size
    "a v line on a block boundary": "".join(f"{i} {i + 1}\nv {i + 100}\n" for i in range(1, 50)),
}
LATE = ["a leading zero late", "a 10-digit id late", "u1 in a late v line", "a repeated edge after a late fall-back"]


def _spoiled(name):
    """A clean integer edge list with one line from the edge path tests' spoilers."""
    return "1 2\n2 3\nv 9\n" + edge_paths.SPOILERS[name]("12", "345", "6", "\t") + "\n3 1\n"


EDGE_TEXTS = {
    **AROUND_CUTS,
    **{f"spoiler: {name}": _spoiled(name) for name in sorted(edge_paths.SPOILERS)},
    **{f"above a bad byte: {name}": above for name, above in edge_paths.ABOVE_A_BAD_BYTE.items()},
    "comments where they stand": "# a header\n# of two lines\n" + edge_paths.BODY + "# between\n" + edge_paths.BODY2,
}


@pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS)
def test_edge_lists(text):
    outcomes = _same_at_every_chunk_size(_edge_outcomes, text)
    assert outcomes[1] == edge_paths._outcome(edge_paths.reference_load, text, False)
    _same_at_every_chunk_size(_edge_outcomes, text.encode("utf-8"))
    # a byte that is not UTF-8 on one more line: the first bad line is reported
    _same_at_every_chunk_size(_edge_outcomes, text.encode("utf-8") + b"x \xe9\n")


def test_edge_lists_are_read_by_the_token_path():
    """The inputs around the cuts that hold two tokens on every line take the token path."""
    declined = {"a last line of one token", "three tokens on a line after a cut"}
    for name, text in AROUND_CUTS.items():
        for size in CHUNKS:
            with mock.patch.object(graphs, "_CHUNK", size):
                assert (graphs._token_edges(text) is None) == (name in declined), (name, size)


@pytest.mark.parametrize("name", LATE)
def test_the_block_path_falls_back_in_the_middle_of_the_file(name):
    """Decimal blocks are keyed before the one with an id of another form, at every chunk size."""
    decimals = graphs._decimals
    calls = []

    def spy(*args):
        keys = decimals(*args)
        calls.append(keys is not None)
        return keys

    for size in CHUNKS:
        calls.clear()
        with mock.patch.object(graphs, "_CHUNK", size), mock.patch.object(graphs, "_decimals", spy):
            assert graphs._token_edges(AROUND_CUTS[name]) is not None
        assert calls[0] and not calls[-1], (size, calls)


def _block_path(text):
    """What the block path gives ``text``, or None where it does not key every block as decimals."""
    decimals, keyed = graphs._decimals, []

    def spy(*args):
        keys = decimals(*args)
        keyed.append(keys is not None)
        return keys

    with mock.patch.object(graphs, "_decimals", spy):
        result = graphs._token_edges(text)
    return _arrays(result) if result is not None and all(keyed) else None


def test_decimal_ids_forced_down_the_rank_path_are_numbered_alike():
    """With ``_decimals`` keying nothing, every decimal input is keyed by ``_ranks`` over the whole text.

    The one first-appearance numbering must give the same id text, dtypes
    and endpoint arrays whichever keys it is fed, at every chunk size.
    """
    forced = set()
    for name, text in EDGE_TEXTS.items():
        for size in CHUNKS:
            with mock.patch.object(graphs, "_CHUNK", size):
                want = _block_path(text)
                if want is None:
                    continue
                with mock.patch.object(graphs, "_decimals", lambda *args: None):
                    assert _arrays(graphs._token_edges(text)) == want, (name, size)
            forced.add(name)
    assert {"CR LF pairs", "lone CRs", "a v line on a block boundary", "comments where they stand"} <= forced
    assert not forced & {"string ids", *LATE}


def _coloring(lines, ends):
    return "".join(line + end for line, end in zip(lines, ends))


VIDS = coloring_paths.VIDS
CLEAN = ["  " + v + " \t c" + str(i % 3) + "  " for i, v in enumerate(VIDS)]  # blanks around each field
COLORING_TEXTS = {
    "LF": _coloring(CLEAN, ["\n"] * len(VIDS)),
    "CR LF": _coloring(CLEAN, ["\r\n"] * len(VIDS)),
    "CR": _coloring(CLEAN, ["\r"] * len(VIDS)),
    "tabs only": "".join(f"{v}\tclass-{i % 2}\n" for i, v in enumerate(VIDS)),
    "several tabs": "".join(f"{v} \t\t  \t{'x' * 70}{i % 2}\r\n" for i, v in enumerate(VIDS)),
    "comments and blank lines": "# vertex\tclass\n\n"
    + "".join(f"{v}\tc{i % 3} # a comment\n\r\n# c\n" for i, v in enumerate(VIDS)),
    "a comment between CR and LF": "".join(f"{v}\tc{i % 3}\r#\n" for i, v in enumerate(VIDS)),
    "an unknown id after comments between CR and LF": "".join(f"{v}\tc\r#\n" for v in VIDS) + "x\tc\n",
    "no final line end": "".join(f"{v}\tc{i % 3}\n" for i, v in enumerate(VIDS)).rstrip("\n"),
    "a tab before an id": "\t" + "".join(f"{v}\tc\n" for v in VIDS),
    "a tab before an id after a cut": "".join(f"{v}\tc\n" for v in VIDS[:-1]) + " \t" + VIDS[-1] + "\tc\n",
    "a trailing tab": "".join(f"{v}\tc\t\n" for v in VIDS),
    "a space, no tab": "".join(f"{v}\tc\n" for v in VIDS[:-1]) + VIDS[-1] + " c\n",
    **{
        f"spoiler: {name}": _coloring(
            [spoil(v, "red") if v == VIDS[3] else f"{v}\tred" for v in VIDS], ["\n"] * len(VIDS)
        )
        for name, spoil in sorted(coloring_paths.SPOILERS.items())
    },
    **{f"above a bad byte: {name}": above for name, above in coloring_paths.ABOVE_A_BAD_BYTE.items()},
}


@pytest.mark.parametrize("text", COLORING_TEXTS.values(), ids=COLORING_TEXTS)
def test_colorings(text):
    graph = coloring_paths._graph
    outcomes = _same_at_every_chunk_size(_coloring_outcomes, text, graph)
    assert outcomes[1] == coloring_paths._outcome(coloring_paths._reference, text)
    _same_at_every_chunk_size(_coloring_outcomes, text.encode("utf-8"), graph)
    _same_at_every_chunk_size(_coloring_outcomes, text.encode("utf-8") + b"3\t\xe9\n", graph)


@pytest.mark.parametrize("kind", sorted(coloring_paths.KEPT_TEXT_IDS))
def test_colorings_of_kept_id_texts(kind):
    """Graphs whose id text came from the token path, with ids of every kind."""
    ids = coloring_paths.KEPT_TEXT_IDS[kind]
    edges = "".join(f"{ids[i]} {ids[(3 * i + 1) % len(ids)]}\r\n" for i in range(len(ids)))
    text = "".join(f"{v}\tclass-{i % 3}\n" for i, v in enumerate(reversed(ids)))
    _same_at_every_chunk_size(_edge_outcomes, edges)

    def graph():
        return nh.load_edge_list(edges)

    assert _same_at_every_chunk_size(_coloring_outcomes, text, graph)[0] is not None


def test_the_clean_colorings_take_the_token_path():
    """At every chunk size the token path takes the clean colorings and declines the others."""
    taken = {"LF", "CR LF", "CR", "tabs only", "several tabs", "comments and blank lines",
             "a comment between CR and LF", "no final line end", "a trailing tab"}
    for name in COLORING_TEXTS:
        for size in CHUNKS:
            with mock.patch.object(graphs, "_CHUNK", size):
                token = colorings._token_coloring(COLORING_TEXTS[name], coloring_paths._graph())
            assert (token is not None) == (name in taken), (name, size)


def _stream(text, tabbed, size):
    """The blocks of ``_token_blocks`` joined as ``_tokenize`` returns them, or None where the stream declines.

    Every block must be whole lines: its token count is even, and a line
    end stands between its last token and the next block's first.
    """
    data = graphs._utf8(text)
    if data is None:
        return None
    starts, lengths, last = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)], None
    for block in graphs._token_blocks(data, tabbed, size):
        if block is None:
            return None
        start, length = block
        assert start.size and start.size % 2 == 0
        if last is not None:
            assert graphs._LINE_END.search(data, last, int(start[0])), (last, int(start[0]))
        last = int(start[-1] + length[-1])
        starts.append(start)
        lengths.append(length)
    return np.frombuffer(data, dtype=np.uint8), np.concatenate(starts), np.concatenate(lengths)


@pytest.mark.parametrize("tabbed", [False, True], ids=["edges", "tabbed"])
def test_tokenize_is_the_one_stream_joined(tabbed):
    """``_tokenize`` is the blocks of ``_token_blocks`` joined, at both block sizes, and both decline alike.

    At either size the first block is the first piece with a token, as it is cut.
    """
    texts = [*EDGE_TEXTS.values(), *COLORING_TEXTS.values()]
    texts += [text.encode("utf-8") + bad for text in texts for bad in (b"x \xe9\n", b"3\t\xe9\n")]
    taken = set()
    for text in texts:
        for chunk in [*CHUNKS, graphs._CHUNK]:
            with mock.patch.object(graphs, "_CHUNK", chunk):
                want = _arrays(graphs._tokenize(text, tabbed))
                for size in (1, chunk):
                    assert _arrays(_stream(text, tabbed, size)) == want, (text, chunk, size)
                if want is not None and want[1][1]:  # a stream with a token has a first block
                    data = graphs._utf8(text)
                    first = [_arrays(next(graphs._token_blocks(data, tabbed, size))) for size in (1, chunk)]
                    assert first[0] == first[1], (text, chunk)
            if want is not None:
                taken.add(text)
    assert (COLORING_TEXTS["CR LF"] if tabbed else EDGE_TEXTS["CR LF pairs"]) in taken
