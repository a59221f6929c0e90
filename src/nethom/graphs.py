"""Simple undirected graphs and the degree statistics driving the coloring model.

A :class:`Graph` is immutable once built: external vertex ids are mapped to
dense indices in first-appearance order, edges are stored as parallel index
arrays, and every summary quantity is accumulated with exact integers before
any division happens. The scalar invariant computed by
:func:`gamma_invariant` is the common scale factor of all between-class
covariances of the homophilic-count vector; its sign is a property of the
graph alone.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property
from fractions import Fraction
from typing import IO, Iterable, Union

import numpy as np

__all__ = [
    "Graph",
    "GraphSummary",
    "EdgeListError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "MalformedLineError",
    "load_edge_list",
    "summarize",
    "gamma_invariant",
    "dispersion_margin",
]

TextSource = Union[str, bytes, IO]


class EdgeListError(ValueError):
    """Invalid edge-list input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SelfLoopError(EdgeListError):
    pass


class DuplicateEdgeError(EdgeListError):
    pass


class MalformedLineError(EdgeListError):
    pass


class _Signature:
    """A record class's ``__signature__``: its fields in order, with their annotations."""

    def __get__(self, record, cls):
        import inspect  # only when a caller asks, as inspect.signature and help() do

        kind, notes = inspect.Parameter.POSITIONAL_OR_KEYWORD, cls.__annotations__
        params = [inspect.Parameter(field, kind, annotation=notes[field]) for field in cls._fields]
        return inspect.Signature(params)


class _Record:
    """The frozen record types' base: the fields are the annotations of the class body, in order.

    ``__init__`` takes one value per field, positionally or by keyword, with
    no defaults; a missing, unknown or repeated field raises ``TypeError``
    naming it. It sets every ndarray it is given read-only, in place. A
    subclass defines ``__init__`` only to check or normalise its values.
    Assigning or deleting any attribute raises ``AttributeError``, and the
    repr lists the fields in order. A record compares and hashes by the
    values of its fields, unless its class is declared with ``eq=False``,
    which keeps identity. Fields compare as tuple items do, by identity and
    then ``==``, except that an ndarray field compares by shape and entries;
    so, as in dataclasses, a nan field makes two records unequal unless both
    hold the same object. A record with an ndarray field is unhashable.
    ``__match_args__`` and ``inspect.signature`` list the fields. Nothing is
    generated at import: a record type costs what a plain class costs.
    """

    _fields: tuple[str, ...] = ()
    __signature__ = _Signature()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if not rest or kwargs.keys() != set(rest):  # a field missing, unknown or given twice
                try:
                    type(self).__signature__.bind(*args, **kwargs)
                except TypeError as exc:
                    raise TypeError(f"{type(self).__name__}(): {exc}") from None
            args += tuple(map(kwargs.__getitem__, rest))
        for value in args:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(zip(fields, args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self) -> int:
        return hash(self._values())


class _Labels:
    """The ``labels`` field of :class:`Graph`, split from the kept id text on first access.

    A vectorized load (:func:`_token_edges`) gives the graph None for
    ``labels`` and keeps the text of its ids instead; the label strings are
    split from that text the first time they are read.
    """

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        labels = graph.__dict__["labels"]
        if labels is None and "_id_text" in graph.__dict__:
            labels = graph.__dict__["labels"] = tuple(graph._id_text.decode("ascii").splitlines())
        return labels

    def __set__(self, graph, labels):  # a data descriptor, so it is read before the instance dict
        graph.__dict__["labels"] = labels


class Graph(_Record, eq=False):
    """Immutable simple undirected graph on dense vertex indices 0..n-1.

    Invariants: no self-loops, no duplicate edges, all endpoints in range,
    and sum(degrees) == 2*m. :meth:`from_edges` and :func:`load_edge_list`
    enforce them, both through the one simple-graph check
    :func:`_simple_edges`; the constructor itself checks nothing. Safe for
    concurrent read access; the edge and degree arrays are write-protected.

    A graph keeps its vertex ids in two forms, each built once from the
    other when first needed: ``labels``, the id strings, and the private
    ``_id_text``, the ids as ASCII lines, one per vertex, which a coloring
    keys together with its own ids. A vectorized load keeps the text of its
    ids and leaves ``labels`` to be split from it on first access; any other
    graph joins its labels when a coloring first needs them.
    """

    n: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    degrees: np.ndarray
    labels: tuple[str, ...] | None = _Labels()

    @property
    def m(self) -> int:
        return int(self.edges_u.shape[0])

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @cached_property
    def index(self) -> dict[str, int]:
        """External id -> dense index, built on first access."""
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _id_text(self) -> bytes | None:
        """The labels joined as ASCII lines, one per vertex; None unless each is a printable token."""
        text = "\n".join(self.labels + ("",))  # a line end after every label
        if not text.isascii():
            return None
        text = text.encode("ascii")
        if text.translate(None, _LABEL_BYTES) or text.count(b"\n") != self.n or b"\n\n" in b"\n" + text:
            return None  # a label that is empty, not printable or not one token
        return text

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: tuple[str, ...] | None = None,
        dedupe: bool = False,
    ) -> "Graph":
        """Build a graph from index pairs under the rules of :func:`load_edge_list`.

        Every endpoint must be an integer (one that ``operator.index``
        accepts) in 0..n-1. A self-loop or a repeated edge raises, unless
        ``dedupe`` is set, which keeps the first copy of each edge;
        :func:`_simple_edges` is the check. The error names the first bad
        pair. An (m, 2) array of integer dtype is checked as it is; any
        other ``edges`` is read pair by pair. ``labels``, one distinct id
        string per vertex, default to "0".."n-1" and are kept as a tuple.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        labels = tuple(map(str, range(n)) if labels is None else labels)
        if len(labels) != n:
            raise ValueError("labels must have length n")
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"label {label!r} is not a string")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        pairs = edges  # an (m, 2) integer array is checked as it is
        if not (
            isinstance(edges, np.ndarray) and edges.dtype.kind in "biu" and edges.shape[1:] == (2,)
        ):
            edges = list(edges)
            pairs = np.array(edges).reshape(len(edges), 2)
        if pairs.dtype.kind not in "biu":  # a non-integer endpoint, or one beyond int64
            ints = []
            for pair in edges:
                try:
                    ints.append(tuple(map(operator.index, pair)))
                except TypeError:
                    break
            pairs = np.array(ints, dtype=object).reshape(len(ints), 2)
        outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        stop = int(outside[0]) if outside.size else len(pairs)
        # a bad pair above the first out-of-range or non-integer one is reported first
        eu, ev, k = _simple_edges(
            n, pairs[:stop, 0].astype(np.int32), pairs[:stop, 1].astype(np.int32), dedupe
        )
        if k is not None:
            u, v = pairs[k].tolist()
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        if stop < len(pairs):
            u, v = pairs[stop].tolist()
            raise EdgeListError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if stop < len(edges):
            u, v = edges[stop]
            raise EdgeListError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        return _graph(n, labels, eu, ev)


def _graph(n: int, labels: tuple[str, ...] | None, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """The :class:`Graph` of edges that passed :func:`_simple_edges`."""
    degrees = (np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)).astype(np.int64)
    return Graph(n=n, edges_u=eu, edges_v=ev, degrees=degrees, labels=labels)


def _simple_edges(
    n: int, eu: np.ndarray, ev: np.ndarray, dedupe: bool
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The simple-graph check on dense endpoint arrays over n vertices.

    Returns ``(eu, ev, k)``. ``k`` is the position of the first edge that
    breaks a rule, or None: a self-loop breaks one, and so does a repeat of
    an earlier edge, in either orientation, unless ``dedupe`` is set. When
    ``k`` is None and ``dedupe`` is set, only the first copy of each edge is
    kept; otherwise the arrays come back as given.
    """
    loop = eu == ev
    packed = np.minimum(eu, ev).astype(np.int64)
    packed *= n
    packed += np.maximum(eu, ev)
    sorted_packed = np.sort(packed)
    if not (loop.any() or (sorted_packed[1:] == sorted_packed[:-1]).any()):
        return eu, ev, None
    first = np.zeros(packed.size, dtype=bool)
    first[np.unique(packed, return_index=True)[1]] = True
    bad = loop if dedupe else loop | ~first
    if bad.any():
        return eu, ev, int(bad.argmax())
    return eu[first], ev[first], None


def _read(source: TextSource) -> str | bytes:
    """The text or bytes of ``source``, without one leading UTF-8 byte-order mark."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.removeprefix(b"\xef\xbb\xbf" if isinstance(data, bytes) else "\ufeff")


def _decode(data: str | bytes) -> str:
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _undecodable(exc: UnicodeDecodeError) -> tuple[str, int, str]:
    """The first byte that is not UTF-8: its message, its line, and the complete lines above it.

    Lines are counted as ``str.splitlines()`` counts them; the lines above
    come back as one text, which the caller's line pass reads first, so that
    a bad line above the byte is reported ahead of it.
    """
    valid = exc.object[: exc.start].decode("utf-8")
    lines = (valid + "#").splitlines()  # the "#" stands on the bad byte's line
    message = f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    return message, len(lines), "\n".join(lines[:-1])


def _scan(text: str, dedupe: bool) -> Graph:
    """The edge-list line pass: the graph of the lines of ``text``, or the error of the first bad line.

    '#' starts a comment and blank lines are skipped. A line whose tokens
    are exactly "v <id>" declares an isolated vertex; any other line needs
    two endpoints, and tokens after them are ignored. Labels are numbered
    in first-appearance order and each edge's line is recorded as it is
    read. The pass stops at the first line with a single token, then checks
    the edges above it with :func:`_simple_edges`: the first bad edge raises
    :class:`SelfLoopError` or :class:`DuplicateEdgeError` with its labels
    and line, and otherwise that line raises :class:`MalformedLineError`.
    """
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    lines: list[int] = []
    setdefault = index.setdefault
    us_append = us.append
    vs_append = vs.append
    lines_append = lines.append
    scan_comments = "#" in text
    parts: list[str] = []  # a single token is left here only where the pass stopped
    for lineno, line in enumerate(text.splitlines(), 1):
        if scan_comments and "#" in line:
            line = line[: line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            break
        if parts[0] == "v" and len(parts) == 2:
            setdefault(parts[1], len(index))
            continue
        us_append(setdefault(parts[0], len(index)))
        vs_append(setdefault(parts[1], len(index)))
        lines_append(lineno)
    labels = tuple(index)
    eu, ev, k = _simple_edges(
        len(labels), np.asarray(us, dtype=np.int32), np.asarray(vs, dtype=np.int32), dedupe
    )
    if k is not None:
        u, v = labels[eu[k]], labels[ev[k]]
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u!r}", lines[k])
        raise DuplicateEdgeError(f"duplicate edge {u!r} {v!r}", lines[k])
    if len(parts) == 1:
        raise MalformedLineError(f"expected two endpoints, got {parts[0]!r}", lineno)
    return _graph(len(labels), labels, eu, ev)


# A comment runs to the next byte that str.splitlines() treats as a line end.
_COMMENT = re.compile(rb"#[^\n\r\x0b\x0c\x1c-\x1e]*")
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"  # printable ASCII, the space, tab, LF and CR
_LABEL_BYTES = bytes(range(0x21, 0x7F)) + b"\n"  # printable tokens, one per line
_SPACE, _V, _ZERO = ord(" "), ord("v"), ord("0")
_MAX_DIGITS = 18  # every canonical id of up to 18 digits fits in int64


def _tokenize(data: str | bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Token bounds of a text whose every line holds zero or two tokens, or None.

    The byte-level steps both vectorized loaders share. The text must be
    UTF-8 without U+0085, U+2028 or U+2029 (line ends to ``str.splitlines()``
    but not to :data:`_COMMENT`); '#' comments are removed, and what remains
    must be printable ASCII, spaces, tabs, LF and CR. LF and CR end lines,
    and a token is a run of bytes above the space. Returns a uint8 view of
    the bytes without comments, and the start offset and the length of
    every token. Any other input, including one with a line of one or three
    tokens, returns None.
    """
    if not data.isascii():  # other characters may stand only in comments
        try:
            text = _decode(data)
            data = text.encode("utf-8")
        except UnicodeError:  # not UTF-8: left to the general path
            return None
        if "\x85" in text or "\u2028" in text or "\u2029" in text:
            return None
    elif isinstance(data, str):
        data = data.encode("ascii")
    first = data.find(b"#")
    if first >= 0:  # only the span from the first "#" to the last comment's end is scanned
        last = _COMMENT.match(data, data.rfind(b"#")).end()
        view = memoryview(data)
        data = b"".join((view[:first], _COMMENT.sub(b"", view[first:last]), view[last:]))
    if data.translate(None, _PRINTABLE):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    tok = np.zeros(raw.size + 2, dtype=bool)  # the token bytes, with a blank before and after
    np.greater(raw, _SPACE, out=tok[1:-1])  # blanks and line ends sort at or below the space
    start = np.flatnonzero(tok[1:] > tok[:-1])
    stop = np.flatnonzero(tok[:-1] > tok[1:])
    del tok
    # Tokens per line, from the token starts before each line end: 0 or 2 on
    # every line. Each array is freed once the next is built, which keeps the
    # peak memory of a large edge list down.
    ends = raw == ord("\n")
    if b"\r" in data:
        ends |= raw == ord("\r")
    ends = np.flatnonzero(ends)
    before = np.searchsorted(start, ends)
    del ends
    per_line = np.diff(before, prepend=0, append=start.size)
    del before
    if not bool(((per_line == 0) | (per_line == 2)).all()):
        return None
    # the token lengths, in int32 below 2 GiB of text
    length = np.subtract(stop, start, dtype=np.int32 if raw.size < 2**31 else np.int64, casting="unsafe")
    return raw, start, length


def _token_edges(data: str | bytes) -> tuple[bytes, np.ndarray, np.ndarray] | None:
    """The id text and endpoint arrays of an edge list of printable-ASCII ids, or None.

    Vectorized over the raw bytes by :func:`_tokenize`, with no per-line
    Python loop. It applies when, after comments are removed, the input is
    printable ASCII, spaces, tabs, LF and CR, and every non-blank line holds
    exactly two tokens: "v <id>" declares a vertex and any other line is an
    edge, so a "v" in second position is an id. The ids are numbered by
    :func:`_keys`; the distinct ids come back as ASCII lines in
    first-appearance order (:func:`_join`), with the dense endpoint arrays of
    every edge. No simple-graph rule is checked here and nothing is raised:
    any other input returns None.
    """
    tokens = _tokenize(data)
    if tokens is None:
        return None
    raw, start, length = tokens
    del tokens
    declared = (raw[start[0::2]] == _V) & (length[0::2] == 1)  # one entry per line
    n_v = int(np.count_nonzero(declared))
    if n_v:  # the id tokens: all but the declaring "v"s, one array at a time
        keep = np.ones(start.size, dtype=bool)
        keep[0::2] = ~declared
        start = start[keep]
        length = length[keep]
    keys = _keys(raw, start, length)
    first, table = _first_appearance(keys)
    start, length = start[first], length[first]  # the distinct ids, before the endpoints are numbered
    dense = table[keys]
    del keys, table
    text = _join(raw, start, length)
    if n_v:  # endpoints are the ids not on a "v" line
        dense = dense[np.repeat(~declared, 2)[keep]]
    return text, dense[0::2].copy(), dense[1::2].copy()


def _decimals(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """The int64 value of every token ``raw[start:start + length]``, or None.

    None unless every token is a canonical decimal: 1 to 18 ASCII digits
    with no leading zero, so that a value and its text determine each
    other. The digits are accumulated one column at a time, vectorized over
    the tokens; each column is gathered and checked in place, so besides the
    int64 values only two one-byte-per-token buffers are made.
    """
    width = int(length.max(initial=0))  # no token is empty
    if not 1 <= width <= _MAX_DIGITS:
        return None
    digit = raw.take(start)
    digit -= _ZERO  # uint8: a byte below "0" wraps above 9
    if int(digit.max()) > 9 or bool(((digit == 0) & (length > 1)).any()):
        return None
    values = digit.astype(np.int64)
    live = np.empty(length.size, dtype=bool)
    for j in range(1, width):
        np.greater(length, j, out=live)
        raw[j:].take(start, mode="clip", out=digit)
        digit -= _ZERO
        np.multiply(digit, live, out=digit)  # 0 past each token's end
        if int(digit.max()) > 9:
            return None
        np.multiply(values, 10, out=values, where=live)
        values += digit
    return values


def _keys(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """One int64 key per token ``raw[start:start + length]``, equal exactly when the tokens are.

    The keys hold within one call only, and are small enough for the table
    of :func:`_first_appearance`: canonical decimals (:func:`_decimals`) are
    keyed by their values while these stay below 4 per token plus 1024, and
    any other tokens are numbered by :func:`_ranks`.
    """
    keys = _decimals(raw, start, length)
    if keys is not None and int(keys.max(initial=0)) < 4 * keys.size + 1024:
        return keys
    return _ranks(raw, start, length)


def _ranks(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Numbers of the tokens ``raw[start:start + length]``, equal exactly when the tokens are.

    The tokens are numbered by their first 8 bytes, zero-padded (no token
    holds a NUL byte). Then, 8 bytes at a time, only the tokens longer than
    the bytes read so far are numbered again, above every number given so
    far, by their number and their next 8 bytes: O(tokens) memory at any length.
    """
    rank, top = _numbers(_words(raw, start, length))
    live = np.flatnonzero(length > 8)  # the tokens not yet read to their end
    for offset in range(8, int(length.max(initial=0)), 8):
        group = _numbers(rank[live])[0]
        word, words = _numbers(_words(raw, start[live] + offset, length[live] - offset))
        pair, pairs = _numbers(group * words + word)  # below len(live) ** 2
        rank[live] = pair + top
        top += pairs
        live = live[length[live] > offset + 8]
    return rank


def _words(raw: np.ndarray, at: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``raw`` from each offset ``at``, as little-endian uint64 zeroed past ``length``."""
    past = (8 - np.minimum(length, 8).astype(np.uint8)) << 3  # the bits past each token's end
    padded = np.pad(raw, (0, 8))
    # the 8 bytes from each offset as one void item, which a gather takes without a copy of raw
    word = np.ndarray((raw.size,), dtype="V8", buffer=padded, strides=(1,))[at].view("<u8")
    word <<= past
    word >>= past
    return word


def _numbers(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each key's index among the distinct ``keys`` in sorted order (int64), and their count.

    ``keys`` is sorted in place and freed before the numbers are made, which
    keeps the peak memory near three times that of ``keys``.
    """
    perm = keys.argsort()
    keys.sort()
    new = keys[1:] != keys[:-1]
    del keys
    count = np.cumsum(new, dtype=np.int32)  # the number of each key but the first
    del new
    perm = perm.astype(np.int32)
    numbers = np.zeros(perm.size, dtype=np.int64)
    numbers[perm[1:]] = count
    return numbers, int(count[-1]) + 1 if count.size else perm.size


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first appears, in order, and a table that numbers keys in that order.

    ``keys`` are nonnegative integers; the table (int32) is as long as the largest key.
    """
    first = np.full(int(keys.max(initial=-1)) + 1, keys.size, dtype=np.int32)
    np.minimum.at(first, keys, np.arange(keys.size, dtype=np.int32))
    table = first  # the first positions are read out before the table is written over them
    first = np.sort(first[first < keys.size])
    table[keys[first]] = np.arange(first.size, dtype=np.int32)
    return first, table


def _join(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> bytes:
    """The tokens ``raw[start:start + length]`` as ASCII lines, one per token."""
    ends = np.cumsum(length + 1)  # where each token's line ends in the text
    # the offset in raw of every byte of the text: a token, then the byte after it
    at = np.repeat(start + length + 1 - ends, length + 1)
    at += np.arange(at.size)
    text = raw[np.minimum(at, raw.size - 1)]  # the last token may end the buffer
    text[ends - 1] = ord("\n")
    return text.tobytes()


def load_edge_list(source: TextSource, dedupe: bool = False) -> Graph:
    """Parse an edge list into a :class:`Graph`.

    Format: one edge per line, "u v" separated by whitespace (extra tokens
    are ignored); '#' starts a comment; a line "v <id>" (exactly two tokens,
    first literally "v") declares an isolated vertex. Dense indices are
    assigned by first appearance, so parsing is deterministic. The input is
    UTF-8; one leading byte-order mark is dropped.

    The simple-graph rules are checked, vectorized, by :func:`_simple_edges`,
    the check :meth:`Graph.from_edges` applies too: a self-loop raises
    :class:`SelfLoopError` and a repeated edge :class:`DuplicateEdgeError`,
    unless ``dedupe`` is set, which keeps the first copy of each edge. A
    line with one token raises :class:`MalformedLineError`. Each error
    names the first bad line; a byte that is not UTF-8 raises
    :class:`EdgeListError` naming its line, unless a line above it is bad.
    Files of printable-ASCII ids with exactly two tokens on every
    non-blank line are tokenized vectorized (:func:`_token_edges`), whether
    the ids are integers or not, and the graph is kept when its edges pass
    the check. Any other input, and every bad one, is read by the line pass,
    :func:`_scan`, which gives the same graph and raises every error from
    its one scan.
    """
    data = _read(source)
    tokens = _token_edges(data)
    if tokens is not None:
        text, eu, ev = tokens
        del tokens  # the unchecked arrays are not kept past the check
        n = text.count(b"\n")
        eu, ev, k = _simple_edges(n, eu, ev, dedupe)
        if k is None:
            graph = _graph(n, None, eu, ev)
            graph.__dict__["_id_text"] = text
            return graph
    try:
        text = _decode(data)
    except UnicodeDecodeError as exc:
        bad = exc
    else:
        return _scan(text, dedupe)
    message, line, above = _undecodable(bad)
    _scan(above, dedupe)  # a bad line above the byte is the first bad line
    raise EdgeListError(message, line) from bad


class GraphSummary(_Record):
    """One-pass degree summary of a graph.

    Exact integer fields: ``pi3`` counts two-edge paths (unordered edge pairs
    sharing exactly one vertex), ``ordered_disjoint_pairs`` counts ordered
    pairs of vertex-disjoint edges, ``sum_sq_degrees`` is the raw second
    moment accumulator. Float fields are derived once from the integers:
    ``rho`` is edge density (nan for n < 2), ``delta1``/``delta2`` the first
    two degree moments, ``upsilon`` the variance-to-mean dispersion of the
    degree distribution (nan when there are no edges).
    """

    n: int
    m: int
    pi3: int
    ordered_disjoint_pairs: int
    sum_sq_degrees: int
    rho: float
    delta1: float
    delta2: float
    upsilon: float


def summarize(g: Graph) -> GraphSummary:
    """Compute the :class:`GraphSummary` of ``g`` in one pass over degrees."""
    if g.n < 1:
        raise ValueError("summarize requires at least one vertex")
    n, m = g.n, g.m
    deg = g.degrees
    ssq = int(np.dot(deg, deg))
    total = int(deg.sum())
    if total != 2 * m:
        raise ValueError("degree sum does not match twice the edge count")
    # sum_i C(d_i, 2) written on the exact integer accumulators
    pi3 = (ssq - 2 * m) // 2
    pairs = m * (m - 1) // 2
    n2 = 2 * (pairs - pi3)
    if n2 < 0:
        raise ValueError("inconsistent counts: more two-paths than edge pairs")
    rho = float(Fraction(m, math.comb(n, 2))) if n >= 2 else float("nan")
    delta1 = float(Fraction(2 * m, n))
    delta2 = float(Fraction(ssq, n))
    if m > 0:
        d1 = Fraction(2 * m, n)
        upsilon = float((Fraction(ssq, n) - d1 * d1) / d1)
    else:
        upsilon = float("nan")
    return GraphSummary(
        n=n,
        m=m,
        pi3=pi3,
        ordered_disjoint_pairs=n2,
        sum_sq_degrees=ssq,
        rho=rho,
        delta1=delta1,
        delta2=delta2,
        upsilon=upsilon,
    )


def gamma_invariant(s: GraphSummary) -> Fraction:
    """Scale factor of all between-class covariances, for every n >= 1.

    Combinatorial form: (2 / n^(4)) * (C(m,2) - pi3) - (m / n^(2))^2, exact.
    A term with numerator 0 is 0: for n < 4 no two edges are vertex-disjoint,
    and for n = 1 there are no edges.
    """
    return _gamma_from_counts(s.n, s.m, s.pi3)


def _gamma_from_counts(n: int, m: int, pi3: int) -> Fraction:
    """The combinatorial form of :func:`gamma_invariant`."""
    disjoint = 2 * (m * (m - 1) // 2 - pi3)  # ordered pairs of vertex-disjoint edges
    term = Fraction(disjoint, math.perm(n, 4)) if disjoint else Fraction(0)
    return term - (Fraction(m, math.perm(n, 2)) if m else Fraction(0)) ** 2


def dispersion_margin(s: GraphSummary) -> Fraction | None:
    """Exact value of upsilon - (1 - rho)/2, or None when it is undefined.

    Sign link: gamma_invariant(s) <= 0 if and only if this margin is >= 0,
    so over-dispersed degree distributions force nonpositive covariances.
    Undefined when the graph has no edges (upsilon needs delta1 > 0).
    """
    if s.m == 0 or s.n < 2:
        return None
    d1 = Fraction(2 * s.m, s.n)
    d2 = Fraction(s.sum_sq_degrees, s.n)
    rho = Fraction(s.m, math.comb(s.n, 2))
    return (d2 - d1 * d1) / d1 - (1 - rho) / 2
