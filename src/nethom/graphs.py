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
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on dense vertex indices 0..n-1.

    Invariants: no self-loops, no duplicate edges, all endpoints in range,
    and sum(degrees) == 2*m. :meth:`from_edges` and :func:`load_edge_list`
    enforce them, both through the one simple-graph check
    :func:`_simple_edges`; the constructor itself checks nothing. Safe for
    concurrent read access; the edge and degree arrays are write-protected.
    """

    n: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    degrees: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        for arr in (self.edges_u, self.edges_v, self.degrees):
            arr.setflags(write=False)

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
        other ``edges`` is read pair by pair. ``labels``, one distinct id per
        vertex, default to "0".."n-1".
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        elif len(labels) != n:
            raise ValueError("labels must have length n")
        elif len(set(labels)) != n:
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
        return _graph(labels, eu, ev)


def _graph(labels: tuple[str, ...], eu: np.ndarray, ev: np.ndarray) -> Graph:
    """The :class:`Graph` of edges that passed :func:`_simple_edges`."""
    n = len(labels)
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
    return source if isinstance(source, (str, bytes)) else source.read()


def _decode(data: str | bytes) -> str:
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _scan(text: str, lines: list[int] | None = None) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Apply the edge-list line grammar to every line of ``text``.

    '#' starts a comment and blank lines are skipped. A line whose tokens
    are exactly "v <id>" declares an isolated vertex; any other line needs
    two endpoints, and tokens after them are ignored. Returns the labels in
    first-appearance order and the endpoint index arrays, and raises
    :class:`MalformedLineError` at a line with a single token. Given
    ``lines``, the line number of each edge is appended to it.
    """
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    setdefault = index.setdefault
    us_append = us.append
    vs_append = vs.append
    scan_comments = "#" in text
    for lineno, line in enumerate(text.splitlines(), 1):
        if scan_comments and "#" in line:
            line = line[: line.index("#")]
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise MalformedLineError(f"expected two endpoints, got {parts[0]!r}", lineno)
        if parts[0] == "v" and len(parts) == 2:
            setdefault(parts[1], len(index))
            continue
        us_append(setdefault(parts[0], len(index)))
        vs_append(setdefault(parts[1], len(index)))
        if lines is not None:
            lines.append(lineno)
    return tuple(index), np.asarray(us, dtype=np.int32), np.asarray(vs, dtype=np.int32)


# A comment runs to the next byte that str.splitlines() treats as a line end.
_COMMENT = re.compile(rb"#[^\n\r\x0b\x0c\x1c-\x1e]*")
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"  # printable ASCII, the space, tab, LF and CR
_INT_GRAMMAR = b"0123456789v \t\n\r"
_SPACE, _V, _ZERO = ord(" "), ord("v"), ord("0")
_MAX_DIGITS = 18  # every canonical id of up to 18 digits fits in int64
_KEY_BYTES = 8  # a token of at most 8 bytes is keyed as one uint64


def _tokenize(data: str | bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, bool] | None:
    """Token bounds of a text whose every line holds zero or two tokens, or None.

    The byte-level steps both vectorized loaders share. The text must be
    ASCII; '#' comments are removed, and what remains must be printable
    ASCII, spaces, tabs, LF and CR. LF and CR end lines, and a token is a
    run of bytes above the space. Returns the bytes without comments, a
    uint8 view of them, the start and stop offsets of every token, and
    whether those bytes are all digits, "v", blanks and line ends. Any
    other input, including one with a line of one or three tokens, returns
    None.
    """
    if not data.isascii():
        return None
    if isinstance(data, str):
        data = data.encode("ascii")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    # The charset is checked on what is left once the integer grammar's bytes
    # are removed, so a text of integer ids is scanned once.
    other = data.translate(None, _INT_GRAMMAR)
    if other.translate(None, _PRINTABLE):
        return None
    digits = not other
    del other
    raw = np.frombuffer(data, dtype=np.uint8)
    tok = raw > _SPACE  # blanks and line ends sort at or below the space
    start = np.flatnonzero(tok[1:] > tok[:-1])
    start += 1
    stop = np.flatnonzero(tok[:-1] > tok[1:])
    stop += 1
    if tok.size and tok[0]:
        start = np.concatenate(([0], start))
    if tok.size and tok[-1]:
        stop = np.append(stop, tok.size)
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
    return data, raw, start, stop, digits


def _token_edges(data: str | bytes) -> tuple[tuple[str, ...], np.ndarray, np.ndarray] | None:
    """The general pass's result for an edge list of printable-ASCII ids, or None.

    Vectorized over the raw bytes by :func:`_tokenize`, with no per-line
    Python loop. It applies when, after comments are removed, the input is
    printable ASCII, spaces, tabs, LF and CR, and every non-blank line holds
    exactly two tokens: "v <id>" declares a vertex and any other line is an
    edge, so a "v" in second position is an id. A file of canonical decimals
    and declaring "v"s only is read by ``np.fromstring``, which holds the
    least memory; any other ids are keyed by :func:`_keys`. Any other input,
    or ids :func:`_keys` declines, returns None and takes the general path,
    which also raises every error.
    """
    tokens = _tokenize(data)
    if tokens is None:
        return None
    data, raw, start, stop, digits = tokens
    del tokens
    length = stop - start
    first = raw[start]
    decimal = (
        digits
        and int(length.max(initial=0)) <= _MAX_DIGITS
        and not bool((length[first == _ZERO] > 1).any())
    )
    declared = (first[0::2] == _V) & (length[0::2] == 1)  # one entry per line
    del length, first
    n_v = int(np.count_nonzero(declared))
    if n_v:  # the id tokens: all but the declaring "v"s
        keep = np.ones(start.size, dtype=bool)
        keep[0::2] = ~declared
    if decimal and data.count(b"v") == n_v:  # every id is a canonical decimal
        del raw, start, stop
        if n_v:
            data = data.translate(bytes.maketrans(b"v", b" "))
        # sep=" " matches any run of whitespace; a blank input would parse as [0]
        ids = np.fromstring(data, dtype=np.int64, sep=" ") if declared.size else np.empty(0, np.int64)
    else:
        if n_v:  # one array at a time, so that each copy frees its original
            start = start[keep]
            stop = stop[keep]
        ids = _keys(raw, start, stop)
        del raw, start, stop
        if ids is None:
            return None
    del data
    order, dense = _first_appearance(ids)
    del ids
    if n_v:  # endpoints are the ids not on a "v" line
        dense = dense[np.repeat(~declared, 2)[keep]]
    return _texts(order), dense[0::2].copy(), dense[1::2].copy()


def _decimals(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """The int64 value of every token ``raw[start:stop]``, or None.

    None unless every token is a canonical decimal: 1 to 18 ASCII digits
    with no leading zero, so that a value and its text determine each
    other. The digits are accumulated one column at a time, vectorized over
    the tokens.
    """
    length = stop - start
    if not length.size:
        return np.empty(0, dtype=np.int64)
    if not 1 <= int(length.min()) <= int(length.max()) <= _MAX_DIGITS:
        return None
    digit = raw[start] - _ZERO  # uint8: a byte below "0" wraps above 9
    if bool((digit > 9).any()) or bool(((digit == 0) & (length > 1)).any()):
        return None
    values = digit.astype(np.int64)
    for j in range(1, int(length.max())):
        live = length > j
        digit = raw.take(start + j, mode="clip") - _ZERO  # uint8: a byte below "0" wraps above 9
        if bool((live & (digit > 9)).any()):
            return None
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
    return values


def _keys(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """One key per token ``raw[start:stop]``, equal exactly when the tokens are, or None.

    Canonical decimals (:func:`_decimals`) are keyed by their int64 values.
    Any other tokens are zero-padded to the longest of them, or to 8 bytes
    if none is longer, and keyed as one uint64 per token of at most 8 bytes,
    or else as fixed-width bytes; no token holds a NUL byte, so padding
    keeps distinct tokens apart. Fixed-width keys wider than 8 bytes that
    would take more bytes than ``raw`` return None.
    """
    keys = _decimals(raw, start, stop)
    if keys is not None:
        return keys
    length = stop - start
    width = max(int(length.max()), _KEY_BYTES)
    if width > _KEY_BYTES and width * length.size > raw.size:
        return None
    padded = np.zeros(raw.size + width, dtype=np.uint8)
    padded[: raw.size] = raw
    # the width bytes from each token's start: one item per byte offset, gathered
    cells = np.ndarray((raw.size,), dtype=f"V{width}", buffer=padded, strides=(1,))[start]
    del padded
    cells = cells.view(np.uint8).reshape(-1, width)
    for j in range(1, width):  # zero the bytes past each token
        np.multiply(cells[:, j], length > j, out=cells[:, j])
    return cells.view(np.uint64 if width == _KEY_BYTES else f"S{width}")[:, 0]


def _texts(keys: np.ndarray) -> tuple[str, ...]:
    """The token of every key that :func:`_keys` gives."""
    if keys.dtype.kind == "i":
        return tuple(map(str, keys.tolist()))
    if keys.dtype == np.uint64:
        keys = keys.view(f"S{_KEY_BYTES}")  # bytes_ items drop the NUL padding
    return tuple(b"\n".join(keys.tolist()).decode("ascii").split("\n"))


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys`` in first-appearance order, and each key's index in it (int32).

    Signed integer keys go through a lookup table when it needs at most
    about 4 entries per key. Any other keys are first numbered in sorted
    order, as ``np.unique(keys, return_inverse=True)`` would number them
    but with int32 numbers and no copy of ``keys``, and the table runs over
    those numbers.
    """
    k = keys.size
    top = int(keys.max()) + 1 if k and keys.dtype.kind == "i" else 0
    if keys.dtype.kind != "i" or top > 4 * k + 1024:
        perm = keys.argsort()
        ranked = keys[perm]
        new = np.empty(k, dtype=bool)
        new[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        uniq = ranked[new]
        del ranked
        number = np.empty(k, dtype=np.int32)
        number[perm] = np.cumsum(new, dtype=np.int32) - 1
        del perm, new
        order, dense = _first_appearance(number)
        return uniq[order], dense
    first = np.full(top, k, dtype=np.int32)
    np.minimum.at(first, keys, np.arange(k, dtype=np.int32))
    order = keys[first[keys] == np.arange(k, dtype=np.int32)]
    del first
    table = np.empty(top, dtype=np.int32)
    table[order] = np.arange(order.size, dtype=np.int32)
    return order, table[keys]


def load_edge_list(source: TextSource, dedupe: bool = False) -> Graph:
    """Parse an edge list into a :class:`Graph`.

    Format: one edge per line, "u v" separated by whitespace (extra tokens
    are ignored); '#' starts a comment; a line "v <id>" (exactly two tokens,
    first literally "v") declares an isolated vertex. Dense indices are
    assigned by first appearance, so parsing is deterministic.

    The simple-graph rules are checked once, vectorized, by
    :func:`_simple_edges`, the check :meth:`Graph.from_edges` applies too:
    the first self-loop raises :class:`SelfLoopError` and the first repeated
    edge :class:`DuplicateEdgeError`, unless ``dedupe`` is set, which keeps
    the first copy of each edge. A line with one token raises
    :class:`MalformedLineError`. Each error names the first bad line.
    Files of printable-ASCII ids with exactly two tokens on every
    non-blank line are tokenized vectorized (:func:`_token_edges`), whether
    the ids are integers or not; any other input takes the general pass,
    :func:`_scan`, with the same result. The line of a bad edge is found by
    a second scan, run only when an error is raised.
    """
    data = _read(source)
    parsed = _token_edges(data)
    if parsed is None:
        text = _decode(data)
        try:
            parsed = _scan(text)
        except MalformedLineError as exc:  # a bad edge above the line comes first
            above = "\n".join(text.splitlines()[: exc.line - 1])
            _checked_graph(above, _scan(above), dedupe)
            raise
    return _checked_graph(data, parsed, dedupe)


def _checked_graph(
    data: str | bytes, parsed: tuple[tuple[str, ...], np.ndarray, np.ndarray], dedupe: bool
) -> Graph:
    """The graph of the scanned edge list ``data``, or the error of its first bad edge."""
    labels, eu, ev = parsed
    eu, ev, k = _simple_edges(len(labels), eu, ev, dedupe)
    if k is None:
        return _graph(labels, eu, ev)
    lines: list[int] = []
    _scan(_decode(data), lines)
    u, v = labels[eu[k]], labels[ev[k]]
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u!r}", lines[k])
    raise DuplicateEdgeError(f"duplicate edge {u!r} {v!r}", lines[k])


@dataclass(frozen=True)
class GraphSummary:
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


def gamma_invariant(s: GraphSummary) -> Fraction | None:
    """Scale factor of all between-class covariances, or None when n < 4.

    Combinatorial form: (2 / n^(4)) * (C(m,2) - pi3) - (m / n^(2))^2, exact.
    For n < 4 the quantity is undefined (no two vertex-disjoint edges exist;
    the covariance fallback in the moments module applies instead).
    """
    if s.n < 4:
        return None
    return _gamma_from_counts(s.n, s.m, s.pi3)


def _gamma_from_counts(n: int, m: int, pi3: int) -> Fraction:
    """The combinatorial form of :func:`gamma_invariant`, for n >= 4."""
    pairs = m * (m - 1) // 2
    return Fraction(2 * (pairs - pi3), math.perm(n, 4)) - Fraction(m, math.perm(n, 2)) ** 2


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
