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
from functools import cached_property
from fractions import Fraction
from typing import Iterable

import numpy as np

from ._text import _CHUNK, TextSource, _edge_at, _load, _token_edges

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

_LABEL_BYTES = bytes(range(0x21, 0x7F)) + b"\n"  # printable tokens, one per line


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

    A vectorized load (:func:`~nethom._text._token_edges`) gives the graph
    None for ``labels`` and keeps the text of its ids instead; the label
    strings are split from that text the first time they are read.
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

        Every item must be a pair of integers (ones ``operator.index``
        accepts) in 0..n-1. A self-loop or a repeated edge raises, unless
        ``dedupe`` is set, which keeps the first copy of each edge
        (:func:`_simple_edges`). The error names the first bad pair. An
        (m, 2) array of integer dtype is checked as it is; any other
        ``edges`` is read pair by pair. ``labels``, one distinct id string
        per vertex, default to "0".."n-1" and are kept as a tuple.
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
            try:
                pairs = np.array(edges)
            except ValueError:  # pairs of unequal lengths
                pairs = np.empty(0)
        if pairs.dtype.kind not in "biu" or pairs.shape != (len(edges), 2):
            ints = []  # up to a non-integer endpoint or an item that is not a pair; ints beyond int64 kept
            for pair in edges:
                try:
                    u, v = pair
                    ints.append((operator.index(u), operator.index(v)))
                except (TypeError, ValueError):
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
            try:
                u, v = edges[stop]
            except (TypeError, ValueError):
                raise EdgeListError(f"edge {edges[stop]!r} is not a pair of endpoints") from None
            raise EdgeListError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
        return _graph(n, labels, eu, ev)


def _graph(n: int, labels: tuple[str, ...] | None, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """The :class:`Graph` of edges that passed :func:`_simple_edges`.

    Memory: the degrees are counted max(:data:`_CHUNK`, n) edges at a time,
    so besides the int64 degrees each step makes an intp copy of one block
    of endpoints and one count per vertex; the block is at least n long,
    which keeps the count linear when n is far above m.
    """
    degrees = np.zeros(n, dtype=np.int64)
    step = max(_CHUNK, n)
    for at in range(0, eu.size, step):
        degrees += np.bincount(eu[at : at + step], minlength=n)
        degrees += np.bincount(ev[at : at + step], minlength=n)
    return Graph(n=n, edges_u=eu, edges_v=ev, degrees=degrees, labels=labels)


def _simple_edges(
    n: int, eu: np.ndarray, ev: np.ndarray, dedupe: bool
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """The simple-graph check on dense int32 endpoint arrays over n vertices.

    Returns ``(eu, ev, k)``. ``k`` is the position of the first edge that
    breaks a rule, or None: a self-loop breaks one, and so does a repeat of
    an earlier edge, in either orientation, unless ``dedupe`` is set. When
    ``k`` is None and ``dedupe`` is set, only the first copy of each edge is
    kept; otherwise the arrays come back as given.

    Memory: a simple graph costs one key per edge (:func:`_edge_keys`, 4
    bytes while n <= 2**16), sorted in place, and one bool per edge at a
    time. A self-loop or a repeat adds one 4-byte position per edge: each
    edge finds the place of its key among the sorted keys, :data:`_CHUNK`
    edges at a time, and the least position of the edges at each place is
    that edge's first copy.
    """
    keys = _edge_keys(n, eu, ev)
    keys.sort()
    if not ((keys[1:] == keys[:-1]).any() or (eu == ev).any()):
        return eu, ev, None
    first = np.full(keys.size, keys.size, dtype=np.int32 if keys.size < 2**31 else np.int64)
    for at in range(0, keys.size, _CHUNK):
        place = np.searchsorted(keys, _edge_keys(n, eu[at : at + _CHUNK], ev[at : at + _CHUNK]))
        np.minimum.at(first, place, np.arange(at, at + place.size, dtype=first.dtype))
    del keys
    kept = np.zeros(first.size, dtype=bool)
    kept[first[first < first.size]] = True
    del first
    loop = eu == ev
    bad = loop if dedupe else loop | ~kept
    if bad.any():
        return eu, ev, int(bad.argmax())
    return eu[kept], ev[kept], None


def _edge_keys(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """The key min(u, v) * n + max(u, v) of each edge, equal exactly for the two orientations of an edge.

    Built in place as min(u, v) * (n - 1) + u + v, in uint32 while n * n <=
    2**32, which bounds every key by n * n - 1, and in int64 above that.
    """
    keys = np.empty(eu.size, dtype=np.uint32 if n * n <= 2**32 else np.int64)
    if keys.dtype == np.uint32:  # the endpoints are below n, so their uint32 views hold their values
        eu, ev = eu.view(np.uint32), ev.view(np.uint32)
    np.minimum(eu, ev, out=keys)
    keys *= max(n - 1, 0)
    keys += eu
    keys += ev
    return keys


def _bad_edge(u: str, v: str, line: int) -> EdgeListError:
    """The error of the edge ``u v`` on ``line``, which loops or repeats an earlier edge."""
    if u == v:
        return SelfLoopError(f"self-loop at vertex {u!r}", line)
    return DuplicateEdgeError(f"duplicate edge {u!r} {v!r}", line)


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
        raise _bad_edge(labels[eu[k]], labels[ev[k]], lines[k])
    if len(parts) == 1:
        raise MalformedLineError(f"expected two endpoints, got {parts[0]!r}", lineno)
    return _graph(len(labels), labels, eu, ev)


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
    names the first bad line. A file the token stream takes
    (:func:`~nethom._text._token_blocks`: printable-ASCII ids, two tokens on
    every non-blank line) is read vectorized
    (:func:`~nethom._text._token_edges`) and checked; the first bad edge
    there is named by reading the stream again up to it
    (:func:`~nethom._text._edge_at`). Any other input takes the general
    path (:func:`~nethom._text._load`), whose line pass :func:`_scan` gives
    the same graph and raises every error from its one scan; a byte that is
    not UTF-8 raises :class:`EdgeListError` naming its line, unless a line
    above it is bad.

    Memory: one copy of the text is kept (:func:`~nethom._text._load`),
    comments included; the token stream overwrites comments in its
    piece-sized copies only. Both token paths number ids with one
    :class:`~nethom._text._Ids`, whose table is as long as the largest key.
    On an edge list of integer ids, SNAP style, the transient peak, the
    bytes read included, stays under 2.6 times the size of the file: beside
    the text it holds the two int32 endpoint arrays, that table, and buffers
    of :data:`~nethom._text._CHUNK` bytes or tokens. Ids of other forms add
    an int32 start, length and key per token. The test suite traces both
    with tracemalloc on a 200,000-edge file, where they are 2.5 and 4.7
    times the file. The simple-graph check and the degree count after the
    tokenizer make no temporary as large as the two endpoint arrays
    (:func:`_simple_edges`, :func:`_graph`).
    """

    def token_path(data: bytes) -> Graph | None:
        tokens = _token_edges(data)
        if tokens is None:
            return None
        text, eu, ev = tokens
        del tokens  # the unchecked arrays are not kept past the check
        n = text.count(b"\n")
        eu, ev, k = _simple_edges(n, eu, ev, dedupe)
        if k is not None:
            del text, eu, ev
            raise _bad_edge(*_edge_at(data, k))
        graph = _graph(n, None, eu, ev)
        graph.__dict__["_id_text"] = text
        return graph

    return _load(source, token_path, lambda text: _scan(text, dedupe), EdgeListError)


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
