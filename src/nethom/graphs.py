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
from typing import IO, Callable, Iterable, Iterator, TypeVar, Union

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
_T = TypeVar("_T")


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


def _read(source: TextSource) -> str | bytes:
    """The text of ``source`` as read, kept once, without one leading UTF-8 byte-order mark."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    return data.removeprefix(b"\xef\xbb\xbf" if isinstance(data, bytes) else "\ufeff")


def _general(data: str | bytes, line_pass: Callable[[str], _T], error: Callable[[str, int], Exception]) -> _T:
    """The general path of both loaders: ``line_pass`` over the text of ``data``, decoded as UTF-8.

    At the first byte that is not UTF-8, the line pass reads the complete
    lines above it first, so that a bad line there is reported ahead of it;
    then ``error(message, line)`` names the byte and its line.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        bad = exc
    else:
        return line_pass(text)
    lines = (bad.object[: bad.start].decode("utf-8") + "#").splitlines()  # the "#" stands on the bad byte's line
    line_pass("\n".join(lines[:-1]))
    raise error(f"byte {bad.object[bad.start]:#04x} is not UTF-8 ({bad.reason})", len(lines)) from bad


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


_LINE_END = re.compile(rb"[\n\r]")
# line ends to str.splitlines() that a comment runs past: U+0085, U+2028 and U+2029
_ODD_LINE_ENDS = tuple(c.encode("utf-8") for c in "\x85\u2028\u2029")
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"  # printable ASCII, the space, tab, LF and CR
_LABEL_BYTES = bytes(range(0x21, 0x7F)) + b"\n"  # printable tokens, one per line
_SPACE, _TAB, _LF, _CR, _V, _ZERO, _HASH = map(ord, " \t\n\rv0#")
# The bytes a '#' comment stops at: those that str.splitlines() ends a line at.
_COMMENT_END = np.zeros(256, dtype=bool)
_COMMENT_END[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = True
_MAX_DIGITS = 9  # every canonical id of up to 9 digits fits in int32
# The bytes of text tokenized, and the tokens keyed, at a time: small enough that
# each step's temporaries stay in cache and the loaders' peak memory stays near
# that of the text and the arrays they return, large enough that numpy's cost per
# call is small (picked by measurement; CHANGES.md has the figures).
_CHUNK = 1 << 15


def _utf8(data: str | bytes) -> bytes | None:
    """The UTF-8 bytes of ``data``, which the token paths read, or None.

    None when ``data`` is not UTF-8, or holds U+0085, U+2028 or U+2029, line
    ends to ``str.splitlines()`` that a comment runs past in the tokenizer,
    which ends comments at ASCII bytes only (:data:`_COMMENT_END`).
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            return None
    elif not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not data.isascii() and any(end in data for end in _ODD_LINE_ENDS):
        return None
    return data


def _line_ends(data: bytes, stop: int | None = None) -> int:
    """The line ends in ``data[:stop]``, LF, CR and CR LF, each counted once as ``str.splitlines()`` does.

    The LFs are counted :data:`_CHUNK` bytes at a time, which is faster
    than ``bytes.count`` and makes only chunk-sized masks.
    """
    raw = np.frombuffer(data, dtype=np.uint8)[:stop]
    stop = raw.size
    ends = sum(int(np.count_nonzero(raw[at : at + _CHUNK] == _LF)) for at in range(0, stop, _CHUNK))
    if data.find(b"\r", 0, stop) >= 0:
        ends += data.count(b"\r", 0, stop) - data.count(b"\r\n", 0, stop)
    return ends


def _tokenize(data: str | bytes, tabbed: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The whole token stream of :func:`_token_blocks` at once, or None where the stream declines the text.

    Returns a uint8 view of the UTF-8 bytes (:func:`_utf8`), and the start
    offset and the length of every token in them.

    Memory: beside the text, the two token arrays are all that grow with the
    input, 8 bytes a token. They are allocated once, two entries per line,
    and filled one piece-sized block at a time.
    """
    data = _utf8(data)
    if data is None:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    start = np.empty(2 * (_line_ends(data) + 1), dtype=np.int32 if raw.size < 2**31 else np.int64)
    length = np.empty_like(start)
    count = 0
    for tokens in _token_blocks(data, tabbed, 1):
        if tokens is None:
            return None
        size = tokens[0].size
        start[count : count + size], length[count : count + size] = tokens
        count += size
    return raw, start[:count], length[:count]


def _token_blocks(data: bytes, tabbed: bool, size: int) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
    """The start offset and the length of every token of ``data``, in blocks of at least ``size`` tokens.

    The one token stream of both vectorized loaders. ``data`` is UTF-8
    (:func:`_utf8`). '#' starts a comment, which runs to the next line end
    of ``str.splitlines()``, and the rest must be printable ASCII, spaces,
    tabs, LF and CR. LF and CR end lines, and a token is a run of bytes
    above the space. The arrays are int32 below 2 GiB of text. At the first
    line with one or three tokens, at a byte outside a comment that is not
    taken, or, with ``tabbed``, where a line's first tab does not stand
    between its two tokens, None is yielded and the blocks end.

    The text is cut into pieces of about :data:`_CHUNK` bytes after a line
    end, so every block is whole lines; the first piece with a token is a
    block of its own, so that a file whose ids are of another form than the
    caller keys is told at once. Each piece is copied with its comments overwritten by
    spaces (:func:`_blank_comments`), so the offsets are those in ``data``,
    and its byte masks and offsets (:func:`_chunk_tokens`) are freed before
    a block is yielded: the text is never copied whole.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    dtype = np.int32 if raw.size < 2**31 else np.int64
    starts, lengths, count, least, at = [], [], 0, 1, 0
    while at < raw.size:
        cut = _LINE_END.search(data, at + _CHUNK - 1)
        end = raw.size if cut is None else cut.end()
        text = np.empty(end - at + 1, dtype=np.uint8)
        text[:-1] = raw[at:end]
        text[-1] = _LF  # a closing line end, so that every token stops inside the text
        if data.find(b"#", at, end) >= 0:
            _blank_comments(text)
        tokens = None if text.tobytes().translate(None, _PRINTABLE) else _chunk_tokens(text, tabbed)
        if tokens is None:
            yield None
            return
        first, stop = tokens
        stop -= first
        starts.append(np.add(first, at, dtype=dtype, casting="unsafe"))
        lengths.append(stop.astype(dtype))
        del text, tokens, first, stop
        count += starts[-1].size
        at = end
        if count and (count >= least or at == raw.size):
            block, starts, lengths, count, least = (np.concatenate(starts), np.concatenate(lengths)), [], [], 0, size
            yield block


def _blank_comments(text: np.ndarray) -> None:
    """Overwrite every '#' comment of ``text`` with spaces, in place.

    A comment runs from its '#' to the next byte of :data:`_COMMENT_END`,
    which it leaves, so the text keeps its lines and the offset of every
    token. A comment right after a CR leaves that CR followed by a space,
    not joined to an LF after the comment.
    """
    hashes = np.cumsum(text == _HASH)  # the '#' bytes up to each byte
    ends = np.where(_COMMENT_END[text], hashes, 0)
    np.maximum.accumulate(ends, out=ends)  # the '#' bytes up to the last line end at or before it
    text[hashes > ends] = _SPACE


def _chunk_tokens(text: np.ndarray, tabbed: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The offsets where the tokens of ``text`` start and stop, or None, as :func:`_token_blocks` says.

    ``text`` is whole lines without comments, the last one ended by an LF
    that closes the text. One scan finds its events in order: where a
    token starts or stops, and every line end. Between two token starts
    stand exactly the first token's stop and any line ends, so whether a
    line holds 0 or 2 tokens is read from the events around each start,
    with no search over the line ends.
    """
    token = text > _SPACE
    edge = np.empty_like(token)
    edge[0] = token[0]
    np.not_equal(token[1:], token[:-1], out=edge[1:])  # a token starts or stops
    line_end = text == _LF
    line_end |= text == _CR
    at = np.flatnonzero(edge | line_end)
    kind = text[at]  # the byte of each event: a token's first byte, a blank, or a line end
    first = np.flatnonzero(kind > _SPACE)  # the event of each token start
    if first.size % 2:
        return None
    one, two = first[0::2], first[1::2]  # each line's tokens, if it has two
    ends = kind[first + 1]  # the blank or line end each token stops at
    ends = (ends == _LF) | (ends == _CR)
    # The first token stops at a blank that is the one event before the second, and
    # a line end stops the second or stands before the next line's first token.
    if not bool(((two - one == 2) & ~ends[0::2]).all()):
        return None
    if not bool((ends[1::2][:-1] | (one[1:] - two[:-1] > 2)).all()):
        return None
    if tabbed:
        # The same events with every tab. The one before a line's first token is
        # no tab (kind[-1], the closing line end, stands before the first line),
        # and a tab stops that token or follows its stop.
        kind = text[np.flatnonzero(edge | (text < _SPACE))]
        starts = np.flatnonzero(kind > _SPACE)
        one, two = starts[0::2], starts[1::2]
        if bool((kind[one - 1] == _TAB).any()):
            return None
        if not bool(((kind[one + 1] == _TAB) | (two - one > 2)).all()):
            return None
    return at[first], at[first + 1]


def _token_edges(data: str | bytes) -> tuple[bytes, np.ndarray, np.ndarray] | None:
    """The id text and endpoint arrays of an edge list of printable-ASCII ids, or None.

    Vectorized over the raw bytes, with no per-line Python loop. It applies
    when, outside comments, the input is printable ASCII, spaces, tabs, LF
    and CR, and every non-blank line holds exactly two tokens: "v <id>"
    declares a vertex and any other line is an edge, so a "v" in second
    position is an id. Every token is keyed, and one :class:`_Ids` numbers
    the keys by first appearance; the distinct ids come back as ASCII lines
    in that order, with the dense endpoint arrays of every edge. No
    simple-graph rule is checked here and nothing is raised: any other input
    returns None.

    While every id is a small canonical decimal, the keys are the values
    :func:`_decimals` reads from each block of :func:`_token_blocks` as it is
    cut, and each block's numbered endpoints are written into the endpoint
    arrays. At the first block with an id of any other form, the whole
    stream is read again (:func:`_tokenize`) and keyed at once by
    :func:`_ranks`, and every id is numbered afresh.

    Memory: beside the text, on decimal ids the peak holds the two int32
    endpoint arrays, allocated once, one entry per line, and cut to the edge
    count in place; the table of :class:`_Ids`, as long as the largest id;
    and block-sized temporaries. On other ids it holds the int32 start,
    length and key of every token, the table, and chunk-sized temporaries.
    """
    data = _utf8(data)
    if data is None:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    lines = _line_ends(data) + 1
    ids, m = _Ids(), 0
    eu = np.empty(lines, dtype=np.int32)  # a line holds at most one edge
    ev = np.empty(lines, dtype=np.int32)
    blocks = _token_blocks(data, False, _CHUNK)
    for block in blocks:
        if block is None:
            return None
        start, length = block
        _declare(raw, start, length)
        keys = _decimals(raw, start, length, 8 * lines + 1024)  # as _keys bounds them: two tokens a line
        if keys is None:
            break
        ids.number(keys, start, length)
        edge = start[0::2] != start[1::2]
        top = m + int(np.count_nonzero(edge))
        eu[m:top], ev[m:top], m = keys[0::2][edge], keys[1::2][edge], top
    else:
        text = ids.text(raw)
        eu.resize(m, refcheck=False)  # in place: no view of either array is kept
        ev.resize(m, refcheck=False)
        return text, eu, ev
    del ids, eu, ev, blocks, block, start, length  # freed before the whole text is cut again
    tokens = _tokenize(data)
    if tokens is None:
        return None
    raw, start, length = tokens
    del tokens
    _declare(raw, start, length)
    keys = _ranks(raw, start, length)
    ids = _Ids()
    ids.number(keys, start, length)
    edge = start[0::2] != start[1::2]
    del start, length
    text = ids.text(raw)
    return text, keys[0::2][edge], keys[1::2][edge]


def _declare(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> None:
    """Point the "v" of every line "v <id>" at the id it declares, in place.

    The line then holds its id twice at one offset, which tells it from an
    edge, whose two tokens start at different offsets.
    """
    short = 2 * np.flatnonzero(length[0::2] == 1)  # the first tokens of one byte
    declared = short[raw[start[short]] == _V]
    start[declared] = start[declared + 1]
    length[declared] = length[declared + 1]


_UNSEEN = np.iinfo(np.int32).max  # above every position in a chunk and every id number


class _Ids:
    """Ids numbered by first appearance, across calls to :meth:`number`.

    Equal keys are equal ids. ``table`` maps each key to the number of its
    id, :data:`_UNSEEN` for a key not seen yet, and grows with the largest
    key. :meth:`number` keeps the start offset and the length of each id's
    first token, from its ``start`` and ``length``, for :meth:`text`.
    """

    def __init__(self):
        self.n = 0
        self.table = np.empty(0, dtype=np.int32)
        self.starts, self.lengths = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]

    def number(self, keys: np.ndarray, start: np.ndarray, length: np.ndarray) -> None:
        """Replace each key (nonnegative) by the number of its id, in place, :data:`_CHUNK` keys at a time."""
        missing = int(keys.max(initial=-1)) + 1 - self.table.size  # the keys above the table
        if missing > 0:
            grow = np.full(max(missing, self.table.size // 4), _UNSEEN, dtype=np.int32)
            self.table = np.concatenate([self.table, grow])
        table = self.table
        for at in range(0, keys.size, _CHUNK):
            block = keys[at : at + _CHUNK]
            fresh = np.flatnonzero(table.take(block) == _UNSEEN).astype(np.int32)  # the keys not numbered yet
            if fresh.size:
                new = block[fresh]
                np.minimum.at(table, new, fresh)  # the first position of each new key
                first = fresh[table.take(new) == fresh]
                table[block[first]] = np.arange(self.n, self.n + first.size, dtype=np.int32)
                self.n += first.size
                self.starts.append(start[at + first])
                self.lengths.append(length[at + first])
            table.take(block, out=block)

    def text(self, raw: np.ndarray) -> bytes:
        """The ids as ASCII lines in the order of their numbers; the table is freed before they are joined."""
        del self.table
        start, length = np.concatenate(self.starts), np.concatenate(self.lengths)
        del self.starts, self.lengths
        return _join(raw, start, length)


def _edge_at(data: bytes, k: int) -> tuple[str, str, int]:
    """The two ids of edge ``k`` of an edge list :func:`_token_edges` read, and its line.

    The token stream is read again up to the edge; its line is the count of line
    ends above its first id, as ``str.splitlines()`` counts them, plus one.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    for start, length in _token_blocks(data, False, _CHUNK):
        _declare(raw, start, length)
        edges = np.flatnonzero(start[0::2] != start[1::2])
        if k < edges.size:
            at = 2 * int(edges[k])
            (a, b), (la, lb) = start[at : at + 2].tolist(), length[at : at + 2].tolist()
            return data[a : a + la].decode("ascii"), data[b : b + lb].decode("ascii"), _line_ends(data, a) + 1
        k -= edges.size


def _decimals(raw: np.ndarray, start: np.ndarray, length: np.ndarray, bound: int) -> np.ndarray | None:
    """The int32 value of every token ``raw[start:start + length]``, or None.

    None unless every token is a canonical decimal (1 to 9 ASCII digits with
    no leading zero, so that a value and its text determine each other)
    below ``bound``, which keeps the tables numbering the keys small. The
    tokens are read :data:`_CHUNK` at a time, on intp offsets, and each
    value is accumulated in place one digit column at a time, so that
    besides the values only chunk-sized buffers are made.
    """
    if int(length.max(initial=0)) > min(len(str(bound)), _MAX_DIGITS):
        return None
    keys = np.empty(start.size, dtype=np.int32)
    for at in range(0, start.size, _CHUNK):
        values, size = keys[at : at + _CHUNK], length[at : at + _CHUNK]
        offset = start[at : at + _CHUNK].astype(np.intp)
        digit = raw.take(offset)
        digit -= _ZERO  # uint8: a byte below "0" wraps above 9
        if int(digit.max()) > 9 or bool(((digit == 0) & (size > 1)).any()):
            return None
        values[:] = digit
        live = np.empty(size.size, dtype=bool)
        for j in range(1, int(size.max())):
            np.greater(size, j, out=live)
            raw[j:].take(offset, mode="clip", out=digit)
            digit -= _ZERO
            digit *= live  # 0 past each token's end
            if int(digit.max()) > 9:
                return None
            np.multiply(values, 10, out=values, where=live)
            values += digit
        if int(values.max()) >= bound:
            return None
    return keys


def _keys(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """One int32 key per token ``raw[start:start + length]``, equal exactly when the tokens are.

    The keys hold within one call only, and are small enough for the table
    of :class:`_Ids`: canonical decimals below 4 per token plus 1024
    (:func:`_decimals`) are keyed by their values, and any other tokens are
    numbered by :func:`_ranks`.
    """
    keys = _decimals(raw, start, length, 4 * start.size + 1024)
    return _ranks(raw, start, length) if keys is None else keys


def _ranks(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Numbers of the tokens ``raw[start:start + length]``, equal exactly when the tokens are.

    The tokens are numbered by their first 8 bytes, zero-padded (no token
    holds a NUL byte). Then, 8 bytes at a time, only the tokens longer than
    the bytes read so far are numbered again, above every number given so
    far, by their number and their next 8 bytes: O(tokens) memory at any length.
    """
    rank, top = _numbers([_words(raw, start, length)])
    live = np.flatnonzero(length > 8)  # the tokens not yet read to their end
    for offset in range(8, int(length.max(initial=0)), 8):
        group = _numbers([rank[live]])[0].astype(np.int64)
        word, words = _numbers([_words(raw, start[live] + offset, length[live] - offset)])
        pair, pairs = _numbers([group * words + word])  # below len(live) ** 2
        rank[live] = pair + top
        top += pairs
        live = live[length[live] > offset + 8]
    return rank


def _words(raw: np.ndarray, at: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``raw`` from each offset ``at``, as little-endian uint64 zeroed past ``length``."""
    if raw.size < 8:
        raw = np.pad(raw, (0, 8 - raw.size))
    last = raw.size - 8  # the last offset with 8 bytes after it
    # the 8 bytes from each offset as one void item, which a gather takes without a copy of raw
    windows = np.ndarray((last + 1,), dtype="V8", buffer=raw, strides=(1,))
    word = windows[np.minimum(at, last)].view("<u8")
    late = np.flatnonzero(at > last)  # a window moved back to fit in raw: its bytes from at moved down
    word[late] >>= (at[late] - last).astype(np.uint64) << 3
    past = (8 - np.minimum(length, 8).astype(np.uint8)) << 3  # the bits past each token's end
    word <<= past
    word >>= past
    return word


def _numbers(box: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Each key's index among the distinct keys in sorted order (int32), and their count.

    The keys are the one item of ``box``, which is emptied: the keys are
    then sorted in place and freed before the numbers are made, which keeps
    the peak memory near three times theirs. (A bare argument would stay
    alive to the end of the call on Python 3.10, whose callers hold their
    arguments until the call returns.)
    """
    keys = box.pop()
    perm = keys.argsort()
    keys.sort()
    new = keys[1:] != keys[:-1]
    del keys
    count = np.cumsum(new, dtype=np.int32)  # the number of each key but the first
    del new
    numbers = np.zeros(perm.size, dtype=np.int32)
    numbers[perm[1:]] = count
    return numbers, int(count[-1]) + 1 if count.size else perm.size


def _join(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> bytes:
    """The tokens ``raw[start:start + length]`` as ASCII lines, one per token.

    The text is gathered about :data:`_CHUNK` bytes at a time, so that the
    offsets of its bytes are chunk-sized.
    """
    ends = np.cumsum(length + 1)  # where each token's line ends in the text
    text = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    cuts = [0, *np.searchsorted(ends, range(_CHUNK, text.size, _CHUNK)).tolist(), ends.size]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        top = int(ends[a - 1]) if a else 0
        # the offset in raw of every byte of these lines: a token, then the byte after it
        at = np.repeat(start[a:b] - (ends[a:b] - top) + length[a:b] + 1, length[a:b] + 1)
        at += np.arange(at.size)
        text[top : ends[b - 1]] = raw[np.minimum(at, raw.size - 1)]  # the last token may end the buffer
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
    names the first bad line. A file the token stream takes
    (:func:`_token_blocks`: printable-ASCII ids, two tokens on every
    non-blank line) is read vectorized (:func:`_token_edges`) and checked;
    the first bad edge there is named by reading the stream again up to it
    (:func:`_edge_at`). Any other input takes the general path
    (:func:`_general`), whose line pass :func:`_scan` gives the same graph
    and raises every error from its one scan; a byte that is not UTF-8
    raises :class:`EdgeListError` naming its line, unless a line above it
    is bad.

    Memory: one copy of the text is kept (:func:`_read`), comments
    included; the token stream overwrites comments in its piece-sized copies
    only. Both token paths number ids with one :class:`_Ids`, whose table is
    as long as the largest key. On an edge list of integer ids, SNAP style,
    the transient peak, the bytes read included, stays under 2.6 times the
    size of the file: beside the text it holds the two int32 endpoint
    arrays, that table, and buffers of :data:`_CHUNK` bytes or tokens. Ids
    of other forms add an int32 start, length and key per token. The test
    suite traces both with tracemalloc on a 200,000-edge file, where they
    are 2.5 and 4.7 times the file. The simple-graph check and the degree
    count after the tokenizer make no temporary as large as the two
    endpoint arrays (:func:`_simple_edges`, :func:`_graph`).
    """
    data = _read(source)
    tokens = _token_edges(data)
    if tokens is not None:
        text, eu, ev = tokens
        del tokens  # the unchecked arrays are not kept past the check
        n = text.count(b"\n")
        eu, ev, k = _simple_edges(n, eu, ev, dedupe)
        if k is not None:
            del text, eu, ev
            raise _bad_edge(*_edge_at(_utf8(data), k))
        graph = _graph(n, None, eu, ev)
        graph.__dict__["_id_text"] = text
        return graph
    return _general(data, lambda text: _scan(text, dedupe), EdgeListError)


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
