"""Vertex colorings with a fixed profile: parsing, counting, uniform sampling.

A *profile* is the vector of class sizes of a labeled partition of the
vertices. The null model treats all colorings with the given profile as
equally likely; :func:`random_coloring` draws from that law by shuffling the
multiset of class labels with a seed-deterministic uniform shuffle, and
:func:`sample_counts` is the one resampling loop: it draws the same coloring
for each seed of a list and keeps only its homophilic counts and class
degree masses. It counts up to eight colorings at once, packed into one
64-bit word per vertex, so that one gather of the edge endpoints serves
them all.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import Iterable

import numpy as np

from .graphs import (
    _CHUNK,
    Graph,
    TextSource,
    _general,
    _Ids,
    _join,
    _keys,
    _read,
    _Record,
    _tokenize,
)

__all__ = [
    "Profile",
    "Coloring",
    "ObservedOutcome",
    "ColoringError",
    "MissingVertexError",
    "UnknownVertexError",
    "DuplicateVertexError",
    "falling_factorial",
    "load_coloring",
    "homophilic_counts",
    "random_coloring",
    "sample_counts",
]


class ColoringError(ValueError):
    """Invalid coloring input."""


class MissingVertexError(ColoringError):
    pass


class UnknownVertexError(ColoringError):
    pass


class DuplicateVertexError(ColoringError):
    pass


def falling_factorial(a: int, q: int) -> int:
    """q-th falling factorial a*(a-1)*...*(a-q+1), exact; a^(0) = 1.

    Returns 0 when q > a (a factor hits zero). Requires a >= 0, q >= 0.
    """
    if a < 0 or q < 0:
        raise ValueError("falling_factorial requires a >= 0 and q >= 0")
    return math.perm(a, q)


class Profile(_Record):
    """Class sizes (c_1, ..., c_s) of a labeled partition; all sizes >= 1."""

    sizes: tuple[int, ...]

    def __init__(self, sizes):
        checked = []
        for c in sizes:
            try:
                checked.append(operator.index(c))
            except TypeError:
                raise ValueError(f"class size {c!r} is not an integer") from None
        if not checked:
            raise ValueError("a profile needs at least one class")
        if any(c < 1 for c in checked):
            raise ValueError("every class size must be >= 1")
        super().__init__(tuple(checked))

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def s(self) -> int:
        return len(self.sizes)

    def coloring_count(self) -> int:
        """Number of distinct colorings with this profile (multinomial)."""
        total = math.factorial(self.n)
        for c in self.sizes:
            total //= math.factorial(c)
        return total


class Coloring(_Record, eq=False):
    """Assignment of each vertex index to a class index in 0..s-1, as a 1-D integer array."""

    assignment: np.ndarray
    class_labels: tuple[str, ...]

    def __init__(self, assignment, class_labels):
        a, s = assignment, len(class_labels)
        if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"):
            raise ValueError("a coloring's assignment must be a 1-D integer array")
        bad = np.flatnonzero((a < 0) | (a >= s))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has class index {a[bad[0]]}, outside 0..{s - 1}")
        super().__init__(assignment, class_labels)

    @property
    def n(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def s(self) -> int:
        return len(self.class_labels)

    @property
    def profile(self) -> Profile:
        """The class sizes in class order; ``ValueError`` names the classes that no vertex is in."""
        counts = np.bincount(self.assignment, minlength=self.s)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            names = ", ".join(repr(self.class_labels[i]) for i in empty[:5])
            more = "" if empty.size <= 5 else f" (+{empty.size - 5} more)"
            raise ValueError(f"no vertex is in class {names}{more}")
        return Profile(tuple(counts.tolist()))


class ObservedOutcome(_Record):
    """Per-class homophilic edge counts (edges with both endpoints in class i)."""

    counts: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


def load_coloring(source: TextSource, graph: Graph) -> Coloring:
    """Parse a TSV coloring file ("vertex-id<TAB>class-label") for ``graph``.

    Every graph vertex must appear exactly once; '#' starts a comment. The
    vertex id is the text before a line's first tab and the class label the
    text after it, both stripped. Class indices are assigned by first
    appearance of each label. The input is UTF-8; one leading byte-order
    mark is dropped.

    Two paths give the same result. When every graph label is one token of
    printable ASCII and every non-blank line is one such id, blanks holding
    the line's first tab and one printable-ASCII label, with every vertex
    named once, :func:`_token_coloring` reads the file from the edge list's
    token stream: it keys the ids together with the graph's id text, and
    builds neither ``graph.index`` nor ``graph.labels``. Any other input
    takes the general path the edge list takes too
    (:func:`~nethom.graphs._general`), with :func:`_line_pass` as its line
    pass, which raises at the first bad line: a line without a tab or with
    an empty field (:class:`ColoringError`), an id not in the graph
    (:class:`UnknownVertexError`) or a vertex already assigned
    (:class:`DuplicateVertexError`); the error names that line. A byte
    that is not UTF-8 raises :class:`ColoringError` naming its line, unless
    a line above it is bad. After the pass, unassigned vertices raise
    :class:`MissingVertexError`. Only the general path raises, so every
    error comes from it.
    """
    data = _read(source)
    fast = _token_coloring(data, graph)
    if fast is not None:
        return fast
    assignment, class_labels = _general(
        data, lambda text: _line_pass(text, graph), lambda message, line: ColoringError(f"line {line}: {message}")
    )
    missing = np.flatnonzero(assignment < 0)
    if missing.size:
        names = ", ".join(repr(graph.labels[int(i)]) for i in missing[:5])
        more = "" if missing.size <= 5 else f" (+{missing.size - 5} more)"
        raise MissingVertexError(f"no class assigned to vertex {names}{more}")
    return Coloring(assignment=assignment, class_labels=class_labels)


def _line_pass(text: str, graph: Graph) -> tuple[np.ndarray, tuple[str, ...]]:
    """The general path's pass over the lines of ``text``; raises at the first bad line.

    Returns each vertex's class index (int32, -1 where the text names no
    class for it) and the class labels in first-appearance order.
    """
    index = graph.index
    class_index: dict[str, int] = {}
    assign = array("i", [-1]) * graph.n  # C ints, which numpy reads in place
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        if not line.strip():
            continue
        if "\t" not in line:
            raise ColoringError(f"line {lineno}: expected 'vertex-id<TAB>class-label'")
        vid, label = line.split("\t", 1)
        vid = vid.strip()
        label = label.strip()
        if not vid or not label:
            raise ColoringError(f"line {lineno}: empty vertex id or class label")
        i = index.get(vid)
        if i is None:
            raise UnknownVertexError(f"line {lineno}: vertex {vid!r} is not in the graph")
        if assign[i] >= 0:
            raise DuplicateVertexError(f"line {lineno}: vertex {vid!r} assigned twice")
        assign[i] = class_index.setdefault(label, len(class_index))
    return np.frombuffer(assign, dtype=np.int32), tuple(class_index)


def _token_coloring(data: str | bytes, graph: Graph) -> Coloring | None:
    """The coloring of a TSV file of printable-ASCII tokens, read from the token stream, or None.

    Vectorized over the bytes, with no per-line Python loop, no
    ``graph.index`` and no ``graph.labels``. It applies only when the graph
    has an id text (``graph._id_text``, which needs every label to be a
    nonempty token of printable ASCII) and, after comments are removed,
    every non-blank line holds the id of a graph vertex, then blanks holding
    the line's first tab, then one label of printable ASCII, with each
    vertex named on exactly one line. The tokens are the whole token stream
    (:func:`~nethom.graphs._tokenize`), with ``tabbed`` for the first tabs.

    The graph's ids and the file's ids are keyed in one
    :func:`~nethom.graphs._keys` call, over the graph's id text followed by
    the file's ids joined as lines (:func:`~nethom.graphs._join`), so no
    label or blank of the file is copied; the graph's ids are distinct, so a
    table from key to vertex gives each file id its vertex. The class labels
    are keyed in another call and numbered by :class:`~nethom.graphs._Ids`.
    Any other input, every bad one included, returns None and takes the
    general path, which raises the error.
    """
    n = graph.n
    id_text = graph._id_text if n else None
    if id_text is None:
        return None
    tokens = _tokenize(data, tabbed=True)
    if tokens is None:
        return None
    raw, start, length = tokens
    del tokens
    if start.size != 2 * n:  # a vertex is missing, unknown or repeated
        return None
    id_start, id_length, label_start, label_length = start[0::2], length[0::2], start[1::2], length[1::2]
    # The graph's ids, one per line of its id text, then the file's ids: an
    # id is a graph vertex exactly when its index is below n.
    text = np.frombuffer(id_text + _join(raw, id_start, id_length), dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n")).astype(np.int32 if text.size < 2**31 else np.int64)
    line_start = np.zeros_like(ends)
    line_start[1:] = ends[:-1] + 1
    ends -= line_start  # the length of each line's id
    keys = _keys(text, line_start, ends)
    del text, line_start, ends
    table = np.full(int(keys.max()) + 1, n, dtype=np.int32)  # n for a key of no graph vertex
    table[keys[:n]] = np.arange(n, dtype=np.int32)  # the graph's ids are distinct
    vertex = table[keys[n:]]
    del keys, table
    seen = np.zeros(n + 1, dtype=bool)
    seen[vertex] = True
    if not bool(seen[:n].all()):  # n ids: an unknown or repeated one leaves a vertex unnamed
        return None
    keys = _keys(raw, label_start, label_length)
    labels = _Ids()
    labels.number(keys, label_start, label_length)
    assignment = np.empty(n, dtype=np.int32)
    assignment[vertex] = keys
    names = labels.text(raw).decode("ascii").splitlines()
    return Coloring(assignment=assignment, class_labels=tuple(names))


def homophilic_counts(g: Graph, f: Coloring) -> ObservedOutcome:
    """Count, for each class, the edges with both endpoints in that class.

    Memory: the edges are counted :data:`~nethom.graphs._CHUNK` at a time,
    so besides the s counts each step makes only block-sized gathers and
    intp copies of the block's endpoints.
    """
    if f.n != g.n:
        raise ValueError("coloring does not cover the graph's vertex set")
    counts = np.zeros(f.s, dtype=np.int64)
    for at in range(0, g.m, _CHUNK):
        counts += _count(f.assignment, g.edges_u[at : at + _CHUNK], g.edges_v[at : at + _CHUNK], f.s)
    return ObservedOutcome(tuple(counts.tolist()))


def random_coloring(p: Profile, seed: int) -> Coloring:
    """Draw a uniform random coloring of profile ``p``, deterministic per seed.

    The multiset of class labels is shuffled uniformly (Fisher-Yates via
    numpy's PCG64 generator) and assigned by position, which is uniform over
    all distinct colorings of the profile. Identical seeds give identical
    colorings, so baseline runs with a fixed seed list are reproducible.
    Class i is labeled ``str(i)``.
    """
    assignment = _draw(_pool(p), seed).astype(np.int32)
    return Coloring(assignment=assignment, class_labels=tuple(map(str, range(p.s))))


def sample_counts(g: Graph, p: Profile, seeds: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Homophilic counts and class degree masses of the coloring of each seed.

    Returns two int64 arrays of shape (len(seeds), s): row k holds
    ``homophilic_counts(g, random_coloring(p, seeds[k])).counts`` and the
    degree sum of each class under that coloring.

    The seeds are taken in batches of L = 8 // itemsize of the sampling
    pool: 8 while s <= 256, 4 for 16-bit and 2 for 32-bit class indices.
    The colorings of a batch fill the L columns of one (n, L) block, so
    one gather of a 64-bit word per edge endpoint serves the whole batch
    (:func:`_batch_counts`). The unused columns of a last, partial batch
    repeat its last coloring, so that batch costs what a full one does and
    its extra rows are dropped. A seed's row does not depend on its batch.
    Memory: beyond the rows, the float degrees, one coloring, the block and
    buffers for :data:`~nethom.graphs._CHUNK` // 8 edges at a time; no copy
    of an edge array is made.
    """
    if p.n != g.n:
        raise ValueError("profile does not cover the graph's vertex set")
    seeds = list(seeds)
    pool = _pool(p)
    lanes = 8 // pool.itemsize
    degrees = g.degrees.astype(np.float64)
    counts = np.empty((len(seeds), p.s), dtype=np.int64)
    mass = np.empty((len(seeds), p.s), dtype=np.int64)
    block = np.empty((g.n, lanes), dtype=pool.dtype)
    for first in range(0, len(seeds), lanes):
        batch = seeds[first : first + lanes]
        for j, seed in enumerate(batch):
            a = _draw(pool, seed)
            block[:, j] = a
            mass[first + j] = _degree_mass(a, degrees, p.s)
        block[:, len(batch) :] = a[:, None]
        counts[first : first + len(batch)] = _batch_counts(g, block, p.s)[: len(batch)]
    return counts, mass


def _batch_counts(g: Graph, block: np.ndarray, s: int) -> np.ndarray:
    """Per-class homophilic counts, (L, s) int64, of the colorings in the L columns of ``block``.

    ``block`` is (n, L) with L * itemsize == 8, so the classes of a vertex
    under the L colorings are one 64-bit word. The edges are walked
    :data:`~nethom.graphs._CHUNK` // 8 at a time: the words at both
    endpoints are gathered and compared lane by lane, giving L flags per
    edge, true where the edge is inside a class. Read as one L-byte
    integer, the flags pick the edges with any hit, and the hit lanes
    (edge * L + lane) are searched for only among those, where they are
    denser: numpy's nonzero search costs tens of nanoseconds a hit when
    fewer than a tenth of the flags are set. Each hit adds one to the key
    lane * s + class.
    """
    lanes = block.shape[1]
    words = block.view(np.uint64).reshape(g.n)
    step = _CHUNK // 8
    at_u = np.empty(step, dtype=np.uint64)
    at_v = np.empty(step, dtype=np.uint64)
    lanes_u, lanes_v = at_u.view(block.dtype), at_v.view(block.dtype)
    same = np.empty(step * lanes, dtype=bool)
    flags = same.view(f"u{lanes}")
    any_hit = np.empty(step, dtype=bool)
    hits = np.zeros(lanes * s, dtype=np.int64)
    eu, ev, m = g.edges_u, g.edges_v, g.m
    for at in range(0, m, step):
        k = min(step, m - at)
        # mode="clip" writes straight into out; every endpoint is in range
        words.take(eu[at : at + k], out=at_u[:k], mode="clip")
        words.take(ev[at : at + k], out=at_v[:k], mode="clip")
        np.equal(lanes_u[: k * lanes], lanes_v[: k * lanes], out=same[: k * lanes])
        kept = np.not_equal(flags[:k], 0, out=any_hit[:k]).nonzero()[0]
        hit = flags.take(kept).view(bool).nonzero()[0]
        key = (hit & (lanes - 1)) * s
        key += at_u.take(kept).view(block.dtype).take(hit)
        np.add.at(hits, key, 1)  # O(hits) per step, where a bincount is O(lanes * s)
    return hits.reshape(lanes, s)


def _pool(p: Profile) -> np.ndarray:
    """Class indices repeated by class size, in the smallest dtype holding s - 1."""
    return np.repeat(np.arange(p.s, dtype=np.min_scalar_type(p.s - 1)), p.sizes)


def _draw(pool: np.ndarray, seed: int) -> np.ndarray:
    """The coloring of ``seed``: equal, entry for entry, to ``default_rng(seed).permutation(pool)``.

    Permuting positions shuffles an int64 array, numpy's fast path, whatever
    the pool's dtype.
    """
    return pool[np.random.default_rng(seed).permutation(pool.shape[0])]


def _count(a: np.ndarray, u: np.ndarray, v: np.ndarray, s: int) -> np.ndarray:
    """Per-class count of the edges (u, v) whose endpoints share a class under ``a``."""
    cu = a.take(u)
    return np.bincount(cu.compress(cu == a.take(v)), minlength=s)


def _degree_mass(a: np.ndarray, degrees: np.ndarray, s: int) -> np.ndarray:
    """Per-class int64 sum of ``degrees`` under ``a``; exact while the sums stay below 2**53."""
    return np.bincount(a, weights=degrees, minlength=s).astype(np.int64)
