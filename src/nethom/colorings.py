"""Vertex colorings with a fixed profile: parsing, counting, uniform sampling.

A *profile* is the vector of class sizes of a labeled partition of the
vertices. The null model treats all colorings with the given profile as
equally likely; :func:`random_coloring` draws from that law by shuffling the
multiset of class labels with a seed-deterministic uniform shuffle, and
:func:`sample_counts` is the one resampling loop: it draws the same coloring
for each seed of a list and keeps only its homophilic counts and class
degree masses.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import (
    _SPACE,
    Graph,
    TextSource,
    _decode,
    _first_appearance,
    _keys,
    _read,
    _texts,
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


@dataclass(frozen=True)
class Profile:
    """Class sizes (c_1, ..., c_s) of a labeled partition; all sizes >= 1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(c) for c in self.sizes))
        if len(self.sizes) == 0:
            raise ValueError("a profile needs at least one class")
        if any(c < 1 for c in self.sizes):
            raise ValueError("every class size must be >= 1")

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


@dataclass(frozen=True, eq=False)
class Coloring:
    """Assignment of each vertex index to a class index in 0..s-1."""

    assignment: np.ndarray
    class_labels: tuple[str, ...]

    def __post_init__(self):
        self.assignment.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def s(self) -> int:
        return len(self.class_labels)

    @property
    def profile(self) -> Profile:
        counts = np.bincount(self.assignment, minlength=self.s)
        return Profile(tuple(int(c) for c in counts))


@dataclass(frozen=True)
class ObservedOutcome:
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
    appearance of each label.

    Two paths give the same result. When every graph label is one token of
    printable ASCII (as :func:`~nethom.graphs.load_edge_list` assigns them
    on its vectorized path) and every non-blank line is one such id, blanks
    holding the line's first tab and one printable-ASCII label, with every
    vertex named once, :func:`_token_coloring` parses the file vectorized,
    without building ``graph.index``. Any other input takes the
    general path: one pass over the lines that raises at the first bad one:
    a line without a tab or with an empty field (:class:`ColoringError`),
    an id not in the graph (:class:`UnknownVertexError`) or a vertex already
    assigned (:class:`DuplicateVertexError`); the error names that line.
    After the pass, unassigned vertices raise :class:`MissingVertexError`.
    Only the general path raises, so every error comes from it.
    """
    data = _read(source)
    fast = _token_coloring(data, graph)
    if fast is not None:
        return fast
    text = _decode(data)
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
    assignment = np.frombuffer(assign, dtype=np.int32)
    missing = np.flatnonzero(assignment < 0)
    if missing.size:
        names = ", ".join(repr(graph.labels[int(i)]) for i in missing[:5])
        more = "" if missing.size <= 5 else f" (+{missing.size - 5} more)"
        raise MissingVertexError(f"no class assigned to vertex {names}{more}")
    return Coloring(assignment=assignment, class_labels=tuple(class_index))


_TAB = ord("\t")
# the bytes of graph labels the vectorized path takes: printable tokens, one per line
_LABEL_BYTES = bytes(range(_SPACE + 1, 0x7F)) + b"\n"


def _token_coloring(data: str | bytes, graph: Graph) -> Coloring | None:
    """The general path's coloring of a TSV file of printable-ASCII tokens, or None.

    Vectorized over the bytes, with no per-line Python loop and no
    ``graph.index``. It applies only when every graph label is one
    nonempty token of printable ASCII without blanks and, after comments
    are removed (:func:`~nethom.graphs._tokenize`), every non-blank line
    holds the id of a graph vertex, then blanks holding the line's first
    tab, then one label of printable ASCII, with each vertex named on
    exactly one line. The graph's labels followed by the file's ids are
    keyed as one token array by :func:`~nethom.graphs._keys`, so both get
    the same encoding, and so are the class labels. Any other input, every
    bad one included, and any tokens :func:`~nethom.graphs._keys` declines
    return None and take the general path, which raises the error.
    """
    n = graph.n
    labels = "\n".join(graph.labels)
    if not n or not labels.isascii():
        return None
    labels = labels.encode("ascii")
    # printable tokens and n - 1 separators only: checked before any work on the file
    if labels.translate(None, _LABEL_BYTES) or labels.count(b"\n") != n - 1:
        return None
    tokens = _tokenize(data)
    if tokens is None:
        return None
    data, raw, start, stop, _ = tokens
    del tokens
    if start.size != 2 * n:  # a vertex is missing, unknown or repeated
        return None
    id_start, id_stop, label_start, label_stop = start[0::2], stop[0::2], start[1::2], stop[1::2]
    # The tabs and line ends around each id: the one before it must not be a
    # tab, and the one after it must be a tab before the label.
    breaks = np.flatnonzero(raw < _SPACE)
    at = np.searchsorted(breaks, id_start)
    if not bool((at < breaks.size).all()):
        return None
    after, before = breaks[at], breaks[at - 1]  # at - 1 wraps where at == 0, which is masked
    ok = (raw[after] == _TAB) & (after < label_start) & ((at == 0) | (raw[before] != _TAB))
    if not bool(ok.all()):
        return None
    del breaks, at, after, before, ok
    # The graph's labels, then a line end, then the file: the labels' tokens
    # and the ids are keyed together, the labels first, so an id is a graph
    # vertex exactly when its index is below n.
    ends = np.flatnonzero(np.frombuffer(labels, dtype=np.uint8) == ord("\n"))
    shift = len(labels) + 1
    vertex_start = np.concatenate(([0], ends + 1, id_start + shift))
    vertex_stop = np.concatenate((ends, [len(labels)], id_stop + shift))
    del ends
    # an empty graph label keys as zeros, which no id does: its vertex goes unnamed below
    keys = _keys(np.frombuffer(b"\n".join((labels, data)), dtype=np.uint8), vertex_start, vertex_stop)
    del labels, vertex_start, vertex_stop
    if keys is None:
        return None
    vertex = _first_appearance(keys)[1][n:]
    del keys
    if not bool((vertex < n).all()):
        return None
    seen = np.zeros(n, dtype=bool)
    seen[vertex] = True
    if not bool(seen.all()):  # n ids, all in the graph: a repeat leaves a vertex unnamed
        return None
    keys = _keys(raw, label_start, label_stop)
    if keys is None:
        return None
    names, classes = _first_appearance(keys)
    assignment = np.empty(n, dtype=np.int32)
    assignment[vertex] = classes
    return Coloring(assignment=assignment, class_labels=_texts(names))


def homophilic_counts(g: Graph, f: Coloring) -> ObservedOutcome:
    """Count, for each class, the edges with both endpoints in that class."""
    if f.n != g.n:
        raise ValueError("coloring does not cover the graph's vertex set")
    u, v = _edge_index(g)
    return ObservedOutcome(tuple(_count(f.assignment, u, v, f.s).tolist()))


def random_coloring(
    p: Profile, seed: int, class_labels: tuple[str, ...] | None = None
) -> Coloring:
    """Draw a uniform random coloring of profile ``p``, deterministic per seed.

    The multiset of class labels is shuffled uniformly (Fisher-Yates via
    numpy's PCG64 generator) and assigned by position, which is uniform over
    all distinct colorings of the profile. Identical seeds give identical
    colorings, so baseline runs with a fixed seed list are reproducible.
    """
    if class_labels is None:
        class_labels = tuple(str(i) for i in range(p.s))
    elif len(class_labels) != p.s:
        raise ValueError("class_labels must match the number of classes")
    assignment = _draw(_pool(p), seed).astype(np.int32)
    return Coloring(assignment=assignment, class_labels=class_labels)


def sample_counts(g: Graph, p: Profile, seeds: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Homophilic counts and class degree masses of the coloring of each seed.

    Returns two int64 arrays of shape (len(seeds), s): row k holds
    ``homophilic_counts(g, random_coloring(p, seeds[k])).counts`` and the
    degree sum of each class under that coloring. Only the rows are kept:
    beyond them, the loop holds one coloring and intp copies of the edge
    arrays.
    """
    if p.n != g.n:
        raise ValueError("profile does not cover the graph's vertex set")
    seeds = list(seeds)
    pool = _pool(p)
    u, v = _edge_index(g)
    degrees = g.degrees.astype(np.float64)
    counts = np.empty((len(seeds), p.s), dtype=np.int64)
    mass = np.empty((len(seeds), p.s), dtype=np.int64)
    for k, seed in enumerate(seeds):
        a = _draw(pool, seed)
        counts[k] = _count(a, u, v, p.s)
        mass[k] = _degree_mass(a, degrees, p.s)
    return counts, mass


def _pool(p: Profile) -> np.ndarray:
    """Class indices repeated by class size, in the smallest dtype holding s - 1."""
    return np.repeat(np.arange(p.s, dtype=np.min_scalar_type(p.s - 1)), p.sizes)


def _draw(pool: np.ndarray, seed: int) -> np.ndarray:
    """The coloring of ``seed``: equal, entry for entry, to ``default_rng(seed).permutation(pool)``.

    Permuting positions shuffles an int64 array, numpy's fast path, whatever
    the pool's dtype.
    """
    return pool[np.random.default_rng(seed).permutation(pool.shape[0])]


def _edge_index(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The edge endpoints as intp, which ``take`` uses without a cast per call."""
    return g.edges_u.astype(np.intp, copy=False), g.edges_v.astype(np.intp, copy=False)


def _count(a: np.ndarray, u: np.ndarray, v: np.ndarray, s: int) -> np.ndarray:
    """Per-class count of the edges (u, v) whose endpoints share a class under ``a``."""
    cu = a.take(u)
    return np.bincount(cu.compress(cu == a.take(v)), minlength=s)


def _degree_mass(a: np.ndarray, degrees: np.ndarray, s: int) -> np.ndarray:
    """Per-class int64 sum of ``degrees`` under ``a``; exact while the sums stay below 2**53."""
    return np.bincount(a, weights=degrees, minlength=s).astype(np.int64)
