"""Invariance of the observed counts and every index under relabelings.

Relabeling the vertices and shuffling the edge order must leave the observed
counts and every index unchanged. Permuting the classes must permute the
z-scores and expected counts and leave a, r, h unchanged, and j_theta
unchanged when its weights are permuted with the classes.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh

INVARIANCE = settings(max_examples=150, deadline=None, derandomize=True, database=None)
REL = 1e-12


@st.composite
def instances(draw):
    """A graph on 4..9 vertices, a coloring with every class used, and weights."""
    n = draw(st.integers(4, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    s = draw(st.integers(1, n))
    rest = draw(st.lists(st.integers(0, s - 1), min_size=n - s, max_size=n - s))
    assignment = draw(st.permutations(list(range(s)) + rest))
    w = draw(
        st.lists(st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False),
                 min_size=s, max_size=s).filter(lambda w: any(x > 0 for x in w))
    )
    return n, edges, assignment, w


def _coloring(assignment, labels):
    return nh.Coloring(assignment=np.array(assignment, dtype=np.int64), class_labels=tuple(labels))


def _evaluate(n, edges, f, w):
    g = nh.Graph.from_edges(n, edges)
    cs = nh.covariance_structure(nh.summarize(g), f.profile)
    o = nh.homophilic_counts(g, f)
    j_w = nh.index_j_theta(o, cs, nh.WeightVector(np.array(w)))
    return o.counts, nh.build_index_report(g, f, o, cs), j_w, cs


def _close(x, y):
    if x is None or y is None:
        return x is y
    return abs(x - y) <= REL * max(abs(x), abs(y))


def _same_indices(rep, other, j_w, other_j_w, cs, other_cs):
    assert _close(rep.a, other.a), (rep.a, other.a)
    assert _close(rep.r, other.r), (rep.r, other.r)
    assert _close(rep.h, other.h), (rep.h, other.h)
    assert _close(j_w, other_j_w), (j_w, other_j_w)
    assert rep.j_theta.keys() == other.j_theta.keys()
    for name in rep.j_theta:
        assert _close(rep.j_theta[name], other.j_theta[name]), name
    assert _close(float(cs.gamma), float(other_cs.gamma))
    assert _close(rep.newman_q, other.newman_q)
    assert _close(rep.descriptive_ratio, other.descriptive_ratio)


@INVARIANCE
@given(instances(), st.data())
def test_vertex_relabeling_and_edge_order(inst, data):
    n, edges, assignment, w = inst
    perm = data.draw(st.permutations(range(n)))
    order = data.draw(st.permutations(range(len(edges))))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = []
    for k in order:
        u, v = perm[edges[k][0]], perm[edges[k][1]]
        moved.append((v, u) if flips[k] else (u, v))
    moved_assignment = [0] * n
    for v, c in enumerate(assignment):
        moved_assignment[perm[v]] = c
    labels = [f"c{c}" for c in range(len(w))]

    counts, rep, j_w, cs = _evaluate(n, edges, _coloring(assignment, labels), w)
    counts2, rep2, j_w2, cs2 = _evaluate(n, moved, _coloring(moved_assignment, labels), w)
    assert counts2 == counts
    assert all(_close(x, y) for x, y in zip(rep2.z, rep.z))
    assert all(_close(x, y) for x, y in zip(rep2.mbar, rep.mbar))
    _same_indices(rep, rep2, j_w, j_w2, cs, cs2)


@INVARIANCE
@given(instances(), st.data())
def test_class_permutation(inst, data):
    n, edges, assignment, w = inst
    s = len(w)
    perm = data.draw(st.permutations(range(s)))  # class c becomes class perm[c]
    labels = [f"c{c}" for c in range(s)]
    moved_labels, moved_w = [None] * s, [0.0] * s
    for c in range(s):
        moved_labels[perm[c]] = labels[c]
        moved_w[perm[c]] = w[c]

    counts, rep, j_w, cs = _evaluate(n, edges, _coloring(assignment, labels), w)
    moved_assignment = [perm[c] for c in assignment]
    counts2, rep2, j_w2, cs2 = _evaluate(n, edges, _coloring(moved_assignment, moved_labels), moved_w)
    for c in range(s):
        assert counts2[perm[c]] == counts[c]
        assert _close(rep2.z[perm[c]], rep.z[c])
        assert _close(rep2.mbar[perm[c]], rep.mbar[c])
    _same_indices(rep, rep2, j_w, j_w2, cs, cs2)
