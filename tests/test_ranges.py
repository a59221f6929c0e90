"""Ranges of every index, and monotonicity in the counts, on random rows.

For any row of homophilic counts, ``a``, ``r`` and every ``j_theta`` lie in
[-1, 1] and ``h`` in [0, 1]; adding 1 to any single count, with the moments
fixed, never decreases ``a``, ``r`` or any ``j_theta``. ``h`` scores a norm,
so it is not monotone and is left out of the second check.
"""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh

RANGES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A graph (possibly edgeless), a profile covering it, and rows of counts.

    The first row is a seeded random coloring's; the others draw each count
    in [0, C(c_i, 2)] whatever the graph, so rows need not be attainable.
    """
    s = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 5), min_size=s, max_size=s))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m_target = draw(st.one_of(st.just(0), st.integers(1, 3 * n)))
    u = rng.integers(0, n, m_target)
    v = rng.integers(0, n, m_target)
    g = nh.Graph.from_edges(n, [(int(a), int(b)) for a, b in zip(u, v) if a != b], dedupe=True)
    p = nh.Profile(tuple(sizes))
    counts, mass = nh.sample_counts(g, p, [draw(st.integers(0, 2**32))])
    rows = counts.tolist() + draw(st.lists(
        st.tuples(*(st.integers(0, comb(c, 2)) for c in sizes)).map(list), max_size=3))
    return g, p, rows, mass[0].tolist()


def _indices(rep):
    return {"a": rep.a, "r": rep.r, **{f"j_theta.{k}": v for k, v in rep.j_theta.items()}}


@RANGES
@given(instances())
def test_indices_in_range_and_nondecreasing_in_each_count(case):
    g, p, rows, mass = case
    cs = nh.covariance_structure(nh.summarize(g), p)
    evaluator = nh.IndexEvaluator(g, p, cs, tuple(f"c{i}" for i in range(p.s)))
    for row in rows:
        rep = evaluator.report(row, mass)
        lo = _indices(rep)
        for name, value in lo.items():
            assert value is None or -1.0 <= value <= 1.0, (name, value)
        assert rep.h is None or 0.0 <= rep.h <= 1.0, rep.h
        for i in range(p.s):
            up = list(row)
            up[i] += 1
            hi = _indices(evaluator.report(up, mass))
            for name, value in lo.items():
                assert (value is None) == (hi[name] is None), name
                assert value is None or hi[name] >= value, (name, row, i, value, hi[name])
