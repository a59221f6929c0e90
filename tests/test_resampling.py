"""The resampling engine and the row-wise index evaluator against per-sample references.

Each row of ``sample_counts`` must be the counts of ``random_coloring`` for
the same seed, and each row-wise report must equal, field for field under
``==``, both ``build_index_report`` and ``_fraction_report`` below: the
per-class ``Fraction`` arithmetic the index formulas are defined by.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh
from nethom import colorings, indices, oracle
from nethom.cli import _PRESET_FLAGS

ROWS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A graph, a profile covering it, a seed list, and preset options.

    Class counts range over s = 1, small s, and s > 256, where the sampling
    pool needs a 16-bit dtype; class sizes are mostly 1 or 2, so singleton
    classes, n < 4 and graphs without edges all occur.
    """
    s = draw(st.one_of(st.just(1), st.integers(1, 6), st.integers(255, 270)))
    sizes = draw(st.lists(st.sampled_from((1, 1, 2, 3, 5)), min_size=s, max_size=s))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m_target = draw(st.one_of(st.just(0), st.integers(1, 3 * n)))
    edges = []
    if n >= 2:
        u = rng.integers(0, n, m_target)
        v = rng.integers(0, n, m_target)
        edges = [(int(a), int(b)) for a, b in zip(u, v) if a != b]
    g = nh.Graph.from_edges(n, edges, dedupe=True)
    seeds = draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=4))
    presets = draw(st.sampled_from(tuple(_PRESET_FLAGS.values())))
    return g, nh.Profile(tuple(sizes)), seeds, presets


def _fraction_report(g, f, o, cs, presets):
    """Every index from exact per-class Fractions, rounded once per formula."""
    dev = [Fraction(c) - mb for c, mb in zip(o.counts, cs.mbar)]
    z = np.zeros(cs.s)
    for i in cs.active:
        z[i] = float(dev[i]) / math.sqrt(float(cs.var[i]))
    t = sum(dev)
    j_theta = {}
    for name in presets:
        try:
            w = nh.weight_preset(name, g, f.profile)
        except nh.UndefinedQuantityError:
            j_theta[name] = None
            continue
        j_theta[name] = nh.index_j_theta(o, cs, w)
        ws = np.ldexp(w.w, -math.frexp(float(w.w.max()))[1])
        y = np.array([float(d) for d in dev])
        assert j_theta[name] == indices._squash(float(ws @ y), cs.quad(ws))
    q = None
    if g.m:
        mass = [sum(int(g.degrees[v]) for v in np.flatnonzero(f.assignment == i))
                for i in range(cs.s)]
        q = float(sum(Fraction(mi, g.m) - Fraction(d, 2 * g.m) ** 2
                      for mi, d in zip(o.counts, mass)))
    return {
        "observed": o.counts,
        "mbar": tuple(float(x) for x in cs.mbar),
        "z": tuple(z.tolist()),
        "a": nh.index_a(z, cs),
        "r": indices._fold(float(t), cs.var_total) if t else 0.0,
        "h": nh.index_h(z, cs),
        "j_theta": j_theta,
        "newman_q": q,
        "descriptive_ratio": float(Fraction(o.total, g.m)) if g.m else None,
    }


@ROWS
@given(instances())
def test_engine_rows_are_the_seeded_colorings(case):
    g, p, seeds, _ = case
    counts, mass = nh.sample_counts(g, p, seeds)
    assert counts.shape == mass.shape == (len(seeds), p.s)
    for seed, row, row_mass in zip(seeds, counts.tolist(), mass.tolist()):
        f = nh.random_coloring(p, seed)
        assert f.assignment.dtype == np.int32
        assert tuple(row) == nh.homophilic_counts(g, f).counts
        by_class = np.zeros(p.s, dtype=np.int64)
        np.add.at(by_class, f.assignment, g.degrees)
        assert row_mass == by_class.tolist()


@ROWS
@given(instances())
def test_row_reports_equal_the_fraction_formulas(case):
    g, p, seeds, presets = case
    summary = nh.summarize(g)
    cs = nh.covariance_structure(summary, p)
    labels = tuple(map(str, range(p.s)))
    evaluator = nh.IndexEvaluator(g, p, cs, labels, presets=presets)
    counts, mass = nh.sample_counts(g, p, seeds)
    for seed, row, row_mass in zip(seeds, counts.tolist(), mass.tolist()):
        f = nh.random_coloring(p, seed)
        o = nh.homophilic_counts(g, f)
        rep = evaluator.report(row, row_mass)
        assert rep == nh.build_index_report(g, f, o, cs, presets=presets)
        for field, want in _fraction_report(g, f, o, cs, presets).items():
            assert getattr(rep, field) == want, field
        assert rep.z == tuple(nh.z_scores(o, cs).tolist())
        assert rep.r == nh.index_r(o, cs)
        assert rep.newman_q == nh.newman_modularity(g, f, o)


@pytest.mark.parametrize("s, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_pool_uses_the_smallest_dtype_holding_every_class(s, dtype):
    pool = colorings._pool(nh.Profile((2,) * s))
    assert pool.dtype == dtype
    assert np.bincount(pool).tolist() == [2] * s


def _random_graph(n, m, seed):
    """A simple graph on n vertices: the first m distinct non-loop pairs of seeded draws."""
    rng = np.random.default_rng(seed)
    draws = zip(rng.integers(0, n, 3 * m).tolist(), rng.integers(0, n, 3 * m).tolist())
    pairs = dict.fromkeys((min(a, b), max(a, b)) for a, b in draws if a != b)
    g = nh.Graph.from_edges(n, list(pairs)[:m])
    assert g.m == m
    return g


# One profile per pool width: 8 lanes of uint8 (s <= 256), 4 of uint16 (s in
# 257..65536), 2 of uint32 (s = 65,537: 65,536 singleton classes and one
# class of 20,000, so that its lanes see hits).
BATCH_PROFILES = {
    np.uint8: (40, 70, 90, 100, 100),
    np.uint16: (1, 2, 3) * 86 + (150, 150),
    np.uint32: (1,) * 65536 + (20_000,),
}
STEP_EDGES = 2 * (colorings._CHUNK // 8) + 5  # three steps, the last a partial one


@pytest.mark.parametrize("m", [0, STEP_EDGES], ids=["no edges", "three steps"])
@pytest.mark.parametrize("dtype", list(BATCH_PROFILES), ids=lambda t: t.__name__)
def test_rows_do_not_depend_on_the_batch(dtype, m):
    """Seed lists end at every place in a batch; each row is its seed's coloring, alone or batched."""
    p = nh.Profile(BATCH_PROFILES[dtype])
    assert colorings._pool(p).dtype == dtype
    g = _random_graph(p.n, m, seed=p.s)
    lanes = 8 // np.dtype(dtype).itemsize
    for length in (1, lanes - 1, lanes, lanes + 1, 2 * lanes + 1):
        seeds = list(range(10 * length, 11 * length))
        counts, mass = nh.sample_counts(g, p, seeds)
        for seed, row, row_mass in zip(seeds, counts, mass):
            assert tuple(row.tolist()) == nh.homophilic_counts(g, nh.random_coloring(p, seed)).counts
            alone, alone_mass = nh.sample_counts(g, p, [seed])
            assert np.array_equal(alone[0], row) and np.array_equal(alone_mass[0], row_mass)
    assert m == 0 or counts.any()


def test_mc_tail_counts_hits_across_seed_blocks():
    g = nh.Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    p = nh.Profile((3, 3, 3))
    seen = []

    def total(counts):
        seen.append(counts)
        return sum(counts)

    with mock.patch.object(oracle, "_MC_BLOCK", 7):
        est = nh.mc_tail(g, p, total, 2, side="ge", samples=30, seed=4)
    want = [nh.homophilic_counts(g, nh.random_coloring(p, seed)).counts
            for seed in range(4, 34)]
    assert seen == want
    assert all(type(c) is int for out in seen for c in out)
    assert est.estimate == sum(sum(out) >= 2 for out in want) / 30


def test_engine_rejects_a_profile_of_another_size():
    g = nh.Graph.from_edges(4, [(0, 1)])
    with pytest.raises(ValueError, match="vertex set"):
        nh.sample_counts(g, nh.Profile((2, 3)), [0])
