"""The O(s) quadratic forms of the covariance structure against exact values.

Sums of Sigma and w'Sigma w are compared with float() of the exact rational
matrix from ``covariance_exact``; the correlation forms, which involve
square roots, with fsum over the exact entries; the inverse forms with the
matrices read off ``corr_inv_quad`` (``conftest.corr_inverse``), which are
checked against the exact matrix.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nethom as nh
from conftest import corr_inverse, per_class_moments, sigma_inverse

# the prism C6 x K2: 3-regular, gamma > 0, and a class of 6 vertices has q = 0
PRISM = "".join(f"{i} {(i + 1) % 6}\n{i + 6} {(i + 1) % 6 + 6}\n{i} {i + 6}\n" for i in range(6))
FORMS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A graph on 2..9 vertices (n < 4 included) and a profile of it."""
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = nh.Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return nh.summarize(g), nh.Profile(tuple(sizes))


def _weights(s: int):
    return st.lists(
        st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False), min_size=s, max_size=s
    ).filter(lambda w: any(x > 0 for x in w))


def check_forms(summary, profile, w=None):
    ms = nh.moment_summary(summary, profile)
    cs = nh.covariance_structure(summary, profile)
    exact = nh.covariance_exact(summary, profile)
    k = profile.s
    pairs = [(i, j) for i in range(k) for j in range(k)]

    # exact fields: per-class gathers of the per-size tables and the diagonal
    # of the rank-one split, whose coefficient is gamma on every graph
    assert cs.mbar == tuple(ms.mbar[k] for k in ms.slot)
    assert cs.var == tuple(ms.var[k] for k in ms.slot)
    assert cs.q == tuple(v - cs.gamma * x * x for v, x in zip(cs.var, cs.vec))
    assert cs.gamma == nh.gamma_invariant(summary)

    # 1' Sigma 1
    scale = float(sum(abs(exact[i][j]) for i, j in pairs))
    assert abs(cs.var_total - float(sum(exact[i][j] for i, j in pairs))) <= 1e-12 * scale

    # w' Sigma w
    w = np.linspace(1.0, 2.0, k) if w is None else np.asarray(w, dtype=float)
    wf = [Fraction(x) for x in w]
    terms = [wf[i] * wf[j] * exact[i][j] for i, j in pairs]
    scale = float(sum(abs(t) for t in terms))
    assert abs(cs.quad(w) - float(sum(terms))) <= 1e-12 * scale

    # 1' Gamma 1 on the active set
    act = cs.active
    sd = {i: math.sqrt(float(cs.var[i])) for i in act}
    corr = [float(exact[i][j]) / (sd[i] * sd[j]) for i in act for j in act]
    assert abs(cs.var_zsum - math.fsum(corr)) <= 1e-12 * math.fsum(map(abs, corr))

    # z' Gamma^-1 z and the inverses, when the active block is invertible
    if cs.degenerate:
        assert sigma_inverse(cs) is None and corr_inverse(cs) is None
        with pytest.raises(ValueError):
            cs.corr_inv_quad(np.zeros(len(act)))
        return cs
    block = np.array([[float(exact[i][j]) for j in act] for i in act])
    cond = np.linalg.cond(block)
    assert np.max(np.abs(block @ sigma_inverse(cs) - np.eye(len(act)))) <= 1e-12 * cond
    gamma_block = block / np.outer(list(sd.values()), list(sd.values()))
    corr_inv = corr_inverse(cs)
    assert np.max(np.abs(gamma_block @ corr_inv - np.eye(len(act)))) <= 1e-12 * cond
    z = np.linspace(-1.0, 2.0, len(act))
    dense = float(z @ corr_inv @ z)
    bound = float(np.abs(z) @ np.abs(corr_inv) @ np.abs(z))
    assert abs(cs.corr_inv_quad(z) - dense) <= 1e-12 * bound
    return cs


@FORMS
@given(instances())
def test_forms_match_exact_values(inst):
    check_forms(*inst)


@FORMS
@given(st.data())
def test_quad_matches_exact_for_any_weights(data):
    summary, profile = data.draw(instances())
    check_forms(summary, profile, data.draw(_weights(profile.s)))


@pytest.mark.parametrize(
    "edges,sizes,regime",
    [
        ("x a\nx b\nx c\nx d", (2, 2, 1), "negative"),  # star: hub, gamma < 0
        ("a b\nb c\nc d\nd e\ne f\nf a", (2, 2, 2), "positive"),  # 6-cycle
        ("a b\nc d", (2, 2), "positive"),  # matching: singular block
        ("a b\nb c", (2, 1), "small"),  # n < 4
        ("a b\nb c", (1, 1, 1), "small"),  # n < 4, all classes degenerate
        ("a b\na c\na d\nb c\nb d\nc d", (2, 2), "zero"),  # K4: constant counts
        ("a b\nb c\nc d\nd e\ne a", (4, 1), "zero-variance"),
        ("a b\nb c\nc d\nd e\ne a\na c", (2, 2, 1), "zero-variance"),
        (PRISM, (6, 3, 3), "zero-q"),  # one q = 0: solved row by row
        (PRISM, (6, 4, 2), "zero-q"),
        (PRISM, (6, 6), "zero-q"),  # two q = 0: Sigma singular
    ],
)
def test_forms_on_named_instances(edges, sizes, regime):
    g = nh.load_edge_list(edges)
    cs = check_forms(nh.summarize(g), nh.Profile(sizes))
    if regime == "negative":
        assert cs.gamma < 0
    elif regime == "positive":
        assert cs.gamma > 0
    elif regime == "zero-q":
        assert cs.degenerate is (cs.q.count(0) > 1)
    elif regime == "small":  # no two edges are vertex-disjoint
        assert cs.gamma == -Fraction(g.m, math.perm(g.n, 2)) ** 2
    else:
        assert len(cs.active) < len(sizes)


def test_only_an_exact_zero_q_is_solved():
    # a q within the tolerance of 0 but not 0 is withheld as before, not solved row by row
    p = nh.Profile((6, 3, 3))
    cs = nh.covariance_structure(nh.summarize(nh.load_edge_list(PRISM)), p)
    assert cs.q[0] == 0 and not cs.degenerate
    var = (cs.var[0] + Fraction(1, 10**20), *cs.var[1:])
    near = nh.CovarianceStructure(cs.gamma, cs.vec, per_class_moments(p.sizes, cs.mbar, var))
    assert 0 < near.q[0] < 1e-12 * max(near.var) and near.degenerate


def test_small_graphs_match_the_mean_vector_form():
    # for n < 4, E[M_i M_j] = 0 off the diagonal, so Sigma = diag(q) - Mbar Mbar';
    # the rank-one pair (gamma, c^(2)) must give the same structure
    seen = 0
    for n in (1, 2, 3):
        pairs = list(combinations(range(n), 2))
        for keep in product((False, True), repeat=len(pairs)):
            summary = nh.summarize(nh.Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]))
            for cuts in (c for r in range(n) for c in combinations(range(1, n), r)):
                profile = nh.Profile(tuple(b - a for a, b in zip((0, *cuts), (*cuts, n))))
                ms = nh.moment_summary(summary, profile)
                cs = nh.covariance_structure(summary, profile)
                means = nh.CovarianceStructure(Fraction(-1), ms.mbar, ms)
                assert cs.exact() == means.exact()
                assert (cs.active, cs.degenerate) == (means.active, means.degenerate)
                assert cs.var_total == means.var_total
                seen += 1
    assert seen == 37


def test_index_report_builds_no_dense_view():
    # at s = 2000, no attribute of the structure is a matrix
    n, s = 6000, 2000
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + 3) for i in range(0, n - 3, 5)]
    g = nh.Graph.from_edges(n, edges)
    summary = nh.summarize(g)
    profile = nh.Profile((3,) * s)
    cs = nh.covariance_structure(summary, profile)
    f = nh.random_coloring(profile, seed=1)
    rep = nh.build_index_report(g, f, nh.homophilic_counts(g, f), cs)
    assert rep.a is not None and rep.h is not None
    assert all(np.ndim(v) < 2 for v in vars(cs).values())
