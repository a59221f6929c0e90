"""Moments keyed by class size against one class per slot and a per-class reference.

``covariance_structure`` computes the exact moments once per distinct class
size and gathers them per class. Built again from the same moments with one
class per slot, the structure must be equal on every exact field and
bit-identical on every float form, and each exact field must equal the
closed forms evaluated class by class.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nethom as nh

SLOTS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EXACT_FIELDS = ("mbar", "var", "vec", "q", "mbar_num", "mbar_den", "active", "degenerate")
DENSE_VIEWS = ("sigma", "corr", "sigma_inv", "corr_inv")


@st.composite
def instances(draw):
    """Up to 300 classes drawn from a few sizes (1, 2 and 3 among them) and a graph.

    The graph has n = sum of the sizes (n < 4 hits the fallback) and up to
    3n edges (m = 0 included), drawn by a seeded generator.
    """
    pool = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 12]), min_size=1, max_size=4))
    s = draw(st.integers(1, 300))
    sizes = tuple(draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s)))
    seed = draw(st.integers(0, 2**32 - 1))
    n = sum(sizes)
    rng = np.random.default_rng(seed)
    draws = int(rng.integers(0, min(3 * n, n * (n - 1) // 2) + 1))
    u, v = rng.integers(0, n, draws), rng.integers(0, n, draws)
    keep = u != v
    g = nh.Graph.from_edges(n, np.stack([u[keep], v[keep]], axis=1), dedupe=True)
    return nh.summarize(g), nh.Profile(sizes), seed


def reference(summary, sizes):
    """The exact per-class fields, from the closed forms applied class by class."""
    n, m, pi3 = summary.n, summary.m, summary.pi3
    gamma = nh.gamma_invariant(summary)

    def ratio(c, k):  # c^(k) / n^(k), 0 when the numerator is 0
        num = math.perm(c, k)
        return Fraction(num, math.perm(n, k)) if num else Fraction(0)

    mbar, var = [], []
    for c in sizes:
        mk = m * ratio(c, 2)
        mbar.append(mk)
        var.append(mk * (1 - mk) + 2 * ((ratio(c, 3) - ratio(c, 4)) * pi3
                                        + ratio(c, 4) * (m * (m - 1) // 2)))
    coef = Fraction(-1) if gamma is None else gamma
    vec = mbar if gamma is None else [math.perm(c, 2) for c in sizes]
    den = math.lcm(*(x.denominator for x in mbar))
    return {
        "mbar": tuple(mbar),
        "var": tuple(var),
        "vec": tuple(vec),
        "q": tuple(v - coef * x * x for v, x in zip(var, vec)),
        "mbar_num": tuple(x.numerator * (den // x.denominator) for x in mbar),
        "mbar_den": den,
    }


def _same_view(a, b) -> bool:
    return a is None and b is None or np.array_equal(a, b)


@SLOTS
@given(instances())
@example((nh.summarize(nh.load_edge_list("a b\nb c")), nh.Profile((1, 2)), 0))  # n < 4
@example((nh.summarize(nh.load_edge_list("v a\nv b\nv c\nv d")), nh.Profile((1, 3)), 0))  # m = 0
@example((nh.summarize(nh.load_edge_list("a b\nb c\nc d\nd a")), nh.Profile((1, 2, 1)), 0))
def test_grouped_by_size_equals_one_class_per_slot(inst):
    summary, profile, seed = inst
    ms = nh.moment_summary(summary, profile)
    assert ms.size == tuple(sorted(set(profile.sizes)))
    cs = nh.covariance_structure(summary, profile)
    at = ms.slot.tolist()
    one = nh.MomentSummary(
        profile.sizes, tuple(ms.mbar[k] for k in at), tuple(ms.var[k] for k in at),
        np.arange(profile.s),
    )
    cs1 = nh.CovarianceStructure(cs.gamma, cs.coef, cs.vec, one)

    for name in EXACT_FIELDS:
        assert getattr(cs, name) == getattr(cs1, name), name
    if profile.s <= 80:  # s^2 exact products; var and vec are compared above on all
        assert cs.exact() == cs1.exact()
    for name, want in reference(summary, profile.sizes).items():
        assert getattr(cs, name) == want, name

    rng = np.random.default_rng(seed)
    w = rng.random(profile.s)
    assert cs.var_total == cs1.var_total and cs.var_zsum == cs1.var_zsum
    assert cs.quad(w) == cs1.quad(w)
    if not cs.degenerate:
        z = rng.standard_normal(len(cs.active))
        assert cs.corr_inv_quad(z) == cs1.corr_inv_quad(z)
    for name in DENSE_VIEWS:
        assert _same_view(getattr(cs, name), getattr(cs1, name)), name
