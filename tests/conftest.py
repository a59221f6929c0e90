"""Shared fixtures and independent brute-force oracles for the test suite."""

from itertools import combinations

import numpy as np
import pytest

import nethom as nh


# --- small named graphs -----------------------------------------------------

@pytest.fixture
def p3():
    """Path a-b-c."""
    return nh.load_edge_list("a b\nb c")


@pytest.fixture
def p4():
    """Path a-b-c-d."""
    return nh.load_edge_list("a b\nb c\nc d")


@pytest.fixture
def k4():
    return nh.load_edge_list("a b\na c\na d\nb c\nb d\nc d")


@pytest.fixture
def star4():
    """Star with center x and leaves a, b, c."""
    return nh.load_edge_list("x a\nx b\nx c")


@pytest.fixture
def two_edges():
    """Two vertex-disjoint edges a-b, c-d."""
    return nh.load_edge_list("a b\nc d")


# --- independent oracles (never reuse the code paths under test) ------------

def brute_pi3(g: nh.Graph) -> int:
    """Two-edge paths = unordered edge pairs sharing exactly one vertex."""
    edges = list(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    count = 0
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 3:
            count += 1
    return count


def brute_disjoint_ordered_pairs(g: nh.Graph) -> int:
    edges = list(zip(g.edges_u.tolist(), g.edges_v.tolist()))
    count = 0
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4:
            count += 2
    return count


def monochrome_edge_scan(g: nh.Graph, f: nh.Coloring) -> int:
    """Total monochromatic edges by a direct per-edge loop."""
    a = f.assignment
    return sum(1 for u, v in zip(g.edges_u.tolist(), g.edges_v.tolist()) if a[u] == a[v])


def random_gnp(rng: np.random.Generator, n: int, p: float, min_edges: int = 0) -> nh.Graph:
    """Seeded G(n, p); resamples until at least min_edges edges exist."""
    pairs = list(combinations(range(n), 2))
    while True:
        mask = rng.random(len(pairs)) < p
        edges = [e for e, keep in zip(pairs, mask) if keep]
        if len(edges) >= min_edges:
            return nh.Graph.from_edges(n, edges)


def random_composition(rng: np.random.Generator, n: int, s: int, min_size: int = 1):
    """Random s-part composition of n with all parts >= min_size."""
    assert n >= s * min_size
    sizes = [min_size] * s
    for _ in range(n - s * min_size):
        sizes[int(rng.integers(s))] += 1
    return nh.Profile(tuple(sizes))


def per_class_moments(sizes, mbar, var) -> nh.MomentSummary:
    """Moment tables with one class per slot, for a structure built by hand."""
    return nh.MomentSummary(tuple(sizes), tuple(mbar), tuple(var), np.arange(len(sizes)))


# --- dense matrices of a covariance structure --------------------------------
# The structure keeps no float matrix. Sigma and Gamma come from its exact
# matrix; the inverses are read off its own quadratic form corr_inv_quad.

def dense_sigma(cs: nh.CovarianceStructure) -> np.ndarray:
    """float() of the exact covariance matrix."""
    return np.array(cs.exact(), dtype=float)


def dense_corr(cs: nh.CovarianceStructure) -> np.ndarray | None:
    """The correlation matrix on the active set from the exact matrix, or None without one."""
    act = list(cs.active)
    if not act:
        return None
    out = dense_sigma(cs)[np.ix_(act, act)] / np.outer(cs.sd, cs.sd)
    np.fill_diagonal(out, 1.0)
    return out


def corr_inverse(cs: nh.CovarianceStructure) -> np.ndarray | None:
    """Gamma^-1 on the active set, entry by entry from ``cs.corr_inv_quad`` by
    polarization (M_ij = (Q(e_i + e_j) - Q(e_i) - Q(e_j)) / 2), or None when degenerate."""
    if cs.degenerate:
        return None
    e = np.eye(len(cs.active))
    out = np.diag([cs.corr_inv_quad(x) for x in e])
    for i, j in combinations(range(len(e)), 2):
        out[i, j] = out[j, i] = (cs.corr_inv_quad(e[i] + e[j]) - out[i, i] - out[j, j]) / 2
    return out


def sigma_inverse(cs: nh.CovarianceStructure) -> np.ndarray | None:
    """Sigma^-1 on the active set, from :func:`corr_inverse` (Gamma = D^-1 Sigma D^-1)."""
    inv = corr_inverse(cs)
    return None if inv is None else inv / np.outer(cs.sd, cs.sd)
