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
