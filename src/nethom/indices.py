"""Homophily quantifiers built from observed counts and the moment structure.

Every index reads the null model's moments from one
:class:`~nethom.moments.CovarianceStructure`: its exact means and variances,
its active set and its O(s) quadratic forms. Each index couples a monotone
score of the observed counts with a one-sided second-moment tail bound on
that score under the random coloring null model, then folds the two sides
into a signed value in [-1, 1]:

    index = sgn(score) * score^2 / (score^2 + Var(score)).

Every score starts from the per-class deviations of the observed counts from
their means, each computed as one integer division over the structure's
common denominator, so no index does ``Fraction`` arithmetic per call.
:class:`IndexEvaluator` fixes everything that depends only on the instance
(notes, preset weights, their spreads) and then evaluates rows of counts,
such as those of :func:`~nethom.colorings.sample_counts`;
:func:`build_index_report` is its one-row case.

``index_a`` scores by the sum of the active z-scores (from :func:`z_scores`),
``index_r`` by the total deviation of homophilic counts (the homophily-ratio
score), and ``index_j_theta`` by an arbitrary nonnegative weighting of the
deviations. ``index_h`` instead bounds the tail of the correlation-metric
norm of the active z-scores (a multidimensional Chebyshev bound) and lives
in [0, 1]. Classes outside the active set (zero variance) get z-score 0 and
are left out of the z-based indices; the covariance-based indices use the
full matrix, where such classes contribute zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .colorings import Coloring, ObservedOutcome, Profile, _degree_mass, falling_factorial
from .graphs import Graph
from .moments import CovarianceStructure

__all__ = [
    "UndefinedQuantityError",
    "WeightVector",
    "IndexReport",
    "z_scores",
    "index_a",
    "index_r",
    "index_h",
    "index_j_theta",
    "weight_preset",
    "newman_modularity",
    "descriptive_ratio",
    "build_index_report",
    "IndexEvaluator",
    "PRESET_NAMES",
    "NU_MODES",
]

PRESET_NAMES = ("ratio", "avg_internal_degree", "dyadicity")

# scalings nu of the avg_internal_degree preset (see weight_preset)
NU_MODES = ("maxdeg", "classes", "avgdeg")


class UndefinedQuantityError(ValueError):
    """A quantifier has no value on this instance (degenerate input)."""


def z_scores(o: ObservedOutcome, cs: CovarianceStructure) -> np.ndarray:
    """(observed - expected) / sigma per class, 0 outside the active set; read-only."""
    return _z(_deviations(o.counts, cs), cs)


def _deviations(counts: Sequence[int], cs: CovarianceStructure) -> np.ndarray:
    """Observed minus expected count per class, each its exact value correctly rounded.

    Python's int / int true division rounds correctly, so this equals
    ``float(Fraction(count) - mbar)`` class by class.
    """
    if len(counts) != cs.s:
        raise ValueError("outcome and covariance structure have different class counts")
    den = cs.mbar_den
    return np.array([(int(c) * den - k) / den for c, k in zip(counts, cs.mbar_num)])


def _z(dev: np.ndarray, cs: CovarianceStructure) -> np.ndarray:
    z = np.zeros(cs.s)
    act = list(cs.active)
    z[act] = dev[act] / cs.sd
    z.setflags(write=False)
    return z


def _squash(score: float, spread: float) -> float:
    """:func:`_fold` of a float-sum score, with |score| <= 1e-12 counted as zero.

    The scores of ``index_a`` and ``index_j_theta`` are sums of float
    z-values or products whose rounding noise sits many orders below any
    genuine deviation; without the floor a zero-spread instance would
    spuriously saturate at +-1 on noise alone.
    """
    if abs(score) <= 1e-12:
        return 0.0
    return _fold(score, spread)


def _fold(score: float, spread: float) -> float:
    """sgn(score) * score^2 / (score^2 + spread), with sgn(0) = 0.

    ``spread`` is clamped at zero (it is a variance up to float rounding).
    A zero spread with a nonzero score saturates at +-1 (the tail bound
    degenerates to a zero tail).
    """
    num = score * score
    den = num + max(spread, 0.0)
    if den <= 0.0:
        return 0.0
    return math.copysign(num / den, score)


def index_a(z: np.ndarray, cs: CovarianceStructure) -> float | None:
    """Signed significance of the mean z-score; None if every class is degenerate.

    With s_a active classes, A = mean of active z-scores and g the sum of the
    active-set correlation matrix: sgn(A) * (s_a*A)^2 / ((s_a*A)^2 + g).
    """
    if not cs.active:
        return None
    total = float(z[list(cs.active)].sum())  # = s_a * A
    return _squash(total, cs.var_zsum)


def index_r(o: ObservedOutcome, cs: CovarianceStructure) -> float:
    """Signed significance of the total homophilic-count deviation.

    The deviation is an exact rational, so unlike the float scores of
    ``index_a`` and ``index_j_theta`` it needs no zero floor.
    """
    den = cs.mbar_den
    t = int(o.total) * den - sum(cs.mbar_num)
    return _fold(t / den, cs.var_total) if t else 0.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative, nonzero weighting of per-class count deviations."""

    w: np.ndarray
    preset: str = "custom"

    def __post_init__(self):
        self.w.setflags(write=False)
        if np.any(self.w < 0) or not np.any(self.w > 0):
            raise ValueError("weights must be nonnegative and not all zero")


def weight_preset(name: str, g: Graph, p: Profile, nu_mode: str = "maxdeg") -> WeightVector:
    """Build one of the standard score weightings.

    ratio: w = (1/m) * 1 (edge-inside fraction score).
    avg_internal_degree: w_i = nu * 2 / c_i with nu = 1/max_degree (default),
        1/s ("classes") or n/(2m) ("avgdeg").
    dyadicity: w_i = (2/s) / c_i^(2) (internal density score); classes of
        size < 2 get weight 0.

    Raises :class:`UndefinedQuantityError` when the preset needs edges (or a
    positive maximum degree) and the graph has none.
    """
    if name == "ratio":
        if g.m == 0:
            raise UndefinedQuantityError("ratio preset needs at least one edge")
        return WeightVector(np.full(p.s, 1.0 / g.m), preset=name)
    if name == "avg_internal_degree":
        if nu_mode not in NU_MODES:
            raise ValueError(f"unknown nu mode {nu_mode!r}")
        if nu_mode == "classes":
            nu = 1.0 / p.s
        elif g.m == 0:
            raise UndefinedQuantityError("avg_internal_degree preset needs edges")
        else:
            nu = 1.0 / g.max_degree if nu_mode == "maxdeg" else g.n / (2.0 * g.m)
        return WeightVector(np.array([nu * 2.0 / c for c in p.sizes]), preset=name)
    if name == "dyadicity":
        w = np.array(
            [2.0 / (p.s * falling_factorial(c, 2)) if c >= 2 else 0.0 for c in p.sizes]
        )
        if not np.any(w > 0):
            raise UndefinedQuantityError("dyadicity preset needs a class of size >= 2")
        return WeightVector(w, preset=name)
    raise ValueError(f"unknown preset {name!r}")


def index_j_theta(o: ObservedOutcome, cs: CovarianceStructure, w: WeightVector) -> float:
    """Signed significance of the score w'(observed - expected).

    Invariant under positive rescaling of ``w`` (a ratio of quadratics), and
    nondecreasing in every observed count for fixed moments. ``w`` is first
    scaled by the power of two that brings its largest entry into [0.5, 1),
    which is exact, so neither the zero floor of the score nor overflow of
    the spread depends on the scale of ``w``.
    """
    if len(w.w) != cs.s:
        raise ValueError("weight vector has the wrong number of classes")
    ws = _scaled(w)
    return _j_theta(_deviations(o.counts, cs), ws, cs.quad(ws))


def _scaled(w: WeightVector) -> np.ndarray:
    return np.ldexp(w.w, -math.frexp(float(w.w.max()))[1])


def _j_theta(dev: np.ndarray, ws: np.ndarray, spread: float) -> float:
    return _squash(float(ws @ dev), spread)


def index_h(z: np.ndarray, cs: CovarianceStructure) -> float | None:
    """Chebyshev-style quantifier in [0, 1] from the correlation-metric norm.

    h = max(0, (|z|^2 - s_a) / |z|^2) with |z|^2 = z' Gamma^-1 z on the
    active set; None when the active set is empty or its correlation block
    is singular. h near 1 flags outcomes far from typical along the
    directions that carry the variance; the sign pattern of z tells
    homophily from anti-homophily.
    """
    if cs.degenerate:
        return None
    norm2 = cs.corr_inv_quad(z[list(cs.active)])
    if norm2 <= 0.0:
        return 0.0
    return max(0.0, (norm2 - len(cs.active)) / norm2)


def newman_modularity(g: Graph, f: Coloring, o: ObservedOutcome) -> float | None:
    """sum_i (m_i/m - (D_i/2m)^2) with D_i the degree mass of class i.

    None when the graph has no edges. This compares observed homophilic
    counts with their expectation under a degree-preserving rewiring null,
    in contrast to the coloring-based indices above.
    """
    mass = _degree_mass(f.assignment, g.degrees, f.s)
    return _modularity(int(o.total), mass.tolist(), g.m)


def _modularity(total: int, mass: Sequence[int], m: int) -> float | None:
    """(4m * total - sum_i D_i^2) / 4m^2, one correctly rounded integer division."""
    if m == 0:
        return None
    return (4 * m * total - sum(d * d for d in mass)) / (4 * m * m)


def descriptive_ratio(o: ObservedOutcome, m: int) -> float | None:
    """Fraction of edges that are homophilic, in [0, 1]; None when m = 0."""
    if m == 0:
        return None
    return int(o.total) / m


@dataclass(frozen=True)
class IndexReport:
    """Every quantifier for one (graph, coloring) pair, plus degeneracy notes."""

    observed: tuple[int, ...]
    mbar: tuple[float, ...]
    z: tuple[float, ...]
    gamma: float | None
    a: float | None
    r: float
    h: float | None
    j_theta: dict[str, float | None]
    newman_q: float | None
    descriptive_ratio: float | None
    notes: tuple[str, ...]


class IndexEvaluator:
    """Every quantifier of :class:`IndexReport` for rows of counts of one instance.

    What depends only on (graph, profile, structure) is fixed here once: the
    degeneracy notes, each preset's scaled weights and their spread
    w' Sigma w. :meth:`report` then costs O(s) per row, so resampling pays
    no per-sample set-up.
    """

    def __init__(
        self,
        g: Graph,
        p: Profile,
        cs: CovarianceStructure,
        class_labels: tuple[str, ...],
        presets: tuple[str, ...] = PRESET_NAMES,
        nu_mode: str = "maxdeg",
    ):
        self._cs = cs
        self._m = g.m
        notes: list[str] = []
        active = set(cs.active)
        inactive = [i for i in range(cs.s) if i not in active]
        if inactive and active:
            notes.append(
                "classes with zero variance excluded from z-based indices: "
                + ", ".join(class_labels[i] for i in inactive)
            )
        if not cs.active:
            notes.append("index a undefined: all classes degenerate")
            notes.append("index h undefined: all classes degenerate")
        elif cs.degenerate:
            notes.append("index h undefined: correlation matrix singular on the active set")

        self._weights: list[tuple[str, np.ndarray | None, float | None]] = []
        for name in presets:
            try:
                w = weight_preset(name, g, p, nu_mode=nu_mode)
            except UndefinedQuantityError as exc:
                self._weights.append((name, None, None))
                notes.append(f"j_theta[{name}] undefined: {exc}")
                continue
            ws = _scaled(w)
            self._weights.append((name, ws, cs.quad(ws)))

        if g.m == 0:
            notes.append("modularity and descriptive ratio undefined: graph has no edges")
        self._gamma = float(cs.gamma) if cs.gamma is not None else None
        if self._gamma is None:
            notes.append("gamma undefined for n < 4: covariance computed by direct fallback")
        self._notes = tuple(notes)
        self._mbar = tuple(cs.mbar_f.tolist())

    def report(self, counts: Sequence[int], mass: Sequence[int]) -> IndexReport:
        """The report of one row: homophilic ``counts`` and class degree sums ``mass``."""
        cs = self._cs
        o = ObservedOutcome(tuple(counts))
        dev = _deviations(o.counts, cs)
        z = _z(dev, cs)
        return IndexReport(
            observed=o.counts,
            mbar=self._mbar,
            z=tuple(z.tolist()),
            gamma=self._gamma,
            a=index_a(z, cs),
            r=index_r(o, cs),
            h=index_h(z, cs),
            j_theta={
                name: None if ws is None else _j_theta(dev, ws, spread)
                for name, ws, spread in self._weights
            },
            newman_q=_modularity(int(o.total), mass, self._m),
            descriptive_ratio=descriptive_ratio(o, self._m),
            notes=self._notes,
        )


def build_index_report(
    g: Graph,
    f: Coloring,
    o: ObservedOutcome,
    cs: CovarianceStructure,
    presets: tuple[str, ...] = PRESET_NAMES,
    nu_mode: str = "maxdeg",
) -> IndexReport:
    """Evaluate all quantifiers, recording why any of them is undefined."""
    mass = _degree_mass(f.assignment, g.degrees, f.s)
    evaluator = IndexEvaluator(g, f.profile, cs, f.class_labels, presets, nu_mode)
    return evaluator.report(o.counts, mass.tolist())
