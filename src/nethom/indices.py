"""Homophily quantifiers built from observed counts and the moment structure.

Every index reads the null model's moments from one
:class:`~nethom.moments.CovarianceStructure`: its exact means and variances,
its active set and its O(s) quadratic forms. Each index is fold(score): a
monotone score of the observed counts, and a fold of a one-sided
second-moment tail bound on that score under the random coloring null model
into a signed value in [-1, 1], so that 1 - |index| bounds the tail:

    index = sgn(score) * score^2 / (score^2 + Var(score)).

Each score (``_score_*``) and each fold (``_fold_*``, and ``_squash`` for
j_theta) is defined once, with its zero rule beside it. The report reads them, and so does
:func:`~nethom.oracle.validate`, which checks each exact tail against 1 - |index|.

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
from typing import Sequence

import numpy as np

from .colorings import Coloring, ObservedOutcome, Profile, _degree_mass, falling_factorial
from .graphs import Graph, _Record
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
]

PRESET_NAMES = ("ratio", "avg_internal_degree", "dyadicity")
# A float-sum score of at most this magnitude is zero up to rounding noise.
ZERO_FLOOR = 1e-12


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
    z[cs.active_index] = dev[cs.active_index] / cs.sd
    z.setflags(write=False)
    return z


def _squash(score: float, spread: float) -> float:
    """:func:`_fold` of a float-sum score, with |score| <= :data:`ZERO_FLOOR` counted as zero.

    The fold of ``index_a`` and ``index_j_theta``: their scores are sums of
    float z-values or products whose rounding noise sits many orders below
    any genuine deviation; without the floor a zero-spread instance would
    spuriously saturate at +-1 on noise alone.
    """
    if abs(score) <= ZERO_FLOOR:
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


def _score_a(z: np.ndarray, cs: CovarianceStructure) -> float:
    """The sum of the active z-scores."""
    return float(z[cs.active_index].sum())


def _fold_a(total: float, cs: CovarianceStructure) -> float:
    return _squash(total, cs.var_zsum)


def _score_r(counts: Sequence[int], cs: CovarianceStructure) -> int:
    """The total deviation of the counts from their mean, as an integer numerator over ``mbar_den``."""
    return int(sum(counts)) * cs.mbar_den - cs.mbar_total_num


def _fold_r(t: int, cs: CovarianceStructure) -> float:
    """The deviation ``t / mbar_den`` is exact, so unlike a float score it needs no zero floor."""
    return _fold(t / cs.mbar_den, cs.var_total) if t else 0.0


def _score_h(z: np.ndarray, cs: CovarianceStructure) -> float:
    """z' Gamma^-1 z on the active set; the correlation block must be nondegenerate."""
    return cs.corr_inv_quad(z[cs.active_index])


def _fold_h(norm: float, cs: CovarianceStructure) -> float:
    return max(0.0, (norm - len(cs.active)) / norm) if norm > 0.0 else 0.0


def _score_j(dev: np.ndarray, ws: np.ndarray) -> float:
    """w'(observed - expected) for the scaled weights ``ws``; :func:`_squash` folds it."""
    return float(ws @ dev)


def index_a(z: np.ndarray, cs: CovarianceStructure) -> float | None:
    """Signed significance of the mean z-score; None if every class is degenerate.

    With s_a active classes, A = mean of active z-scores and g the sum of the
    active-set correlation matrix: sgn(A) * (s_a*A)^2 / ((s_a*A)^2 + g).
    """
    return _fold_a(_score_a(z, cs), cs) if cs.active else None


def index_r(o: ObservedOutcome, cs: CovarianceStructure) -> float:
    """Signed significance of the total homophilic-count deviation."""
    return _fold_r(_score_r(o.counts, cs), cs)


class WeightVector(_Record):
    """Finite, nonnegative, nonzero per-class weights, kept as a read-only float copy."""

    w: np.ndarray

    def __init__(self, w):
        w = np.array(w, dtype=float)
        if not np.isfinite(w).all() or np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be finite, nonnegative and not all zero")
        super().__init__(w)


def weight_preset(name: str, g: Graph, p: Profile) -> WeightVector:
    """Build one of the standard score weightings.

    ratio: w = (1/m) * 1 (edge-inside fraction score).
    avg_internal_degree: w_i = nu * 2 / c_i with nu = 1/max_degree.
    dyadicity: w_i = (2/s) / c_i^(2) (internal density score); classes of
        size < 2 get weight 0.

    :func:`index_j_theta` ignores a positive common factor of the weights, so
    each preset has one scaling; another would move the index only by
    rounding. Raises :class:`UndefinedQuantityError` when the preset needs
    edges and the graph has none.
    """
    if name == "ratio":
        if g.m == 0:
            raise UndefinedQuantityError("ratio preset needs at least one edge")
        return WeightVector(np.full(p.s, 1.0 / g.m))
    if name == "avg_internal_degree":
        if g.m == 0:
            raise UndefinedQuantityError("avg_internal_degree preset needs edges")
        nu = 1.0 / g.max_degree
        return WeightVector(np.array([nu * 2.0 / c for c in p.sizes]))
    if name == "dyadicity":
        w = np.array(
            [2.0 / (p.s * falling_factorial(c, 2)) if c >= 2 else 0.0 for c in p.sizes]
        )
        if not np.any(w > 0):
            raise UndefinedQuantityError("dyadicity preset needs a class of size >= 2")
        return WeightVector(w)
    raise ValueError(f"unknown preset {name!r}")


def index_j_theta(o: ObservedOutcome, cs: CovarianceStructure, w: WeightVector) -> float:
    """Signed significance of the score w'(observed - expected).

    Invariant under positive rescaling of ``w`` (a ratio of quadratics), so
    the ``ratio`` preset gives :func:`index_r` up to rounding; nondecreasing
    in every observed count for fixed moments. ``w`` is first scaled by the
    power of two that brings its largest entry into [0.5, 1), which is exact,
    so neither the zero floor of the score nor overflow of the spread
    depends on the scale of ``w``.
    """
    if len(w.w) != cs.s:
        raise ValueError("weight vector has the wrong number of classes")
    ws = _scaled(w)
    return _squash(_score_j(_deviations(o.counts, cs), ws), cs.quad(ws))


def _scaled(w: WeightVector) -> np.ndarray:
    return np.ldexp(w.w, -math.frexp(float(w.w.max()))[1])


def index_h(z: np.ndarray, cs: CovarianceStructure) -> float | None:
    """Chebyshev-style quantifier in [0, 1] from the correlation-metric norm.

    h = max(0, (|z|^2 - s_a) / |z|^2) with |z|^2 = z' Gamma^-1 z on the
    active set; None when the active set is empty or its correlation block
    is singular. h near 1 flags outcomes far from typical along the
    directions that carry the variance; the sign pattern of z tells
    homophily from anti-homophily.
    """
    return None if cs.degenerate else _fold_h(_score_h(z, cs), cs)


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


class IndexReport(_Record):
    """Every quantifier for one (graph, coloring) pair, plus degeneracy notes."""

    observed: tuple[int, ...]
    mbar: tuple[float, ...]
    z: tuple[float, ...]
    a: float | None
    r: float
    h: float | None
    j_theta: dict[str, float | None]
    newman_q: float | None
    descriptive_ratio: float | None
    notes: tuple[str, ...]

    def index_fields(self) -> dict:
        """The indices by name, in report order, with 1 - a, (1 - a) * 1e6 and 1 - r; None where undefined."""
        a = self.a
        return {
            "a": a, "one_minus_a": None if a is None else 1.0 - a,
            "one_minus_a_x1e6": None if a is None else (1.0 - a) * 1e6,
            "r": self.r, "one_minus_r": 1.0 - self.r, "h": self.h, "j_theta": self.j_theta,
            "newman_q": self.newman_q, "descriptive_ratio": self.descriptive_ratio,
        }


def _mean_indices(reports: Sequence[IndexReport]) -> dict:
    """Each index's mean over ``reports`` (j_theta per preset), or None unless defined in every report."""
    rows = [{"a": r.a, "r": r.r, "h": r.h, **{f"j_theta.{k}": v for k, v in r.j_theta.items()},
             "newman_q": r.newman_q, "descriptive_ratio": r.descriptive_ratio} for r in reports]
    return {key: None if any(row[key] is None for row in rows) else sum(row[key] for row in rows) / len(rows)
            for key in rows[0]}


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
                w = weight_preset(name, g, p)
            except UndefinedQuantityError as exc:
                self._weights.append((name, None, None))
                notes.append(f"j_theta[{name}] undefined: {exc}")
                continue
            ws = _scaled(w)
            self._weights.append((name, ws, cs.quad(ws)))

        if g.m == 0:
            notes.append("modularity and descriptive ratio undefined: graph has no edges")
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
            a=index_a(z, cs),
            r=index_r(o, cs),
            h=index_h(z, cs),
            j_theta={
                name: None if ws is None else _squash(_score_j(dev, ws), spread)
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
) -> IndexReport:
    """Evaluate all quantifiers, recording why any of them is undefined."""
    mass = _degree_mass(f.assignment, g.degrees, f.s)
    evaluator = IndexEvaluator(g, f.profile, cs, f.class_labels, presets)
    return evaluator.report(o.counts, mass.tolist())
