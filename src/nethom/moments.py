"""Exact first and second moments of the homophilic-count vector.

Under uniform random colorings of a fixed profile, the count vector M has
closed-form moments driven entirely by falling-factorial ratios of class
sizes and two graph numbers (edge count and two-path count). The covariance
matrix is a rank-one update of a diagonal matrix,

    Sigma = diag(q) + coef * vec vec',

with coef = gamma_invariant(G) and vec_i = c_i^(2) when n >= 4, and with
coef = -1 and vec = Mbar otherwise (no two vertex-disjoint edges exist, so
E[M_i M_j] = 0 off the diagonal).

:func:`covariance_structure` returns the one moments object the indices and
the oracle read, a :class:`CovarianceStructure`. A class's moments depend on
the instance only through its size, so the exact ``Fraction`` work runs once
per *slot*, a distinct class size: :func:`moment_summary` returns per-slot
tables of exact means and variances and each class's slot, and the structure
derives q, the common denominator, the Sherman-Morrison denominator and
every float once per slot. Per class it only gathers references and floats,
and finds the active set (the classes with positive variance) in one
vectorized comparison. It evaluates, in O(s) floats, every quadratic form
the indices need: 1'Sigma 1, w'Sigma w and, on the active set with
correlation matrix Gamma, 1'Gamma 1 and z'Gamma^-1 z through the
Sherman-Morrison identity

    Sigma^-1 = diag(1/q) - (coef / (1 + coef * vec' diag(1/q) vec)) a a',
    a = diag(1/q) vec.

Dense s x s matrices are built only when read. Everything here is a pure
function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .colorings import Profile, falling_factorial
from .graphs import GraphSummary, gamma_invariant

__all__ = [
    "REL_TOL",
    "MomentSummary",
    "CovarianceStructure",
    "moment_summary",
    "covariance_exact",
    "covariance_structure",
]

# Degeneracy tolerance, relative to the largest covariance entry. Tiny
# graphs routinely produce exactly singular structures (e.g. perfectly
# correlated marginals), so inverses are withheld below this threshold.
REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Exact means and variances per slot, and the slot of every class.

    A slot is a group of classes that share their moments: ``size[k]``,
    ``mbar[k]`` and ``var[k]`` belong to slot k, and ``slot[i]`` is the slot
    of class i. :func:`moment_summary` makes one slot per distinct class
    size. Any grouping is valid, one class per slot included, as long as
    every slot holds a class.
    """

    size: tuple[int, ...]
    mbar: tuple[Fraction, ...]
    var: tuple[Fraction, ...]
    slot: np.ndarray


def moment_summary(s: GraphSummary, p: Profile) -> MomentSummary:
    """Exact mean and variance of the count of a class, once per distinct size.

    With kappa = c^(2)/n^(2), r3 = c^(3)/n^(3), r4 = c^(4)/n^(4) for class
    size c (ratios with zero numerator are 0 regardless of the denominator):

        mbar = m*kappa
        var = m*kappa*(1 - m*kappa) + 2*((r3 - r4)*pi3 + r4*C(m, 2))
    """
    sizes, slot = np.unique(np.array(p.sizes, dtype=np.int64), return_inverse=True)
    n, m, pi3 = s.n, s.m, s.pi3
    pairs = m * (m - 1) // 2

    def ratio(c: int, k: int) -> Fraction:
        num = falling_factorial(c, k)
        return Fraction(num, falling_factorial(n, k)) if num else Fraction(0)

    mbar: list[Fraction] = []
    var: list[Fraction] = []
    for c in sizes.tolist():
        mk, r3, r4 = m * ratio(c, 2), ratio(c, 3), ratio(c, 4)
        v = mk * (1 - mk) + 2 * ((r3 - r4) * pi3 + r4 * pairs)
        if v < 0:
            raise ArithmeticError(f"negative variance {v} for class size {c}")
        mbar.append(mk)
        var.append(v)
    return MomentSummary(tuple(sizes.tolist()), tuple(mbar), tuple(var), slot)


def _pair_sum(x: np.ndarray) -> float:
    """sum_{i<j} x_i x_j, with no cancellation for x >= 0 (unlike (1'x)^2 - x'x)."""
    return float(x[1:] @ np.cumsum(x[:-1]))


class CovarianceStructure:
    """Sigma = diag(q) + coef * vec vec' in exact rationals, with O(s) forms.

    Built from the slot tables of a :class:`MomentSummary` and ``vec``, one
    entry per slot; each per-class field is a gather by ``ms.slot``. The
    exact tuples ``mbar``, ``var``, ``vec`` and ``q`` hold one entry per
    class; ``mbar[i] == mbar_num[i] / mbar_den`` with integer numerators over
    one common denominator, so a count deviation is one integer division.
    ``mbar_f`` and ``var_f`` are float arrays. ``active`` lists the
    classes with positive variance and ``sd`` holds their float standard
    deviations. ``gamma`` is None when the n < 4 fallback supplies coef and
    vec. ``var_total`` = 1'Sigma 1 and ``var_zsum`` = 1'Gamma 1 on the
    active set are the variances of the total count and of the summed active
    z-scores. ``degenerate`` is set when the active block is singular at the
    working tolerance. The dense float views ``sigma`` (s x s), ``corr``,
    ``sigma_inv`` and ``corr_inv`` (active set) are built on first access;
    ``corr`` is None without active classes and the inverses when degenerate.
    """

    def __init__(
        self,
        gamma: Fraction | None,
        coef: Fraction,
        vec: tuple[int | Fraction, ...],
        ms: MomentSummary,
    ):
        slot = np.asarray(ms.slot, dtype=np.intp)
        at = slot.tolist()
        q = [v - coef * x * x for v, x in zip(ms.var, vec)]
        den = math.lcm(*(x.denominator for x in ms.mbar))
        num = [x.numerator * (den // x.denominator) for x in ms.mbar]
        self.gamma = gamma
        self.coef = coef
        self.mbar_den = den
        self.mbar, self.var, self.vec, self.q, self.mbar_num = (
            tuple(map(col.__getitem__, at)) for col in (ms.mbar, ms.var, vec, q, num)
        )
        self.mbar_f, self.var_f, self._vec_f, q_f = (
            np.array([float(x) for x in col])[slot] for col in (ms.mbar, ms.var, vec, q)
        )
        self.mbar_f.setflags(write=False)
        self.var_f.setflags(write=False)
        cut = REL_TOL * self.var_f.max()  # by Cauchy-Schwarz, the largest entry of Sigma
        act = np.flatnonzero(self.var_f > cut)
        self.active = tuple(act.tolist())
        self._coef_f = float(coef)
        self.var_total = self.quad(np.ones(len(at)))

        self.sd = np.sqrt(self.var_f[act])
        self._b = self._vec_f[act] / self.sd  # vec in the correlation geometry
        self.var_zsum = len(act) + 2.0 * self._coef_f * _pair_sum(self._b)

        # Sherman-Morrison on the active set: Gamma^-1 = diag(var/q) - k * an an'
        self.degenerate = True
        q_a = q_f[act]
        if act.size and np.all(q_a > cut):
            per_slot = np.bincount(slot[act], minlength=len(q)).tolist()
            denom = 1 + coef * sum(c * vec[k] * vec[k] / q[k] for k, c in enumerate(per_slot) if c)
            if abs(float(denom)) > REL_TOL:
                self.degenerate = False
                self._k = float(coef / denom)
                self._inv_qn = self.var_f[act] / q_a
                self._an = self._vec_f[act] / q_a * self.sd

    @property
    def s(self) -> int:
        return len(self.var)

    def quad(self, w: np.ndarray) -> float:
        """w' Sigma w for weights over all classes."""
        return float(self.var_f @ (w * w)) + 2.0 * self._coef_f * _pair_sum(w * self._vec_f)

    def corr_inv_quad(self, z: np.ndarray) -> float:
        """z' Gamma^-1 z for z over the active set; the block must be nondegenerate."""
        if self.degenerate:
            raise ValueError("correlation block is singular on the active set")
        return float(self._inv_qn @ (z * z)) - self._k * float(self._an @ z) ** 2

    def exact(self) -> list[list[Fraction]]:
        """Sigma as an exact matrix: variances on the diagonal, coef * vec_i * vec_j off it."""
        return [
            [v if i == j else self.coef * x * y for j, y in enumerate(self.vec)]
            for i, (v, x) in enumerate(zip(self.var, self.vec))
        ]

    @cached_property
    def sigma(self) -> np.ndarray:
        out = self._coef_f * np.outer(self._vec_f, self._vec_f)
        np.fill_diagonal(out, self.var_f)
        return out

    @cached_property
    def corr(self) -> np.ndarray | None:
        if not self.active:
            return None
        out = self._coef_f * np.outer(self._b, self._b)
        np.fill_diagonal(out, 1.0)
        return out

    @cached_property
    def sigma_inv(self) -> np.ndarray | None:
        if self.degenerate:
            return None
        a = self._an / self.sd
        return np.diag(self._inv_qn / self.sd**2) - self._k * np.outer(a, a)

    @cached_property
    def corr_inv(self) -> np.ndarray | None:
        if self.degenerate:
            return None
        return np.diag(self._inv_qn) - self._k * np.outer(self._an, self._an)


def covariance_structure(s: GraphSummary, p: Profile) -> CovarianceStructure:
    """Assemble the :class:`CovarianceStructure` for (graph summary, profile).

    Exact arithmetic runs once per distinct class size and the per-class
    work is gathers, so the cost given the summary is O(s) list and array
    operations; the graph itself is never touched.
    Degeneracy is a reported state, not an error.
    """
    ms = moment_summary(s, p)
    g = gamma_invariant(s)
    if g is not None:
        u = tuple(falling_factorial(c, 2) for c in ms.size)
        return CovarianceStructure(g, g, u, ms)
    if s.ordered_disjoint_pairs != 0:
        raise AssertionError("n < 4 graphs cannot contain disjoint edge pairs")
    return CovarianceStructure(None, Fraction(-1), ms.mbar, ms)


def covariance_exact(s: GraphSummary, p: Profile) -> list[list[Fraction]]:
    """Exact covariance matrix: variances on the diagonal, coef * vec_i * vec_j off it."""
    return covariance_structure(s, p).exact()
