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
the oracle read: a :class:`CovarianceStructure` holding the exact means and
variances of :func:`moment_summary`, coef, vec and q, and the active set
(the classes with positive variance). It evaluates, in O(s) floats, every
quadratic form the indices need: 1'Sigma 1, w'Sigma w and, on the active
set with correlation matrix Gamma, 1'Gamma 1 and z'Gamma^-1 z through the
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
    "expected_counts",
    "marginal_variances",
    "moment_summary",
    "covariance_exact",
    "covariance_structure",
    "active_classes",
]

# Degeneracy tolerance, relative to the largest covariance entry. Tiny
# graphs routinely produce exactly singular structures (e.g. perfectly
# correlated marginals), so inverses are withheld below this threshold.
REL_TOL = 1e-12


@dataclass(frozen=True)
class MomentSummary:
    """Exact expected counts and variances, one entry per class."""

    mbar: tuple[Fraction, ...]
    var: tuple[Fraction, ...]

    @property
    def s(self) -> int:
        return len(self.mbar)


def expected_counts(s: GraphSummary, p: Profile) -> tuple[Fraction, ...]:
    """Expected homophilic count per class: m * c_i^(2) / n^(2), exact."""
    n2 = falling_factorial(s.n, 2)
    if n2 == 0 or s.m == 0:
        return tuple(Fraction(0) for _ in p.sizes)
    return tuple(Fraction(s.m * falling_factorial(c, 2), n2) for c in p.sizes)


def marginal_variances(s: GraphSummary, p: Profile) -> tuple[Fraction, ...]:
    """Exact per-class variance of the homophilic count.

    With kappa_i = c_i^(2)/n^(2), r3_i = c_i^(3)/n^(3), r4_i = c_i^(4)/n^(4)
    (ratios with zero numerator are 0 regardless of the denominator):

        var_i = m*kappa_i*(1 - m*kappa_i)
                + 2*((r3_i - r4_i)*pi3 + r4_i*C(m, 2))
    """
    n, m, pi3 = s.n, s.m, s.pi3
    n2 = falling_factorial(n, 2)
    pairs = m * (m - 1) // 2
    out: list[Fraction] = []
    for c in p.sizes:
        if c < 2 or m == 0:
            out.append(Fraction(0))
            continue
        kappa = Fraction(falling_factorial(c, 2), n2)
        r3 = Fraction(falling_factorial(c, 3), falling_factorial(n, 3)) if c >= 3 else Fraction(0)
        r4 = Fraction(falling_factorial(c, 4), falling_factorial(n, 4)) if c >= 4 else Fraction(0)
        mk = m * kappa
        var = mk * (1 - mk) + 2 * ((r3 - r4) * pi3 + r4 * pairs)
        if var < 0:
            raise ArithmeticError(f"negative variance {var} for class size {c}")
        out.append(var)
    return tuple(out)


def moment_summary(s: GraphSummary, p: Profile) -> MomentSummary:
    return MomentSummary(mbar=expected_counts(s, p), var=marginal_variances(s, p))


def active_classes(var: tuple[Fraction, ...] | np.ndarray) -> tuple[int, ...]:
    """Indices of classes whose variance exceeds REL_TOL * max variance.

    By Cauchy-Schwarz the largest covariance entry sits on the diagonal.
    """
    var_f = [float(v) for v in var]
    mx = max(var_f, default=0.0)
    if mx <= 0.0:
        return ()
    cut = REL_TOL * mx
    return tuple(i for i, v in enumerate(var_f) if v > cut)


def _pair_sum(x: np.ndarray) -> float:
    """sum_{i<j} x_i x_j, with no cancellation for x >= 0 (unlike (1'x)^2 - x'x)."""
    return float(x[1:] @ np.cumsum(x[:-1]))


class CovarianceStructure:
    """Sigma = diag(q) + coef * vec vec' in exact rationals, with O(s) forms.

    Built on a :class:`MomentSummary`, whose exact ``mbar`` and ``var`` it
    carries; ``mbar[i] == mbar_num[i] / mbar_den`` with integer numerators
    over one common denominator, so a count deviation is one integer
    division. ``active`` lists the classes with positive variance and ``sd``
    holds their float standard deviations.
    ``gamma`` is None when the n < 4 fallback supplies coef and vec.
    ``var_total`` = 1'Sigma 1 and ``var_zsum`` = 1'Gamma 1 on the active set
    are the variances of the total count and of the summed active z-scores.
    ``degenerate`` is set when the active block is singular at the working
    tolerance. The dense float views ``sigma`` (s x s), ``corr``,
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
        var = ms.var
        self.gamma = gamma
        self.coef = coef
        self.vec = vec
        self.mbar = ms.mbar
        self.mbar_den = math.lcm(*(x.denominator for x in ms.mbar))
        self.mbar_num = tuple(x.numerator * (self.mbar_den // x.denominator) for x in ms.mbar)
        self.var = var
        self.q = tuple(v - coef * x * x for v, x in zip(var, vec))
        self.active = active_classes(var)
        self._coef_f = float(coef)
        self._var_f = np.array([float(v) for v in var])
        self._vec_f = np.array([float(x) for x in vec])
        self.var_total = self.quad(np.ones(len(var)))

        act = list(self.active)
        self.sd = np.sqrt(self._var_f[act])
        self._b = self._vec_f[act] / self.sd  # vec in the correlation geometry
        self.var_zsum = len(act) + 2.0 * self._coef_f * _pair_sum(self._b)

        # Sherman-Morrison on the active set: Gamma^-1 = diag(var/q) - k * an an'
        self.degenerate = True
        q_a = np.array([float(self.q[i]) for i in act])
        if act and np.all(q_a > REL_TOL * self._var_f.max()):
            denom = 1 + coef * sum(vec[i] * vec[i] / self.q[i] for i in act)
            if abs(float(denom)) > REL_TOL:
                self.degenerate = False
                self._k = float(coef / denom)
                self._inv_qn = self._var_f[act] / q_a
                self._an = self._vec_f[act] / q_a * self.sd

    @property
    def s(self) -> int:
        return len(self.var)

    def quad(self, w: np.ndarray) -> float:
        """w' Sigma w for weights over all classes."""
        return float(self._var_f @ (w * w)) + 2.0 * self._coef_f * _pair_sum(w * self._vec_f)

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
        np.fill_diagonal(out, self._var_f)
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

    Cost is O(s) given the summary; the graph itself is never touched.
    Degeneracy is a reported state, not an error.
    """
    ms = moment_summary(s, p)
    g = gamma_invariant(s)
    if g is not None:
        u = tuple(falling_factorial(c, 2) for c in p.sizes)
        return CovarianceStructure(g, g, u, ms)
    if s.ordered_disjoint_pairs != 0:
        raise AssertionError("n < 4 graphs cannot contain disjoint edge pairs")
    return CovarianceStructure(None, Fraction(-1), ms.mbar, ms)


def covariance_exact(s: GraphSummary, p: Profile) -> list[list[Fraction]]:
    """Exact covariance matrix: variances on the diagonal, coef * vec_i * vec_j off it."""
    return covariance_structure(s, p).exact()
