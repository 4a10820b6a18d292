"""Standard-Gaussian primitives and discrete moment-matching rules.

Everything downstream leans on this module: the density/CDF/quantile trio,
interval masses, the double-factorial moments E[g^k] = (k-1)!! (even k), and
the symmetric quadrature rules whose node/weight pairs reproduce those
moments exactly up to degree 2m-1.  Rule nodes are Newton-polished
eigenvalues of the Hermite Jacobi matrix; weights come from the Christoffel
function rather than from the eigenvectors, because eigenvector weights are
accurate only in absolute terms and the outer weights of a large rule are
tiny.  The reduced rule drops the central node at 0 and records the orphaned
weight as "gap mass"; that mass becomes the region where the piecewise-linear
construction is identically zero.  Truncated moments and the antiderivative
polynomials behind their closed forms are test oracles (tests/oracles.py).

All functions are pure; rules are frozen after construction.  This is the
package's only module that imports scipy: ndtr and ndtri from scipy.special.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ValidationError

__all__ = [
    "QuadratureRule",
    "ReducedRule",
    "gaussian_density",
    "gaussian_cdf",
    "gaussian_quantile",
    "gaussian_interval_mass",
    "gaussian_moment",
    "double_factorial",
    "hermite_rows",
    "hermite_rule",
    "reduce_rule",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
# Cramer's inequality (Abramowitz & Stegun 22.14.17) in normalized form:
# |He_k(x)| / sqrt(k!) <= HERMITE_KAPPA * exp(x^2 / 4) for all k and real x.
HERMITE_KAPPA = 1.0865


def gaussian_density(x, variance: float = 1.0):
    """Density of N(0, variance) at x (scalar or array)."""
    if not variance > 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite input to gaussian_density")
    out = np.exp(-x * x / (2.0 * variance)) / (math.sqrt(variance) * SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def gaussian_cdf(x: float) -> float:
    """P(g <= x) for g ~ N(0,1)."""
    return float(ndtr(x))


def gaussian_quantile(p: float) -> float:
    """Inverse standard normal CDF with one Newton polish step."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile requires p in (0,1), got {p}")
    x = float(ndtri(p))
    # One Newton step: phi(x) is safely nonzero for any p representable in (0,1).
    x -= (gaussian_cdf(x) - p) / gaussian_density(x)
    return x


def gaussian_interval_mass(a, b):
    """P(a <= g <= b) for g ~ N(0,1), elementwise (a float for scalar ends).
    Where a >= 0 the sign s = -1 turns s ndtr(s b) - s ndtr(s a) into the
    upper tail's ndtr(-a) - ndtr(-b), so masses in one tail keep their digits."""
    a, b = np.asarray(a, dtype=float)[()], np.asarray(b, dtype=float)[()]
    if (a > b).any():
        lo, hi = np.broadcast_arrays(a, b)
        raise ValidationError(f"interval ends out of order: {lo[lo > hi][0]} > {hi[lo > hi][0]}")
    s = 1.0 - 2.0 * (a >= 0.0)
    out = s * ndtr(s * b) - s * ndtr(s * a)
    return out if isinstance(out, np.ndarray) else float(out)


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValidationError(f"double factorial undefined for n = {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_moment(k: int) -> float:
    """E[g^k] for g ~ N(0,1): (k-1)!! for even k, 0 for odd."""
    if k < 0:
        raise ValidationError("moment order must be nonnegative")
    return float(double_factorial(k - 1)) if k % 2 == 0 else 0.0


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric m-point rule reproducing Gaussian moments up to degree 2m-1.

    nodes are ascending, weights are positive and sum to 1; for odd m the
    central node is pinned to exactly 0.
    """

    m: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.m != len(self.nodes) or self.m != len(self.weights):
            raise ValidationError("rule arrays must have length m")
        nodes = np.array(self.nodes)
        weights = np.array(self.weights)
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("nodes must be strictly ascending")
        if np.any(weights < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError("weights must sum to 1")
        if np.max(np.abs(nodes + nodes[::-1])) > 1e-12:
            raise ValidationError("nodes must be symmetric about 0")

    def moment(self, k: int) -> float:
        """Discrete moment sum_i weight_i * node_i^k.

        Summed in mirror pairs so odd moments vanish exactly (nodes and
        weights are exactly symmetric by construction).
        """
        vals = np.array(self.weights) * np.array(self.nodes) ** k
        return float(0.5 * np.sum(vals + vals[::-1]))


@dataclass(frozen=True)
class ReducedRule:
    """Parent rule with the central zero node removed.

    gap_mass is the removed central weight; discrete moments for k >= 1 are
    unchanged because the removed node sits at 0.
    """

    m: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    gap_mass: float

    def __post_init__(self):
        if len(self.nodes) != self.m - 1 or len(self.weights) != self.m - 1:
            raise ValidationError("reduced rule must have m-1 entries")
        if not 0.0 < self.gap_mass < 1.0:
            raise ValidationError("gap mass must lie in (0,1)")


def hermite_rows(x):
    """Yield h_0(x), h_1(x), ... for the Hermite polynomials orthonormal
    under N(0,1): h_0 = 1, h_1 = x, h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1).
    Unlike He_k, |h_k(x)| <= HERMITE_KAPPA * exp(x^2 / 4) stays bounded."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x
    yield prev
    for k in itertools.count(1):
        yield cur
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)


def _hermite_table(m: int, x: np.ndarray) -> np.ndarray:
    """Values h_0..h_m at x, shape (m+1, len(x)), from hermite_rows."""
    return np.array(list(itertools.islice(hermite_rows(x), m + 1)))


def hermite_rule(m: int) -> QuadratureRule:
    """m-point Gaussian quadrature rule for N(0,1), m odd in [3, 41].

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the probabilists' Hermite recurrence (off-diagonal sqrt(1..m-1)),
    polished by two Newton steps on h_m, whose derivative is sqrt(m) h_{m-1}.
    Weights come from the Christoffel function, w_i = 1 / sum_{k<m} h_k(x_i)^2:
    a sum of positive terms, so each weight is accurate relative to itself.
    Weights taken from the Jacobi eigenvectors are accurate only to ~1e-16
    absolute, while the outer weights at m=41 are ~1e-30; they would lose
    most of their digits, and the high moments the outer nodes carry would
    miss (k-1)!!.  Nodes are exactly symmetrized and the central node pinned
    to 0 so the reduced rule can peel it off.
    """
    if m % 2 == 0 or not 3 <= m <= 41:
        raise ValidationError(f"rule order must be odd in [3, 41], got {m}")
    off_diagonal = np.sqrt(np.arange(1.0, m))
    nodes = np.linalg.eigvalsh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    for _ in range(2):
        h = _hermite_table(m, nodes)
        nodes = nodes - h[m] / (math.sqrt(m) * h[m - 1])
    nodes = 0.5 * (nodes - nodes[::-1])
    nodes[(m - 1) // 2] = 0.0
    weights = 1.0 / np.sum(_hermite_table(m, nodes)[:m] ** 2, axis=0)
    weights = 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    return QuadratureRule(m=m, nodes=tuple(nodes), weights=tuple(weights))


def reduce_rule(rule: QuadratureRule, tol: float = 1e-12) -> ReducedRule:
    """Drop the central node/weight of an odd rule; record its mass."""
    if rule.m % 2 == 0:
        raise ValidationError("reduction requires an odd rule order")
    center = (rule.m - 1) // 2
    if abs(rule.nodes[center]) > tol:
        raise ValidationError(
            f"central node is {rule.nodes[center]:.3e}, expected 0 within {tol:.0e}"
        )
    nodes = rule.nodes[:center] + rule.nodes[center + 1 :]
    weights = rule.weights[:center] + rule.weights[center + 1 :]
    return ReducedRule(
        m=rule.m, nodes=nodes, weights=weights, gap_mass=rule.weights[center]
    )
