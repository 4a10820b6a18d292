"""Trapezoidal bump functions, their Gaussian pushforward moments, and the
layout that assembles the initial piecewise-linear map.

A bump of height h sits on a plateau [center-half_width, center+half_width]
with linear ramps of width `ramp` on both sides.  An instance is a sum of
m-1 such bumps with pairwise disjoint supports, mirror-symmetric about the
origin, whose plateau masses reproduce the reduced quadrature rule weights.
The pushforward of N(0,1) through an instance therefore matches the Gaussian
moments up to degree 2m-1 exactly in the ramp-free limit, and to measured
accuracy for small positive ramp width.

Every moment and ramp-width derivative contracts one discrete law, bump_law,
whose ramp atoms come from substituting each ramp onto the unit interval; that
keeps them stable for ramp widths down to 1e-6 where the printed closed form
would cancel catastrophically.  The closed form and a per-order kernel live in
tests/oracles.py, where the tests use them as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SupportCollisionError, ValidationError
from .gaussian import (
    ReducedRule,
    gaussian_density,
    gaussian_interval_mass,
    gaussian_moment,
    gaussian_quantile,
)

__all__ = [
    "Bump",
    "BumpInstance",
    "bump_eval",
    "instance_eval",
    "bump_law",
    "law_moment",
    "bump_moment",
    "bump_moment_dh",
    "bump_moment_deps",
    "layout",
    "instance_pushforward_moment",
    "instance_value_law",
]

# Fixed-order Gauss-Legendre rule on [0,1] for the ramp integrals.
_GL_ORDER = 64
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL_NODES = (_gl_x + 1.0) / 2.0
_GL_WEIGHTS = _gl_w / 2.0


@dataclass(frozen=True)
class Bump:
    """One trapezoid: plateau of height `height` and half-width `half_width`
    centered at `center`, with ramps of width `ramp` on each side.

    ramp = 0 is the indicator-plateau limit (closed plateau, 0 elsewhere).
    """

    center: float
    half_width: float
    height: float
    ramp: float

    def __post_init__(self):
        if self.half_width < 0 or self.ramp < 0:
            raise ValidationError("half_width and ramp must be nonnegative")
        for v in (self.center, self.half_width, self.height, self.ramp):
            if not math.isfinite(v):
                raise ValidationError("bump parameters must be finite")

    @property
    def support(self) -> tuple[float, float]:
        r = self.ramp + self.half_width
        return (self.center - r, self.center + r)

    @property
    def plateau_mass(self) -> float:
        """Gaussian mass of the plateau [center - half_width, center + half_width]."""
        c, w = self.center, self.half_width
        return gaussian_interval_mass(c - w, c + w)

    def mirrored(self) -> "Bump":
        return replace(self, center=-self.center, height=-self.height)


def bump_eval(b: Bump, z):
    """Evaluate the trapezoid at z (scalar or array)."""
    z = np.asarray(z, dtype=float)
    s = z - b.center
    out = np.zeros_like(s)
    if b.ramp == 0.0:
        out = np.where(np.abs(s) <= b.half_width, b.height, 0.0)
        return float(out) if out.ndim == 0 else out
    w, e, h = b.half_width, b.ramp, b.height
    slope = h / e
    up = (s >= -e - w) & (s < -w)
    plateau = (s >= -w) & (s <= w)
    down = (s > w) & (s <= e + w)
    out = np.where(up, slope * (s + e + w), out)
    out = np.where(plateau, h, out)
    out = np.where(down, -slope * (s - e - w), out)
    return float(out) if out.ndim == 0 else out


def bump_law(b: Bump) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, masses, mass_deps) of T(g) on the bump's support, g ~ N(0,1).

    The plateau atom comes first; both ramps then share the 64-node rule on
    the unit interval, node u carrying the value height*u.  mass_deps is the
    masses' derivative in the ramp width (0 for the plateau mass).
    """
    c, w, h, e = b.center, b.half_width, b.height, b.ramp
    u = _GL_NODES
    z_lo = c - e - w + e * u
    z_hi = c + e + w - e * u
    d_lo, d_hi = gaussian_density(z_lo), gaussian_density(z_hi)
    # d(density)/dz = -z density(z); the edge nodes move at speeds u-1 and 1-u.
    deps = _GL_WEIGHTS * (d_lo + d_hi + e * (u - 1.0) * (z_hi * d_hi - z_lo * d_lo))
    return (
        np.concatenate(([h], h * u)),
        np.concatenate(([b.plateau_mass], e * _GL_WEIGHTS * (d_lo + d_hi))),
        np.concatenate(([0.0], deps)),
    )


def law_moment(values: np.ndarray, weights: np.ndarray, k):
    """sum(weights * values**k), a float for one order k or an array for an
    array of orders.  Powers are repeated products; each order's sum is
    bit-identical whether it is asked for alone or among others."""
    orders = np.asarray(k)
    if np.any(orders < 1):
        raise ValidationError("moment order must be >= 1")
    powers = np.empty((int(orders.max()), values.size))
    powers[0] = values
    for j in range(1, len(powers)):
        np.multiply(powers[j - 1], values, out=powers[j])
    out = (powers[orders - 1] * weights).sum(axis=-1)
    return float(out) if orders.ndim == 0 else out


def bump_moment(b: Bump, k):
    """E[T(g)^k] for g ~ N(0,1), T the bump, at one order or an array of
    orders: the bump law contracted with values**k."""
    values, masses, _ = bump_law(b)
    return law_moment(values, masses, k)


def bump_moment_dh(b: Bump, k: int) -> float:
    """d/dh of the bump moment: (k/h) * moment, since height factors out."""
    if b.height == 0.0:
        raise ValidationError("height derivative undefined at height 0")
    return (k / b.height) * bump_moment(b, k)


def bump_moment_deps(b: Bump, k):
    """d/d(ramp) of the bump moment at one order or an array of orders: the
    bump law's mass derivatives contracted with values**k.

    Satisfies |result| <= |height|^k for even k (moving one edge by d(ramp)
    shifts at most d(ramp)/2 of Gaussian mass under a value bounded by h^k).
    """
    if b.ramp <= 0.0:
        raise ValidationError("ramp derivative requires a positive ramp width")
    values, _, mass_deps = bump_law(b)
    return law_moment(values, mass_deps, k)


@dataclass(frozen=True)
class BumpInstance:
    """Sum of m-1 disjoint bumps with shared ramp width and mirror symmetry.

    intervals holds the plateau interval endpoints (a_i, b_i) from the layout;
    gap_mass is the Gaussian mass of the region where the sum is zero in the
    ramp-free limit; nu is the moment tolerance the construction targets.
    """

    m: int
    bumps: tuple[Bump, ...]
    eps: float
    gap_mass: float
    nu: float
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.m % 2 == 0 or self.m < 3:
            raise ValidationError("instance order m must be odd and >= 3")
        if len(self.bumps) != self.m - 1:
            raise ValidationError(f"expected {self.m - 1} bumps, got {len(self.bumps)}")
        self.validate()

    def validate(self, tol: float = 1e-9):
        """Re-check symmetry, shared ramp, and support separation."""
        n = len(self.bumps)
        for b in self.bumps:
            if abs(b.ramp - self.eps) > 0.0:
                raise ValidationError("all bumps must share the instance ramp width")
        for i in range(n // 2):
            lo, hi = self.bumps[i], self.bumps[n - 1 - i]
            if (
                abs(lo.center + hi.center) > tol
                or abs(lo.half_width - hi.half_width) > tol
                or abs(lo.height + hi.height) > tol
            ):
                raise ValidationError(
                    f"bumps {i} and {n - 1 - i} break the mirror symmetry"
                )
        for i in range(n - 1):
            gap = self.bumps[i + 1].support[0] - self.bumps[i].support[1]
            if gap <= 0.0:
                raise SupportCollisionError(i, i + 1, gap)

    @property
    def half(self) -> int:
        return (self.m - 1) // 2

    def heights(self) -> np.ndarray:
        return np.array([b.height for b in self.bumps])

    def left_heights(self) -> np.ndarray:
        return self.heights()[: self.half]

    def max_slope(self) -> float:
        if self.eps == 0.0:
            return math.inf
        return float(np.max(np.abs(self.heights()))) / self.eps

    def support_gaps(self) -> np.ndarray:
        """Gaps between consecutive bump supports (positive while disjoint)."""
        ends = np.array([b.support[1] for b in self.bumps[:-1]])
        starts = np.array([b.support[0] for b in self.bumps[1:]])
        return starts - ends

    def with_state(self, left_heights: np.ndarray, eps: float) -> "BumpInstance":
        """New instance with updated left-half heights (mirrored) and ramp."""
        left_heights = np.asarray(left_heights, dtype=float)
        if left_heights.shape != (self.half,):
            raise ValidationError("left_heights must have length (m-1)/2")
        full = np.concatenate([left_heights, -left_heights[::-1]])
        bumps = tuple(
            replace(b, height=float(h), ramp=float(eps))
            for b, h in zip(self.bumps, full)
        )
        return replace(self, bumps=bumps, eps=float(eps))

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-linear breakpoints (x, f(x)) for positive ramp width."""
        if self.eps <= 0.0:
            raise ValidationError("breakpoints need a positive ramp width")
        xs, fs = [], []
        for b in self.bumps:
            lo, hi = b.support
            xs += [lo, b.center - b.half_width, b.center + b.half_width, hi]
            fs += [0.0, b.height, b.height, 0.0]
        return np.array(xs), np.array(fs)


def instance_eval(inst: BumpInstance, z):
    """Evaluate the bump sum at z; 0 between and outside supports."""
    z = np.asarray(z, dtype=float)
    if inst.eps > 0.0:
        xs, fs = inst.breakpoints()
        out = np.interp(z, xs, fs, left=0.0, right=0.0)
    else:
        out = np.zeros_like(z, dtype=float)
        for b in inst.bumps:
            out = out + bump_eval(b, z)
    return float(out) if out.ndim == 0 else out


def layout(reduced: ReducedRule, eps0: float, nu: float) -> BumpInstance:
    """Assemble the initial instance from a reduced rule.

    Intervals are laid out left to right: a Gaussian mass of gap_mass/m is
    reserved before each left-half interval, interval i receives plateau mass
    weight_i, and the right half mirrors the left.  Heights come from the
    reduced rule nodes and every bump gets the shared ramp width eps0.

    Raises SupportCollisionError if eps0 makes neighboring supports touch,
    and ValidationError if the measured moment error at eps0 exceeds nu/2;
    that error names a smaller eps0 whose moments pass, when it finds one, and
    otherwise the ramp-free moment error that bounds every eps0 from below.
    """
    if not eps0 > 0.0:
        raise ValidationError("eps0 must be positive")
    if not 0.0 < nu < 1.0:
        raise ValidationError("nu must lie in (0,1)")
    m = reduced.m
    half = (m - 1) // 2
    gap_unit = reduced.gap_mass / m

    cum = gap_unit
    left: list[tuple[float, float]] = []
    for i in range(half):
        a = gaussian_quantile(cum)
        cum += reduced.weights[i]
        b = gaussian_quantile(cum)
        cum += gap_unit
        left.append((a, b))
    intervals = left + [(-b, -a) for (a, b) in reversed(left)]

    bumps = []
    for (a, b), h in zip(intervals, reduced.nodes):
        bumps.append(
            Bump(
                center=(a + b) / 2.0,
                half_width=(b - a) / 2.0,
                height=float(h),
                ramp=eps0,
            )
        )
    for i in range(m - 2):
        gap = bumps[i + 1].support[0] - bumps[i].support[1]
        if gap <= 0.0:
            raise SupportCollisionError(i, i + 1, gap)

    inst = BumpInstance(
        m=m,
        bumps=tuple(bumps),
        eps=eps0,
        gap_mass=reduced.gap_mass,
        nu=nu,
        intervals=tuple(intervals),
    )
    worst = _moment_error(inst, eps0)
    if worst >= nu / 2.0:
        message = f"moment error {worst:.3e} at eps0={eps0:.1e} exceeds nu/2 = {nu / 2:.3e}"
        # The ramp error is linear in eps0: scale eps0 down to nu/2 with a
        # margin, and name the result only if its moments pass.
        feasible = float(f"{0.9 * eps0 * (nu / 2.0) / worst:.1e}")
        if _moment_error(inst, feasible) < nu / 2.0:
            message += f"; eps0={feasible:.1e} is feasible"
        else:
            # The plateau atoms alone: the limit of the error as eps0 -> 0.
            floor = _moment_error(inst, 0.0)
            message += f"; the ramp-free moment error is {floor:.3e}"
            if floor >= nu / 2.0:
                message += f", so no eps0 passes at nu={nu:g}"
        raise ValidationError(message)
    return inst


def _moment_error(inst: BumpInstance, eps: float) -> float:
    """Largest |E[x^k] - E[g^k]| over the orders 1..m that the layout matches,
    with every ramp at width eps."""
    ramped = tuple(replace(b, ramp=eps) for b in inst.bumps)
    orders = range(1, inst.m + 1)
    moments = instance_pushforward_moment(replace(inst, bumps=ramped, eps=eps), np.array(orders))
    return float(max(abs(mu - gaussian_moment(k)) for k, mu in zip(orders, moments)))


def instance_pushforward_moment(inst: BumpInstance, k):
    """E[x^k] for x ~ instance(N(0,1)), at one order or an array of orders:
    the instance value law contracted with values**k."""
    return law_moment(*instance_value_law(inst), k)


def instance_value_law(inst: BumpInstance) -> tuple[np.ndarray, np.ndarray]:
    """Discrete law (values, masses) of f(g), g ~ N(0,1): the zero region,
    then every bump's law from bump_law."""
    laws = [bump_law(b) for b in inst.bumps]
    values = np.concatenate([np.zeros(1)] + [law[0] for law in laws])
    masses = np.concatenate([np.zeros(1)] + [law[1] for law in laws])
    masses[0] = 1.0 - masses[1:].sum()
    return values, masses
