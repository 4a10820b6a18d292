"""Reference implementations kept only to cross-check the library.

Each one computes the same quantity as a production path in the plainest
form available: a Python loop where the library broadcasts, a full grid
or a 1-D quadrature where the library sums a Hermite series.

The closed-form moment code lives here too.  Truncated Gaussian moments
E[g^k 1{a <= g <= b}] come from the p_k antiderivative polynomials, from
incomplete gamma functions, or from adaptive quadrature, and
bump_moment_closed assembles them into the printed three-part closed form
of an even bump moment.  The library computes bump moments on the unit-
interval substitution instead (bumps.bump_moment), which stays stable for
ramp widths down to 1e-6 where the closed form cancels catastrophically.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammaln, ndtr

from momentforge.bumps import Bump
from momentforge.errors import ValidationError
from momentforge.gaussian import (
    SQRT_2PI,
    double_factorial,
    gaussian_density,
    gaussian_interval_mass,
)
from momentforge.integrate import panel_integrate_1d, panel_integrate_2d

# Above this the p_k antiderivative form loses more than ~1e-10 relative to
# cancellation on central intervals; switch to the incomplete-gamma form.
_PK_STABLE_MAX_ORDER = 12
# Above this, fall back to adaptive quadrature of x^k * density.
_CLOSED_FORM_MAX_ORDER = 20

# Realistic relative accuracy of one truncated-moment evaluation; feeds the
# closed-form cancellation estimate.
_TERM_RELATIVE_ERROR = 1e-13


def reference_density(law, x):
    """ProjectedLaw.density with one loop iteration per ramp."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    var0 = law.width * law.width
    out = np.zeros_like(pts)
    if law.atom_values.size:
        shifted = pts[:, None] - law.coef * law.atom_values[None, :]
        kern = np.exp(-shifted * shifted / (2.0 * var0)) / (
            law.width * math.sqrt(2.0 * math.pi)
        )
        out += kern @ law.atom_masses
    for g_lo, g_hi, slope, intercept in law.ramps:
        b = law.coef * slope
        a = pts - law.coef * intercept
        var = var0 + b * b
        coefs = np.exp(-a * a / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        mu = a * b / var
        sd = law.width / math.sqrt(var)
        t_lo = (g_lo - mu) / sd
        t_hi = (g_hi - mu) / sd
        flip = t_lo > 0.0
        lo = np.where(flip, -t_hi, t_lo)
        hi = np.where(flip, -t_lo, t_hi)
        out += coefs * (ndtr(hi) - ndtr(lo))
    return out


def meshgrid_correlation(dist, cosine, breaks, tol_abs):
    """chi_{N(0,I)}(P_v, P_v') with the integrand evaluated point by point
    on the full panel grid, densities included."""
    sin_t = math.sin(math.acos(cosine))

    def pointwise(x, xp):
        yp = (xp * cosine - x) / sin_t
        return (
            dist.density(x)
            * dist.density(xp)
            * gaussian_density(yp)
            / gaussian_density(x)
            / sin_t
        )

    def on_grid(gx, gy):
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        return pointwise(X.ravel(), Y.ravel()).reshape(X.shape)

    value, _ = panel_integrate_2d(on_grid, breaks, breaks, tol_abs)
    return value - 1.0


def quadrature_chi_squared(dist, breaks, tol_abs):
    """chi^2(D', N(0,1)) as the integral of D'(x)^2 / gaussian(x), minus 1."""

    def integrand(x):
        dens = dist.density(x)
        return dens * dens / gaussian_density(x)

    value, _ = panel_integrate_1d(integrand, breaks, tol_abs)
    return value - 1.0


def double_fact_falling(m: int, i: int) -> int:
    """Falling double factorial m(m-2)...(m-2i+2); equals 1 when i = 0."""
    if m < 0 or i < 0:
        raise ValidationError("arguments must be nonnegative")
    if i >= 1 and m - 2 * i + 2 < 0:
        raise ValidationError(f"falling product runs negative: m={m}, i={i}")
    out = 1
    for j in range(i):
        out *= m - 2 * j
    return out


def p_poly(k: int, x: float) -> float:
    """Antiderivative polynomial for truncated Gaussian moments.

    p_k(x) = sum_{i=0}^{floor((k-1)/2)} (k-1)^{falling i} x^{k-1-2i}, and
    d/dx[-p_k(x) density(x)] = (x^k - gaussian_moment(k)) density(x).
    p_0 is the empty sum, identically 0.
    """
    if k < 0:
        raise ValidationError("p_poly order must be nonnegative")
    if not math.isfinite(x):
        raise ValidationError("non-finite input to p_poly")
    if k == 0:
        return 0.0
    total = 0.0
    for i in range((k - 1) // 2 + 1):
        total += double_fact_falling(k - 1, i) * x ** (k - 1 - 2 * i)
    return total


def _pk_boundary_term(k: int, x: float) -> float:
    """p_k(x) * density(x), with the correct 0 limit at infinite x."""
    if math.isinf(x):
        return 0.0
    return p_poly(k, x) * gaussian_density(x)


def _truncated_moment_pk(k: int, a: float, b: float) -> tuple[float, float]:
    """Closed form via p_k; returns (value, magnitude of largest term)."""
    term_b = _pk_boundary_term(k, b)
    term_a = _pk_boundary_term(k, a)
    if k % 2 == 1:
        return -(term_b - term_a), max(abs(term_b), abs(term_a))
    lead = double_factorial(k - 1) * _interval_mass_clipped(a, b)
    return lead - (term_b - term_a), max(abs(lead), abs(term_b), abs(term_a))


def _interval_mass_clipped(a: float, b: float) -> float:
    return gaussian_interval_mass(max(a, -40.0), min(b, 40.0)) if a <= b else 0.0


def _truncated_moment_gamma(k: int, lo: float, hi: float) -> float:
    """E[g^k 1{lo <= g <= hi}] for 0 <= lo <= hi via regularized gammas.

    Substituting t = x^2/2 turns the integral into an incomplete-gamma
    difference; the lower tail uses the series branch and the upper tail the
    continued-fraction branch, so the difference stays relatively accurate
    where the p_k form cancels catastrophically.
    """
    s = (k + 1) / 2.0
    t_lo = lo * lo / 2.0
    t_hi = math.inf if math.isinf(hi) else hi * hi / 2.0
    scale = math.exp(((k - 1) / 2.0) * math.log(2.0) + gammaln(s)) / SQRT_2PI
    if t_hi <= s + 1.0:
        return scale * (gammainc(s, t_hi) - gammainc(s, t_lo))
    return scale * (gammaincc(s, t_lo) - (0.0 if math.isinf(t_hi) else gammaincc(s, t_hi)))


def _truncated_moment_split(k: int, a: float, b: float) -> float:
    """Gamma-form moment on [a, b], split at 0 to exploit symmetry.

    For odd k straddling zero the symmetric part cancels analytically, so
    only the one-sided remainder is evaluated.
    """
    if a >= 0.0:
        return _truncated_moment_gamma(k, a, b)
    if b <= 0.0:
        return (-1.0) ** k * _truncated_moment_gamma(k, -b, -a)
    if k % 2 == 1:
        lo, hi = min(-a, b), max(-a, b)
        sign = 1.0 if b >= -a else -1.0
        return sign * _truncated_moment_gamma(k, lo, hi)
    return _truncated_moment_gamma(k, 0.0, -a) + _truncated_moment_gamma(k, 0.0, b)


def truncated_moment(k: int, a: float, b: float) -> float:
    """E[g^k 1{a <= g <= b}] for g ~ N(0,1); a <= b, infinite endpoints allowed.

    Uses the p_k antiderivative form while it is numerically safe, the
    incomplete-gamma form when double-factorial growth would cancel, and
    adaptive quadrature beyond order 20.
    """
    if k < 0:
        raise ValidationError("moment order must be nonnegative")
    if math.isnan(a) or math.isnan(b) or a > b:
        raise ValidationError(f"invalid truncation interval [{a}, {b}]")
    if a == b:
        return 0.0
    if k == 0:
        return _interval_mass_clipped(a, b)
    if k <= _PK_STABLE_MAX_ORDER:
        value, magnitude = _truncated_moment_pk(k, a, b)
        # Cancellation estimate: if the surviving value is many digits below
        # the largest intermediate term, recompute through the gamma route.
        if abs(value) > 1e-6 * magnitude:
            return value
        return _truncated_moment_split(k, a, b)
    if k <= _CLOSED_FORM_MAX_ORDER:
        return _truncated_moment_split(k, a, b)
    lo, hi = max(a, -45.0), min(b, 45.0)
    if lo >= hi:
        return 0.0
    value, _ = integrate.quad(
        lambda x: x**k * gaussian_density(x),
        lo,
        hi,
        points=[0.0] if lo < 0.0 < hi else None,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=400,
    )
    return value


def shifted_truncated_moment(c: float, dshift: float, k: int, a: float, b: float) -> float:
    """E[(c*g + dshift)^k 1{a <= g <= b}] for even k, by binomial expansion."""
    if k < 0 or k % 2 != 0:
        raise ValidationError(f"shifted moment requires even k, got {k}")
    if math.isnan(a) or math.isnan(b) or a > b:
        raise ValidationError(f"invalid truncation interval [{a}, {b}]")
    total = 0.0
    for i in range(k + 1):
        total += math.comb(k, i) * c**i * dshift ** (k - i) * truncated_moment(i, a, b)
    return total


def _shifted_truncated_moment_terms(
    c: float, dshift: float, k: int, a: float, b: float
) -> tuple[float, float]:
    """Like shifted_truncated_moment but also returns the summed |term| mass."""
    total = 0.0
    magnitude = 0.0
    for i in range(k + 1):
        term = math.comb(k, i) * c**i * dshift ** (k - i) * truncated_moment(i, a, b)
        total += term
        magnitude += abs(term)
    return total, magnitude


@dataclass(frozen=True)
class ClosedFormMoment:
    """Closed-form bump moment plus a cancellation diagnostic.

    predicted_error estimates the relative precision lost to cancellation;
    reliable is False once that estimate exceeds 1e-3.
    """

    value: float
    predicted_error: float
    reliable: bool


def bump_moment_closed(b: Bump, k: int) -> ClosedFormMoment:
    """Even bump moment via the printed three-part closed form.

    Requires the bump fully right of the origin (center - ramp - half_width
    >= 0), even k, and a positive ramp.  Used only to cross-check
    bump_moment in the regime where (height/ramp)^k is representable.
    """
    if k < 2 or k % 2 != 0:
        raise ValidationError("closed form applies to even k >= 2")
    c, w, h, e = b.center, b.half_width, b.height, b.ramp
    if e <= 0.0:
        raise ValidationError("closed form requires positive ramp width")
    if c - e - w < 0.0:
        raise ValidationError("closed form requires the bump right of the origin")
    plateau = h**k * gaussian_interval_mass(c - w, c + w)
    slope = h / e
    up, up_mag = _shifted_truncated_moment_terms(
        slope, slope * (-c + e + w), k, c - e - w, c - w
    )
    down, down_mag = _shifted_truncated_moment_terms(
        -slope, slope * (c + e + w), k, c + w, c + e + w
    )
    value = plateau + up + down
    magnitude = abs(plateau) + up_mag + down_mag
    # Each binomial term carries the ~1e-13 relative error of a truncated
    # moment over a narrow interval, not bare machine epsilon; the loss is
    # that per-term error amplified by the cancellation ratio.
    predicted = magnitude * _TERM_RELATIVE_ERROR / max(abs(value), np.finfo(float).tiny)
    return ClosedFormMoment(
        value=value, predicted_error=predicted, reliable=predicted <= 1e-3
    )
