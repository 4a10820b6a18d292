"""Reference implementations kept only to cross-check the library.

Each one computes the same quantity as a production path in the plainest
form available: a Python loop where the library broadcasts, a full-grid
quadrature where the library sums a Hermite series, libm pow
where the library multiplies, one trial after another where the library
runs them concurrently, sampled projections where the library integrates
the projected law, a factor recomputed per row where the
library keeps it per sweep, two Gaussian kernels where the library uses
one likelihood ratio, each ramp's end values listed as features beside the
atom values where the library takes the atoms alone, a sample's Gaussian
blocks drawn one after another where the library fills them on worker
threads, chi-squared
summed as a Hermite series where the library integrates the exact density,
and the d x d Householder matrix where the lifted network applies the
reflection as a rank-1 update.
generate_directions packs random unit vectors with bounded overlaps by
rejection; the library needs no packing.

The closed-form moment code lives here too.  Truncated Gaussian moments
E[g^k 1{a <= g <= b}] come from the p_k antiderivative polynomials, from
incomplete gamma functions, or from adaptive quadrature, and
bump_moment_closed assembles them into the printed three-part closed form
of an even bump moment.  The library computes bump moments by contracting
one discrete law, bumps.bump_law, built on the unit-interval substitution of
the ramps, which stays stable for ramp widths down to 1e-6 where the closed
form cancels catastrophically.  reference_bump_moment and
reference_bump_moment_deps keep the per-order form of that kernel: one
scalar, libm pow and one dot product per order.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammaln, ndtr

from momentforge.bumps import _GL_NODES, _GL_WEIGHTS, Bump
from momentforge import distributions
from momentforge.distributions import (
    TAIL_SIGMAS,
    hidden_blocks,
    rng_stream,
    series_terms,
)
from momentforge.errors import ValidationError
from momentforge.gaussian import (
    SQRT_2PI,
    double_factorial,
    gaussian_density,
    gaussian_interval_mass,
)
from momentforge.integrate import feature_breakpoints, panel_integrate_2d
from momentforge.sq import CLIP_BASE, answer_sequence, build_algorithm

# Above this the p_k antiderivative form loses more than ~1e-10 relative to
# cancellation on central intervals; switch to the incomplete-gamma form.
_PK_STABLE_MAX_ORDER = 12
# Above this, fall back to adaptive quadrature of x^k * density.
_CLOSED_FORM_MAX_ORDER = 20

# Realistic relative accuracy of one truncated-moment evaluation; feeds the
# closed-form cancellation estimate.
_TERM_RELATIVE_ERROR = 1e-13

# generate_directions draws from this Philox stream id.
STREAM_DIRECTIONS = 4


def sample_hidden(hd, n, seed):
    """n vectors s*v + (I - vv')g with s from the marginal, g ~ N(0, I_d):
    the blocks of distributions.hidden_blocks stacked."""
    return np.concatenate(list(hidden_blocks(hd, n, seed)))


def keyed_gaussian_blocks(seed, stream, n, width):
    """The blocks of distributions._gaussian_blocks, one after another: block
    b holds `rows` rows (the largest power of two with rows * width <=
    SAMPLE_BLOCK, at least one), the last block also takes the remainder,
    and block b is drawn from the (seed, stream) Philox generator jumped b
    times."""
    rows = 1
    while 2 * rows * width <= distributions.SAMPLE_BLOCK:
        rows *= 2
    philox = rng_stream(seed, stream).bit_generator
    blocks = []
    start = 0
    while start < n:
        size = n - start if n - start < 2 * rows else rows
        rng = np.random.Generator(philox.jumped(len(blocks)))
        blocks.append(rng.standard_normal((size, width)))
        start += size
    return blocks


def householder_rotation(v: np.ndarray) -> np.ndarray:
    """Orthogonal map sending e_1 to the unit vector v (identity if v = e_1)."""
    v = np.asarray(v, dtype=float)
    d = v.size
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
        raise ValidationError("direction must be a unit vector")
    e1 = np.zeros(d)
    e1[0] = 1.0
    u = e1 - v
    nrm2 = float(u @ u)
    if nrm2 < 1e-24:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(u, u) / nrm2


def generate_directions(d, count, max_overlap, seed, retry_budget=None):
    """Random unit vectors with pairwise |<u, v>| < max_overlap, by rejection."""
    if count < 2:
        raise ValidationError("need at least two directions")
    if not 0.0 < max_overlap < 1.0:
        raise ValidationError("max_overlap must lie in (0,1)")
    rng = rng_stream(seed, STREAM_DIRECTIONS)
    budget = retry_budget if retry_budget is not None else 500 * count
    accepted = []
    stacked = np.empty((0, d))
    for _ in range(budget):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        if stacked.shape[0] == 0 or np.max(np.abs(stacked @ u)) < max_overlap:
            accepted.append(u)
            stacked = np.vstack([stacked, u])
            if len(accepted) == count:
                return accepted
    raise ValidationError(
        f"could not place {count} directions with overlap < {max_overlap} in {d} "
        "dimensions; increase d or max_overlap"
    )


@dataclass(frozen=True)
class SeriesSum:
    """sum_{k=1}^{terms} rho^k a_k^2, the certified bound on the terms after
    it, and the value's error estimate (that bound plus rounding)."""

    value: float
    terms: int
    tail_bound: float
    error_estimate: float


def chi_squared_series(dist, tol, cosine=1.0):
    """chi_{N(0,I)}(P_v, P_v') at the given cosine as the Hermite series
    sum_{k>=1} rho^k a_k^2, rho = cosine scale^2, summed to tol with
    verify.pairwise_correlation's arithmetic in its order.  At cosine 1 it
    is chi^2(D', N(0,1)), which verify integrates from the exact density."""
    rho = cosine * dist.scale * dist.scale
    bound = dist.hermite_bound()
    constant = bound * bound / (1.0 - abs(rho))
    terms = series_terms(constant, abs(rho), tol)
    k = np.arange(1, terms + 1)
    coeffs = dist.hermite_spectrum(terms)[1:]
    weighted = rho**k * coeffs * coeffs
    tail = constant * abs(rho) ** (terms + 1)
    rounding = float(np.finfo(float).eps) * float(
        np.sum(abs(rho) ** k * 2.0 * (k + 2) * bound * np.abs(coeffs))
        + (terms + 1) * np.sum(np.abs(weighted))
    )
    return SeriesSum(float(np.sum(weighted)), terms, tail, tail + rounding)


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


def per_row_tv(dist, cosine, breaks, tol_abs):
    """verify.tv_hidden_pair's (value, error) with L(x) and L(x') both
    recomputed on every row of the panel sweep."""
    sin_t = math.sin(math.acos(cosine))
    inv = -0.5 / (sin_t * sin_t)

    def ratio(t):
        return dist.density(t) * np.exp(0.5 * t * t) / (SQRT_2PI * sin_t)

    def integrand(gx, gxp):
        grid = np.multiply.outer(gx * (-2.0 * cosine * inv), gxp)
        grid += (gx * gx * inv)[:, None]
        grid += gxp * gxp * inv
        np.exp(grid, out=grid)
        grid *= np.minimum(ratio(gx)[:, None], ratio(gxp))
        return grid

    overlap, error = panel_integrate_2d(integrand, breaks, breaks, tol_abs)
    return 1.0 - overlap, error


def kernel_pair_tv(dist, cosine, breaks, tol_abs):
    """TV between P_v and P_v' as the overlap of the two plane densities,
    min(D(x) phi(y), D(x') phi(y')) / sin theta with y, y' the coordinates
    orthogonal to x and x'; D and both Gaussian kernels on every row."""
    sin_t = math.sin(math.acos(cosine))

    def integrand(gx, gxp):
        x, xp = gx[:, None], gxp[None, :]
        y = (xp - x * cosine) / sin_t
        yp = (xp * cosine - x) / sin_t
        first = dist.density(gx)[:, None] * gaussian_density(y)
        second = dist.density(gxp)[None, :] * gaussian_density(yp)
        return np.minimum(first, second) / sin_t

    overlap, error = panel_integrate_2d(integrand, breaks, breaks, tol_abs)
    return 1.0 - overlap, error


def ramp_end_features(law):
    """The law's atom values and each ramp's end values, recomputed as
    slope * g + intercept at both ends, all scaled by the law's coefficient;
    one sorted copy of each distinct float."""
    points = [law.coef * v for v in law.atom_values]
    for g_lo, g_hi, slope, intercept in law.ramps:
        for g in (g_lo, g_hi):
            points.append(law.coef * (slope * g + intercept))
    return np.unique(points)


def ramp_end_breaks(dist):
    """The marginal's plane breaks with ramp_end_features as features, on
    the support radius plus TAIL_SIGMAS noise widths each side."""
    bound = dist.support_radius() + TAIL_SIGMAS * dist.sigma
    return feature_breakpoints(-bound, bound, ramp_end_features(dist.law), dist.sigma)


def sampled_exceedance(dist, cosine, threshold, n, seed):
    """verify.distance_to_support's exceedance probability by sampling: the
    share of n projections <v, x>, x ~ P_v' at the cosine, farther than
    threshold from the scaled heights.  The marginal draws come from stream
    5 and the orthogonal normals from stream 0x105, combined as
    cos * s + sin * y."""
    s = dist.sample(n, seed, stream=5)
    y = rng_stream(seed, 0x105).standard_normal(n)
    proj = cosine * s + math.sqrt(1.0 - cosine * cosine) * y
    comb = dist.scale * dist.inst.heights()
    far = np.min(np.abs(proj[:, None] - comb[None, :]), axis=1) > threshold
    return float(np.mean(far))


def pow_monomial_values(coords, query):
    """MonomialQuery values before the range clip, by libm pow:
    prod_i coords[:, i] ** powers[i] / clip_scale."""
    powered = coords ** np.asarray(query.powers, dtype=float)
    return np.prod(powered, axis=1) / query.clip_scale


def pow_clipped_power(j: int):
    """sq._clipped_power(j) by libm pow: clip(t ** j / CLIP_BASE^j, -1, 1)."""
    scale = CLIP_BASE**j

    def fn(t):
        return np.clip(np.asarray(t, dtype=float) ** j / scale, -1.0, 1.0)

    return fn


def serial_distinguisher(algo_id, oracle_factory, trials, seed, **algo_params):
    """sq.run_distinguisher's trials in one loop on the calling thread.

    Returns (truths, decisions, queries_used, oracles), the oracles in trial
    order with their query logs.
    """
    truths, decisions, oracles = [], [], []
    for trial in range(trials):
        planted = trial % 2 == 0
        oracle, candidate = oracle_factory("planted" if planted else "null", trial)
        algorithm = build_algorithm(
            algo_id,
            oracle.d,
            seed=seed + 7919 * trial,
            planted_hint=candidate if algo_id == "oracle-v" else None,
            **algo_params,
        )
        decisions.append(algorithm.decide(answer_sequence(oracle, algorithm)))
        truths.append(planted)
        oracles.append(oracle)
    queries_used = sum(oracle.query_count for oracle in oracles)
    return tuple(truths), tuple(decisions), queries_used, oracles


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


def reference_bump_moment(b: Bump, k: int) -> float:
    """bumps.bump_moment at one order: the plateau term plus one dot product
    of the ramp integrand over the 64-node rule, powers by libm pow."""
    c, w, h, e = b.center, b.half_width, b.height, b.ramp
    plateau = h**k * gaussian_interval_mass(c - w, c + w)
    if e == 0.0 or h == 0.0:
        return plateau if h != 0.0 else 0.0
    u = _GL_NODES
    vals = (h * u) ** k * (
        gaussian_density(c - e - w + e * u) + gaussian_density(c + e + w - e * u)
    )
    return plateau + e * float(np.dot(_GL_WEIGHTS, vals))


def reference_bump_moment_deps(b: Bump, k: int) -> float:
    """bumps.bump_moment_deps at one order, differentiating the ramp
    integrand under the integral, powers by libm pow."""
    c, w, h, e = b.center, b.half_width, b.height, b.ramp
    if h == 0.0:
        return 0.0
    u = _GL_NODES
    z_lo = c - e - w + e * u
    z_hi = c + e + w - e * u
    base = (h * u) ** k
    first = base * (gaussian_density(z_lo) + gaussian_density(z_hi))
    second = base * (u - 1.0) * (
        -z_lo * gaussian_density(z_lo) + z_hi * gaussian_density(z_hi)
    )
    return float(np.dot(_GL_WEIGHTS, first + e * second))


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
