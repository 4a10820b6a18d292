"""Numerical verification of the construction's statistical properties.

The checks mirror what the construction promises: pushforward moments close
to the Gaussian ones, a finite chi-squared divergence from N(0,1), pairwise
correlations of hidden-direction laws decaying like cosine^(m+1), near-total
TV separation between differently oriented copies, and a Wasserstein-1 bound
on how far the flow moves the law.  Chi-squared is the 1-D integral of
D'(x)^2 / phi(x) with a closed-form tail bound; the flow's W1 is the 1-D
integral of |F_0 - F_T| over the two instances' exact CDFs; pairwise
correlation is a sum over the marginal's Hermite spectrum with a certified
tail; TV reduces exactly to a 2-D integral over the plane spanned by the two
directions.  The integrals run on feature-aligned panels with an
embedded-order error estimate.

Every bound comparison is recorded with its margin and the error estimate of
its value, and passes only if it holds after that error; the report is
self-contained and serializes to JSON.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .bumps import BumpInstance
from .distributions import (
    STREAM_SUPPORT,
    PushforwardDist,
    hidden_projection,
    rng_stream,
    series_terms,
)
from .errors import NumericGuardError, SeriesTruncationError, ValidationError
from .flow import EvolutionTrace, VandermondeCheck, vandermonde_sigma_check
from .gaussian import SQRT_2PI, gaussian_density, gaussian_moment
# bench/tracer.py wraps each module's panel_integrate_1d by name.
from .integrate import (
    ROUNDING_ULPS,
    Estimate,
    feature_breakpoints,
    panel_integrate_1d,
    panel_integrate_2d,
)
from .network import ReluNetwork1D

# A spectral sum needing more terms than this raises SeriesTruncationError.
SERIES_TERM_CEILING = 1_000_000
# Absolute tolerance of the flow's W1 integral.
W1_TOL = 1e-10
# exp(t^2 / 2), and so the likelihood ratio D/phi, overflows past this |t|.
RATIO_REACH = math.sqrt(2.0 * math.log(np.finfo(float).max))

__all__ = [
    "Estimate",
    "SpectralSum",
    "ChiSquaredResult",
    "BoundCheck",
    "SupportDistanceResult",
    "VerifyConfig",
    "VerificationReport",
    "spectral_sum",
    "chi_squared_vs_gaussian",
    "pairwise_correlation",
    "tv_hidden_pair",
    "w1_empirical",
    "w1_instances",
    "distance_to_support",
    "verify_instance",
]


@dataclass(frozen=True)
class SpectralSum:
    """sum_{k=1}^{terms} rho^k a_k^2, the certified bound on the terms after
    it, and the value's error estimate (that bound plus rounding)."""

    value: float
    terms: int
    tail_bound: float
    error_estimate: float


def spectral_sum(dist: PushforwardDist, rho: float, tol_abs: float) -> SpectralSum:
    """sum_{k>=1} rho^k a_k^2 over dist's Hermite spectrum, |rho| < 1.

    D' has the normalized Hermite coefficients scale^k a_k, so rho = scale^2
    gives chi^2(D', N) and rho = cosine scale^2 the pairwise correlation
    (Diakonikolas-Kane-Stewart, FOCS 2017).  With |a_k| <= B, the terms after
    K add at most B^2 |rho|^(K+1) / (1 - |rho|); K is the smallest count that
    brings this to tol_abs.  Rounding is estimated as (k + 2) ulps of B in
    each a_k and (K + 1) ulps of each term in the sum.
    """
    bound = dist.hermite_bound()
    constant = bound * bound / (1.0 - abs(rho))
    terms = series_terms(constant, abs(rho), tol_abs)
    if terms > SERIES_TERM_CEILING:
        raise SeriesTruncationError(terms, SERIES_TERM_CEILING)
    k = np.arange(1, terms + 1)
    coeffs = dist.hermite_spectrum(terms)[1:]
    weighted = rho**k * coeffs * coeffs
    tail = constant * abs(rho) ** (terms + 1)
    rounding = float(np.finfo(float).eps) * float(
        np.sum(abs(rho) ** k * 2.0 * (k + 2) * bound * np.abs(coeffs))
        + (terms + 1) * np.sum(np.abs(weighted))
    )
    return SpectralSum(float(np.sum(weighted)), terms, tail, tail + rounding)


@dataclass(frozen=True)
class ChiSquaredResult:
    """chi^2(D', N(0,1)) with its error estimate, plus the exp(c R^2)/sigma
    reference (reported only)."""

    value: float
    error_estimate: float
    reference: float
    reference_constant: float
    support_radius: float


def chi_squared_vs_gaussian(dist: PushforwardDist, tol_abs: float = 1e-8) -> ChiSquaredResult:
    """chi^2(D', N(0,1)) = integral of D'(x)^2 / phi(x) dx - 1, to tol_abs
    on the plane's panel breaks.  The error estimate is the integrator's
    plus _chi_squared_tail's bound on the integral past the breaks.  The
    reference is exp(R^2) / sigma, R the support radius."""
    if not 0.0 < dist.sigma <= 0.5:
        raise ValidationError("chi-squared check requires sigma in (0, 1/2]")
    breaks = _ratio_breaks(dist)

    def integrand(x):
        dens = dist.density(x)
        return dens * dens / gaussian_density(x)

    value, error = panel_integrate_1d(integrand, breaks, tol_abs)
    radius = dist.support_radius()
    return ChiSquaredResult(
        value=value - 1.0,
        error_estimate=error + _chi_squared_tail(dist, float(breaks[-1])),
        reference=math.exp(radius * radius) / dist.sigma,
        reference_constant=1.0,
        support_radius=radius,
    )


def _chi_squared_tail(dist: PushforwardDist, bound: float) -> float:
    """Bound on the integral of D'(x)^2 / phi(x) over |x| > bound.

    D' mixes N(y, sigma^2) over y in [-R, R], R the support radius, so
    D'(x) <= phi_sigma(s) at |x| = R + s, s > 0, and the integrand is at most
    exp(-a s^2 + R s + R^2 / 2) / (sigma^2 sqrt(2 pi)) with a = 1/sigma^2 - 1/2 > 0.  Completing the square over s > S = bound - R
    gives, for both tails together,
    2 sqrt(pi / a) exp(R^2/2 + R^2/(4a)) ndtr(-sqrt(2a) (S - R/(2a))) / (sigma^2 sqrt(2 pi)).
    """
    radius, sigma = dist.support_radius(), dist.sigma
    a = 1.0 / (sigma * sigma) - 0.5
    shift = bound - radius - radius / (2.0 * a)
    scale = math.exp(radius * radius * (0.5 + 0.25 / a)) / (sigma * sigma * SQRT_2PI)
    return 2.0 * math.sqrt(math.pi / a) * scale * float(ndtr(-math.sqrt(2.0 * a) * shift))


def _plane_breaks(dist: PushforwardDist) -> np.ndarray:
    bound = dist.integration_bound()
    return feature_breakpoints(-bound, bound, dist.feature_points(), dist.sigma)


def _ratio_breaks(dist: PushforwardDist) -> np.ndarray:
    """The plane's breaks for an integrand holding D/phi, which must not
    overflow; chi-squared and TV integrate on them."""
    breaks = _plane_breaks(dist)
    if breaks[-1] > RATIO_REACH:
        raise NumericGuardError(
            f"plane reaches |x| = {breaks[-1]:.4g}; D/phi overflows past {RATIO_REACH:.4g}"
        )
    return breaks


def pairwise_correlation(
    dist: PushforwardDist, cosine: float, tol_abs: float = 1e-6
) -> Estimate:
    """chi_{N(0,I)}(P_v, P_v') for directions at the given cosine, as
    sum_{k>=1} (cosine scale^2)^k a_k^2 to tol_abs; the Estimate carries the
    spectral sum's error estimate."""
    if not abs(cosine) < 1.0:
        raise ValidationError("cosine must satisfy |cosine| < 1")
    if dist.sigma <= 0.0:
        raise ValidationError("pairwise correlation requires sigma > 0")
    corr = spectral_sum(dist, cosine * dist.scale * dist.scale, tol_abs)
    return Estimate(corr.value, corr.error_estimate)


def tv_hidden_pair(
    dist: PushforwardDist, cosine: float, tol_abs: float = 1e-4
) -> Estimate:
    """Total variation distance between P_v and P_v' at the given cosine c.

    The orthogonal complement factorizes away exactly.  On the plane, each
    law's density is L = D/phi of its own coordinate times the bivariate
    normal density phi_2(x, x'; c), so TV = 1 - E_{N_2(c)}[min(L(X), L(X'))].
    The Estimate carries the integrator's error estimate.
    """
    if not abs(cosine) < 1.0:
        raise ValidationError("cosine must satisfy |cosine| < 1")
    if dist.sigma <= 0.0:
        raise ValidationError("TV reduction requires sigma > 0")
    sin_t = math.sin(math.acos(cosine))
    breaks = _ratio_breaks(dist)
    inv = -0.5 / (sin_t * sin_t)

    def ratio(t):
        # L(t) / (2 pi sin theta), phi_2's constant folded in.
        return dist.density(t) * np.exp(0.5 * t * t) / (SQRT_2PI * sin_t)

    # The rows of one order in a sweep share one last-axis node array (see
    # integrate.py), so L(x') is kept for the last array seen.  Holding the
    # array keeps its identity from being reused by a later one.
    last = [None, None]

    def integrand(gx, gxp):
        if last[0] is not gxp:
            last[:] = gxp, ratio(gxp)
        # exp(-(x^2 - 2c x x' + x'^2) / (2 sin^2 theta)) <= 1 cannot overflow.
        grid = np.multiply.outer(gx * (-2.0 * cosine * inv), gxp)
        grid += (gx * gx * inv)[:, None]
        grid += gxp * gxp * inv
        np.exp(grid, out=grid)
        grid *= np.minimum(ratio(gx)[:, None], last[1])
        return grid

    overlap, error = panel_integrate_2d(integrand, breaks, breaks, tol_abs)
    return Estimate(1.0 - overlap, error)


def w1_empirical(samples_a, samples_b) -> float:
    """Empirical Wasserstein-1 distance by the sorted coupling.  The inputs
    are left as they are; equal sizes difference the sorted copies in place."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("empty sample set")
    if a.size == b.size:
        a -= b
        return float(np.mean(np.abs(a, out=a)))
    grid = (np.arange(max(a.size, b.size)) + 0.5) / max(a.size, b.size)
    qa = np.quantile(a, grid)
    qb = np.quantile(b, grid)
    return float(np.mean(np.abs(qa - qb)))


def w1_instances(a: BumpInstance, b: BumpInstance) -> Estimate:
    """Wasserstein-1 distance between the unsmoothed pushforwards f_a(g) and
    f_b(g), g ~ N(0,1), as the integral of |F_a - F_b| over the line
    (Vallender 1973) to W1_TOL, with the integrator's error estimate.

    F is ProjectedLaw.cdf of the sigma = 0 law.  Both CDFs are 0 below the
    lowest height or 0 and 1 above the highest, so the integral runs between
    those, on panels broken at 0 and at every height, where the CDFs jump;
    between breaks they are smooth.  A CDF value sums 3 masses per bump
    plus the outside mass, each within ROUNDING_ULPS ulps of 1, and that
    rounding over the span joins the error.
    """
    law_a = PushforwardDist.from_instance(a, 0.0).law
    law_b = PushforwardDist.from_instance(b, 0.0).law
    breaks = np.unique(np.concatenate(([0.0], a.heights(), b.heights())))
    value, error = panel_integrate_1d(
        lambda t: np.abs(law_a.cdf(t) - law_b.cdf(t)), breaks, W1_TOL
    )
    masses = 3 * (len(a.bumps) + len(b.bumps)) + 2
    span = float(breaks[-1] - breaks[0])
    rounding = ROUNDING_ULPS * float(np.finfo(float).eps) * masses * span
    return Estimate(value, error + rounding)


@dataclass(frozen=True)
class SupportDistanceResult:
    """How often a projected sample lands far from the scaled height comb."""

    cosine: float
    threshold: float
    exceedance_probability: float
    w1_lower_bound: float
    samples: int


def distance_to_support(
    dist: PushforwardDist,
    cosine: float,
    n: int,
    seed: int,
    threshold_coef: float = 0.1,
) -> SupportDistanceResult:
    """Sample <v, x> for x ~ P_v' and measure the distance to the comb.

    The comb is the set of scaled heights; mass near zero (the gap) counts as
    far.  The product of exceedance probability and threshold lower-bounds
    the Wasserstein-1 distance between the two hidden-direction laws.
    """
    if not abs(cosine) <= 1.0:
        raise ValidationError("cosine must satisfy |cosine| <= 1")
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    m = dist.inst.m
    threshold = threshold_coef / math.sqrt(m)
    comb = dist.scale * dist.inst.heights()
    s = dist.sample(n, seed, stream=STREAM_SUPPORT)
    y = rng_stream(seed, STREAM_SUPPORT + 0x100).standard_normal(n)
    proj = hidden_projection(cosine, s, y)
    dists = np.abs(proj - comb[0])
    for c in comb[1:]:
        np.minimum(dists, np.abs(proj - c), out=dists)
    exceed = float(np.mean(dists > threshold))
    return SupportDistanceResult(
        cosine=cosine,
        threshold=threshold,
        exceedance_probability=exceed,
        w1_lower_bound=exceed * threshold,
        samples=n,
    )


@dataclass(frozen=True)
class BoundCheck:
    """One inequality comparison: value vs bound, with its margin and the
    error estimate of the comparison; passed only if the margin exceeds it."""

    name: str
    cosine: float
    value: float
    bound: float
    margin: float
    error_estimate: float
    passed: bool


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for the full verification run (echoed into the report)."""

    nu: float = 1e-4
    sigma: float = 0.05
    correlation_cosines: tuple[float, ...] = (0.05, 0.1, 0.2)
    tv_cosines: tuple[float, ...] = (0.5,)
    tv_slack: float = 0.05
    correlation_tol: float = 2e-8
    tv_tol: float = 1e-4
    chi_tol: float = 1e-8
    support_samples: int = 100_000
    support_cosine: float = 0.5
    support_threshold_coef: float = 0.1
    vandermonde_constant: float = 0.2
    seed: int = 20240

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0 or not 0.0 < self.sigma < 1.0:
            raise ValidationError("nu and sigma must lie in (0,1)")


@dataclass
class VerificationReport:
    """Self-contained verification output; every comparison carries pass/fail."""

    m: int
    config: VerifyConfig
    moment_errors: list[float] = field(default_factory=list)
    slope_max: float = math.nan
    weight_bound: float = math.nan
    chi_squared: ChiSquaredResult | None = None
    hermite_coefficients: list[float] = field(default_factory=list)
    pairwise_corr: list[BoundCheck] = field(default_factory=list)
    tv_separation: list[BoundCheck] = field(default_factory=list)
    w1_flow_distance: float = math.nan
    w1_flow_error: float = math.nan
    w1_flow_bound: float = math.nan
    w1_flow_passed: bool = False
    support_distance: SupportDistanceResult | None = None
    vandermonde: VandermondeCheck | None = None
    sigma_min_summary: dict = field(default_factory=dict)
    sq_query_formula: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def all_passed(self) -> bool:
        checks = [c.passed for c in self.pairwise_corr + self.tv_separation]
        checks.append(all(e < self.config.nu for e in self.moment_errors))
        checks.append(self.w1_flow_passed)
        if self.errors:
            return False
        return all(checks)


def _correlation_decay_bound(cosine: float, m: int, chi_sq: float, nu: float) -> float:
    return abs(cosine) ** (m + 1) * chi_sq + nu * nu


def _tv_separation_floor(sigma: float, slack: float) -> float:
    return 1.0 - 2.0 * sigma * math.log(1.0 / sigma) - slack


@contextmanager
def _recorded(report: VerificationReport, label: str):
    """Record a ValidationError raised by one sub-check in the report.

    Numeric guard errors and program bugs propagate to the caller."""
    try:
        yield
    except ValidationError as exc:
        report.errors.append(f"{label}: {exc}")


def verify_instance(
    initial: BumpInstance,
    evolved: BumpInstance,
    network: ReluNetwork1D,
    config: VerifyConfig,
    trace: EvolutionTrace | None = None,
) -> VerificationReport:
    """Run every check on one build's artifacts, in turn, in the order the
    report records them.

    A sub-check that raises ValidationError is recorded in the report and
    the others still run; a NumericGuardError (such as QuadratureError)
    propagates, as does any other exception.
    """
    report = VerificationReport(m=evolved.m, config=config)
    dist = PushforwardDist.from_instance(evolved, config.sigma)

    with _recorded(report, "moments"):
        report.moment_errors = [
            abs(dist.moment(k) - gaussian_moment(k)) for k in range(1, evolved.m + 1)
        ]

    report.slope_max = evolved.max_slope()
    with _recorded(report, "network"):
        report.weight_bound = network.weight_bound

    chi_value, chi_error = math.inf, math.inf
    with _recorded(report, "chi-squared"):
        report.chi_squared = chi_squared_vs_gaussian(dist, tol_abs=config.chi_tol)
        chi_value = report.chi_squared.value
        chi_error = report.chi_squared.error_estimate
        report.hermite_coefficients = dist.hermite_spectrum(evolved.m + 1)[1:].tolist()

    for cosine in config.correlation_cosines:
        with _recorded(report, f"pairwise correlation at {cosine}"):
            value = pairwise_correlation(dist, cosine, tol_abs=config.correlation_tol)
            bound = _correlation_decay_bound(cosine, evolved.m, chi_value, config.nu)
            # The bound inherits chi-squared's error, scaled by |cos|^(m+1).
            error = value.error + abs(cosine) ** (evolved.m + 1) * chi_error
            report.pairwise_corr.append(
                BoundCheck(
                    name="pairwise-correlation",
                    cosine=cosine,
                    value=float(value),
                    bound=bound,
                    margin=bound - value,
                    error_estimate=error,
                    passed=bound - value >= error,
                )
            )

    for cosine in config.tv_cosines:
        with _recorded(report, f"tv at {cosine}"):
            value = tv_hidden_pair(dist, cosine, tol_abs=config.tv_tol)
            bound = _tv_separation_floor(config.sigma, config.tv_slack)
            report.tv_separation.append(
                BoundCheck(
                    name="tv-separation",
                    cosine=cosine,
                    value=float(value),
                    bound=bound,
                    margin=value - bound,
                    error_estimate=value.error,
                    passed=value - bound >= value.error,
                )
            )

    with _recorded(report, "w1"):
        w1 = w1_instances(initial, evolved)
        height_drift = float(
            np.max(np.abs(evolved.heights() - initial.heights()))
        )
        horizon = evolved.eps - initial.eps
        w1_bound = height_drift + 3.0 * evolved.m * horizon
        report.w1_flow_distance = float(w1)
        report.w1_flow_error = w1.error
        report.w1_flow_bound = w1_bound
        report.w1_flow_passed = w1 + w1.error <= w1_bound

    with _recorded(report, "distance-to-support"):
        support_dist = PushforwardDist.from_instance(evolved, min(config.sigma, 0.01))
        report.support_distance = distance_to_support(
            support_dist,
            config.support_cosine,
            config.support_samples,
            config.seed,
            config.support_threshold_coef,
        )

    with _recorded(report, "vandermonde"):
        nodes = initial.left_heights() ** 2
        report.vandermonde = vandermonde_sigma_check(
            nodes, constant=config.vandermonde_constant
        )

    if trace is not None and trace.sigma_mins:
        report.sigma_min_summary = {
            "min": float(min(trace.sigma_mins)),
            "max": float(max(trace.sigma_mins)),
            "final": float(trace.sigma_mins[-1]),
            "max_moment_drift": trace.max_moment_drift(),
        }

    # Query-count arithmetic, reported only: plugging the measured pairwise
    # correlation (gamma) and self-correlation (beta) into the generic
    # N * gamma / (beta - gamma) count, per packing vector (N left symbolic).
    # The self-correlation chi_N(D_u, D_u) is chi^2(D_u, N) itself.
    if report.pairwise_corr and math.isfinite(chi_value):
        gamma = max(abs(c.value) for c in report.pairwise_corr)
        beta = chi_value
        report.sq_query_formula = {
            "gamma": gamma,
            "beta": beta,
            "queries_per_packing_vector": gamma / (beta - gamma)
            if beta > gamma
            else math.inf,
        }
    return report
