"""Numerical verification of the construction's statistical properties.

The checks mirror what the construction promises: pushforward moments close
to the Gaussian ones, a finite chi-squared divergence from N(0,1), pairwise
correlations of hidden-direction laws decaying like cosine^(m+1), near-total
TV separation between differently oriented copies, and Wasserstein-1
bookkeeping for the flow.  Chi-squared and pairwise correlation are sums
over the marginal's Hermite spectrum with a certified tail; TV reduces
exactly to a 2-D integral over the plane spanned by the two directions,
computed on feature-aligned panels with an embedded-order error estimate.

Every bound comparison is recorded with its margin and the error estimate of
its value, and passes only if it holds after that error; the report is
self-contained and serializes to JSON.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bumps import BumpInstance
from .distributions import (
    STREAM_SUPPORT,
    PushforwardDist,
    hidden_projection,
    rng_stream,
    series_terms,
)
from .errors import SeriesTruncationError, ValidationError
from .flow import EvolutionTrace, VandermondeCheck, vandermonde_sigma_check
from .gaussian import gaussian_density, gaussian_moment
# bench/tracer.py wraps each module's panel_integrate_1d by name.
from .integrate import feature_breakpoints, panel_integrate_1d, panel_integrate_2d  # noqa: F401

# A spectral sum needing more terms than this raises SeriesTruncationError.
SERIES_TERM_CEILING = 1_000_000

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
    "distance_to_support",
    "verify_instance",
]


class Estimate(float):
    """A float that carries the absolute error estimate of its computation."""

    error: float

    def __new__(cls, value: float, error: float):
        out = super().__new__(cls, value)
        out.error = float(error)
        return out


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
    """chi^2(D', N(0,1)) as a spectral sum, plus the exp(c R^2)/sigma
    reference (reported only)."""

    value: float
    reference: float
    reference_constant: float
    support_radius: float
    series: SpectralSum


def chi_squared_vs_gaussian(
    dist: PushforwardDist,
    tol_abs: float = 1e-8,
    reference_constant: float = 1.0,
) -> ChiSquaredResult:
    """chi^2(D', N(0,1)) = sum_{k>=1} scale^(2k) a_k^2 to tol_abs."""
    if not 0.0 < dist.sigma <= 0.5:
        raise ValidationError("chi-squared check requires sigma in (0, 1/2]")
    chi = spectral_sum(dist, dist.scale * dist.scale, tol_abs)
    radius = dist.support_radius()
    reference = math.exp(reference_constant * radius * radius) / dist.sigma
    return ChiSquaredResult(
        value=chi.value,
        reference=reference,
        reference_constant=reference_constant,
        support_radius=radius,
        series=chi,
    )


def _plane_breaks(dist: PushforwardDist, pad_sigmas: float = 10.0) -> np.ndarray:
    bound = dist.support_radius() + pad_sigmas * dist.sigma
    if dist.inst is None:
        bound = max(bound, 10.0)
    return feature_breakpoints(-bound, bound, dist.feature_points(), dist.sigma)


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
    """Total variation distance between P_v and P_v' at the given cosine.

    Equals 1 minus the overlap integral of the two plane densities; the
    orthogonal complement factorizes away exactly.  The Estimate carries the
    integrator's error estimate.
    """
    if not abs(cosine) < 1.0:
        raise ValidationError("cosine must satisfy |cosine| < 1")
    if dist.sigma <= 0.0:
        raise ValidationError("TV reduction requires sigma > 0")
    theta = math.acos(cosine)
    sin_t = math.sin(theta)
    breaks = _plane_breaks(dist)

    def integrand(gx, gxp):
        x, xp = gx[:, None], gxp[None, :]
        y = (xp - x * cosine) / sin_t
        yp = (xp * cosine - x) / sin_t
        first = dist.density(gx)[:, None] * gaussian_density(y)
        second = dist.density(gxp)[None, :] * gaussian_density(yp)
        return np.minimum(first, second) / sin_t

    overlap, error = panel_integrate_2d(integrand, breaks, breaks, tol_abs)
    return Estimate(1.0 - overlap, error)


def w1_empirical(samples_a, samples_b) -> float:
    """Empirical Wasserstein-1 distance by the sorted coupling."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("empty sample set")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    grid = (np.arange(max(a.size, b.size)) + 0.5) / max(a.size, b.size)
    qa = np.quantile(a, grid)
    qb = np.quantile(b, grid)
    return float(np.mean(np.abs(qa - qb)))


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
    if dist.inst is None:
        raise ValidationError("distance-to-support needs a bump instance")
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    m = dist.inst.m
    threshold = threshold_coef / math.sqrt(m)
    comb = dist.scale * dist.inst.heights()
    s = dist.sample(n, seed, stream=STREAM_SUPPORT)
    y = rng_stream(seed, STREAM_SUPPORT + 0x100).standard_normal(n)
    proj = hidden_projection(cosine, s, y)
    dists = np.min(np.abs(proj[:, None] - comb[None, :]), axis=1)
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
    w1_samples: int = 1_000_000
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
    """Run every check on one build's artifacts.

    A sub-check that raises ValidationError is recorded in the report and
    the others still run; a NumericGuardError (such as QuadratureError)
    propagates, as does any other exception."""
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
        chi_error = report.chi_squared.series.error_estimate
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
        d0 = PushforwardDist.from_instance(initial, 0.0)
        dt = PushforwardDist.from_instance(evolved, 0.0)
        w1 = w1_empirical(
            d0.sample(config.w1_samples, config.seed),
            dt.sample(config.w1_samples, config.seed + 1),
        )
        height_drift = float(
            np.max(np.abs(evolved.heights() - initial.heights()))
        )
        horizon = evolved.eps - initial.eps
        w1_bound = height_drift + 3.0 * evolved.m * horizon
        report.w1_flow_distance = w1
        report.w1_flow_bound = w1_bound
        report.w1_flow_passed = w1 <= w1_bound

    with _recorded(report, "distance-to-support"):
        small_sigma = min(config.sigma, 0.01)
        support_dist = PushforwardDist.from_instance(evolved, small_sigma)
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
    if report.pairwise_corr and math.isfinite(chi_value):
        gamma = max(abs(c.value) for c in report.pairwise_corr)
        beta = 2.0 * chi_value
        report.sq_query_formula = {
            "gamma": gamma,
            "beta": beta,
            "queries_per_packing_vector": gamma / (beta - gamma)
            if beta > gamma
            else math.inf,
        }
    return report
