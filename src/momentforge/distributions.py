"""Sampleable and density-evaluable pushforward distributions.

The marginal of interest is scale * f(g1) + noise * g2 with f piecewise
linear, (g1, g2) independent standard normals, scale = sqrt(1 - sigma^2) and
noise = sigma.  Because f is piecewise linear the smoothed density is exact:
constant pieces contribute their Gaussian interval mass under a shifted noise
kernel, and each linear ramp integrates in closed form as a product of two
Gaussians (a Gaussian coefficient times an interval mass of the posterior
latent Gaussian).  The same machinery evaluates projections of the
hidden-direction law onto arbitrary unit vectors, which are laws of the same
family with a smaller coefficient and a fatter noise width.

Sampling uses counter-based Philox streams keyed by (seed, stream id), so
every operation draws from its own reproducible stream regardless of what
ran before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bumps import (
    BumpInstance,
    instance_eval,
    instance_pushforward_moment,
    instance_value_law,
)
from .errors import ValidationError
from .gaussian import (
    HERMITE_KAPPA,
    gaussian_density,
    gaussian_interval_mass,
    gaussian_moment,
    hermite_rows,
)
from .integrate import feature_breakpoints, panel_integrate_1d

__all__ = [
    "ProjectedLaw",
    "PushforwardDist",
    "HiddenDirectionDist",
    "sample_marginal",
    "density",
    "sample_hidden",
    "sample_null",
    "generate_directions",
    "hidden_projection",
    "rng_stream",
    "series_terms",
]

# Stream ids for the counter-based generators, one per operation family.
STREAM_MARGINAL = 1
STREAM_HIDDEN = 2
STREAM_NULL = 3
STREAM_DIRECTIONS = 4
STREAM_SUPPORT = 5
STREAM_ORACLE = 6


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream id); independent per pair."""
    if seed < 0 or seed >= 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream)))


def _stable_interval_mass(t_lo: np.ndarray, t_hi: np.ndarray) -> np.ndarray:
    """ndtr(t_hi) - ndtr(t_lo), evaluated through whichever tail is stable."""
    flip = t_lo > 0.0
    lo = np.where(flip, -t_hi, t_lo)
    hi = np.where(flip, -t_lo, t_hi)
    return ndtr(hi) - ndtr(lo)


@dataclass(frozen=True)
class ProjectedLaw:
    """Law of coef * f(g1) + width * g2 for a piecewise-linear f.

    atoms hold (value, latent mass) for the constant pieces of f including
    the off-support zero region; ramps hold rows (g_lo, g_hi, slope,
    intercept) for the linear pieces.  width must be positive for density
    evaluation (width 0 leaves atoms unsmoothed).
    """

    coef: float
    width: float
    atom_values: np.ndarray
    atom_masses: np.ndarray
    ramps: np.ndarray

    def density(self, x):
        """Exact density at x (scalar or array)."""
        if self.width <= 0.0:
            raise ValidationError("density undefined at zero noise width (atoms)")
        x = np.asarray(x, dtype=float)
        pts = np.atleast_1d(x).astype(float)
        var0 = self.width * self.width
        out = np.zeros_like(pts)
        if self.atom_values.size:
            shifted = pts[:, None] - self.coef * self.atom_values[None, :]
            kern = np.exp(-shifted * shifted / (2.0 * var0)) / (
                self.width * math.sqrt(2.0 * math.pi)
            )
            out += kern @ self.atom_masses
        if self.ramps.size:
            # One (ramp, point) broadcast.  Rows are added in ramp order so the
            # sum rounds exactly as a per-ramp loop would.
            g_lo, g_hi, slope, intercept = (col[:, None] for col in self.ramps.T)
            b = self.coef * slope
            a = pts[None, :] - self.coef * intercept
            var = var0 + b * b
            coefs = np.exp(-a * a / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
            mu = a * b / var
            sd = self.width / np.sqrt(var)
            t_lo = (g_lo - mu) / sd
            t_hi = (g_hi - mu) / sd
            for row in coefs * _stable_interval_mass(t_lo, t_hi):
                out += row
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def feature_points(self) -> np.ndarray:
        """Locations where the density has sigma-scale structure."""
        pts = [self.coef * v for v in np.atleast_1d(self.atom_values)]
        for g_lo, g_hi, slope, intercept in self.ramps:
            for g in (g_lo, g_hi):
                if math.isfinite(g):
                    pts.append(self.coef * (slope * g + intercept))
        return np.unique(np.asarray(pts, dtype=float)) if pts else np.array([0.0])

    def integration_bound(self, tail_sigmas: float = 10.0) -> float:
        """Half-width of an interval carrying all but a negligible mass."""
        reach = [abs(self.coef * v) for v in np.atleast_1d(self.atom_values)]
        for g_lo, g_hi, slope, intercept in self.ramps:
            for g in (g_lo, g_hi):
                g_eff = math.copysign(min(abs(g), 12.0), g)
                reach.append(abs(self.coef * (slope * g_eff + intercept)))
        base = max(reach) if reach else 0.0
        return base + tail_sigmas * max(self.width, 1e-6)

    def panel_breaks(self) -> np.ndarray:
        """Panel edges aligned with this law's features, for its integrals."""
        bound = self.integration_bound()
        return feature_breakpoints(
            -bound, bound, self.feature_points(), max(self.width, 1e-6)
        )

    def expectation(self, fn, tol_abs: float = 1e-10) -> float:
        """Integral of fn against this density by feature-aligned panels."""
        value, _ = panel_integrate_1d(
            lambda t: fn(t) * self.density(t), self.panel_breaks(), tol_abs
        )
        return value


def _law_from_instance(inst: BumpInstance, coef: float, width: float) -> ProjectedLaw:
    atoms = [(0.0, 0.0)]  # zero region accumulates below
    ramps = []
    covered = 0.0
    for b in inst.bumps:
        c, w, e, h = b.center, b.half_width, b.ramp, b.height
        plateau_mass = gaussian_interval_mass(c - w, c + w)
        atoms.append((h, plateau_mass))
        covered += gaussian_interval_mass(*b.support)
        if e > 0.0:
            slope = h / e
            ramps.append((c - e - w, c - w, slope, -slope * (c - e - w)))
            ramps.append((c + w, c + e + w, -slope, slope * (c + e + w)))
    atoms[0] = (0.0, max(1.0 - covered, 0.0))
    values = np.array([a[0] for a in atoms])
    masses = np.array([a[1] for a in atoms])
    ramp_arr = (
        np.array(ramps, dtype=float) if ramps else np.empty((0, 4), dtype=float)
    )
    return ProjectedLaw(
        coef=coef, width=width, atom_values=values, atom_masses=masses, ramps=ramp_arr
    )


def _identity_law(coef: float, width: float) -> ProjectedLaw:
    ramp = np.array([[-math.inf, math.inf, 1.0, 0.0]])
    return ProjectedLaw(
        coef=coef,
        width=width,
        atom_values=np.empty(0),
        atom_masses=np.empty(0),
        ramps=ramp,
    )


class PushforwardDist:
    """Distribution of sqrt(1-sigma^2) f(N(0,1)) + sigma N(0,1).

    Built either from a bump instance or as the degenerate identity marginal
    (f = id), in which case the law is exactly N(0,1).  sigma = 0 is allowed
    for sampling only; the unsmoothed law has atoms and refuses density
    queries.
    """

    def __init__(self, inst: BumpInstance | None, sigma: float):
        if not 0.0 <= sigma < 1.0:
            raise ValidationError(f"sigma must lie in [0,1), got {sigma}")
        self.inst = inst
        self.sigma = float(sigma)
        self.scale = math.sqrt(1.0 - sigma * sigma)
        self._spectrum: list[float] = []
        self._spectrum_source = None
        if sigma > 0.0:
            if inst is None:
                self._law = _identity_law(self.scale, self.sigma)
            else:
                self._law = _law_from_instance(inst, self.scale, self.sigma)
        else:
            self._law = None

    @classmethod
    def from_instance(cls, inst: BumpInstance, sigma: float) -> "PushforwardDist":
        return cls(inst, sigma)

    @classmethod
    def gaussian(cls, sigma: float) -> "PushforwardDist":
        """Identity marginal: the pushforward is exactly N(0,1)."""
        return cls(None, sigma)

    @property
    def law(self) -> ProjectedLaw:
        if self._law is None:
            raise ValidationError("sigma = 0 distribution has atoms; no density")
        return self._law

    def support_radius(self) -> float:
        """Largest |scale * height|; 0 for the identity marginal (the comb
        degenerates to the origin)."""
        if self.inst is None:
            return 0.0
        return self.scale * float(np.max(np.abs(self.inst.heights())))

    def integration_bound(self, tail_sigmas: float = 10.0) -> float:
        if self.inst is None:
            return 10.0 + tail_sigmas * self.sigma
        return self.support_radius() + tail_sigmas * self.sigma

    def feature_points(self) -> np.ndarray:
        if self.inst is None:
            return np.array([0.0])
        return self.law.feature_points()

    def density(self, x):
        return self.law.density(x)

    def latent_eval(self, g):
        """f(g) for the underlying piecewise-linear map."""
        if self.inst is None:
            return np.asarray(g, dtype=float)
        return instance_eval(self.inst, g)

    def moment(self, k: int) -> float:
        """E[x^k] by the binomial convolution identity (exact given the
        instance moments)."""
        if k < 0:
            raise ValidationError("moment order must be nonnegative")
        if k == 0:
            return 1.0
        if self.inst is None:
            return gaussian_moment(k)
        total = 0.0
        for j in range(0, k + 1, 2):
            inner = k - j
            base = 1.0 if inner == 0 else instance_pushforward_moment(self.inst, inner)
            total += (
                math.comb(k, j)
                * self.sigma**j
                * self.scale**inner
                * gaussian_moment(j)
                * base
            )
        return total

    def hermite_spectrum(self, terms: int) -> np.ndarray:
        """a_0..a_terms, a_k = E[h_k(f(g))] for the orthonormal Hermite
        polynomials h_k of gaussian.hermite_rows; kept and grown on demand.

        By the Mehler identity c f(g1) + sqrt(1 - c^2) g2 has the density
        phi(t) sum_k c^k a_k h_k(t) for |c| < 1.  a_1..a_m sit at the
        moment-residual level.  The identity marginal has a_k = 0 for k >= 1.
        """
        if terms < 0:
            raise ValidationError("spectrum length must be nonnegative")
        if self.inst is None:
            return np.eye(1, terms + 1)[0]
        if self._spectrum_source is None:
            values, masses = instance_value_law(self.inst)
            self._spectrum_source = (masses, hermite_rows(values))
        masses, rows = self._spectrum_source
        while len(self._spectrum) <= terms:
            self._spectrum.append(float(masses @ next(rows)))
        return np.array(self._spectrum[: terms + 1])

    def hermite_bound(self) -> float:
        """Bound on |a_k| for every k >= 1: HERMITE_KAPPA * exp(R^2 / 4) with
        R = max |height|, since f(g) stays in [-R, R]; 0 for the identity."""
        if self.inst is None:
            return 0.0
        radius = float(np.max(np.abs(self.inst.heights())))
        return HERMITE_KAPPA * math.exp(radius * radius / 4.0)

    def series_expectation(
        self, fn, cosine: float, terms: int, tol_abs: float = 1e-10
    ) -> float:
        """E[fn(<u, x>)] for <u, v> = cosine against the projected density's
        Mehler series phi(t) sum_{k <= terms} (cosine scale)^k a_k h_k(t), on
        the projected law's panel breaks.  The caller bounds the truncation."""
        coeffs = self.hermite_spectrum(terms) * (cosine * self.scale) ** np.arange(
            terms + 1
        )

        def integrand(t):
            series = sum(c * h for c, h in zip(coeffs, hermite_rows(t)))
            return fn(t) * gaussian_density(t) * series

        value, _ = panel_integrate_1d(
            integrand, self.projected(cosine).panel_breaks(), tol_abs
        )
        return value

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws of scale * f(g1) + sigma * g2, taking g1 and then g2 from rng."""
        g1 = rng.standard_normal(n)
        g2 = rng.standard_normal(n)
        return self.scale * np.asarray(self.latent_eval(g1)) + self.sigma * g2

    def sample(self, n: int, seed: int, stream: int = STREAM_MARGINAL) -> np.ndarray:
        if n < 1:
            raise ValidationError("sample count must be >= 1")
        return self.draw(rng_stream(seed, stream), n)

    def projected(self, cosine: float) -> ProjectedLaw:
        """Law of <u, x> for x ~ hidden-direction law with <u, v> = cosine."""
        if not -1.0 <= cosine <= 1.0:
            raise ValidationError("cosine must lie in [-1, 1]")
        width = math.sqrt(max(1.0 - cosine * cosine * self.scale * self.scale, 0.0))
        coef = cosine * self.scale
        if self.inst is None:
            return _identity_law(coef, width)
        return _law_from_instance(self.inst, coef, width)


@dataclass(frozen=True)
class HiddenDirectionDist:
    """d-dimensional law: the marginal along v, standard Gaussian orthogonally."""

    d: int
    v: np.ndarray
    marginal: PushforwardDist

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.d,):
            raise ValidationError(f"direction must have shape ({self.d},)")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValidationError("direction must be a unit vector")
        object.__setattr__(self, "v", v)

    def embed(self, s: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Rows s[i] * v + (I - vv')g[i]: marginal draws s along v, the
        (n, d) Gaussian draws g projected off v.  Overwrites and returns g."""
        g -= np.outer(g @ self.v, self.v)
        g += np.outer(s, self.v)
        return g

    def sample(self, n: int, seed: int) -> np.ndarray:
        return sample_hidden(self, n, seed)


def hidden_projection(cosine: float, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<u, x> for x from the hidden-direction law and <u, v> = cosine, from
    marginal draws s and independent standard normals g."""
    return cosine * s + math.sqrt(max(1.0 - cosine * cosine, 0.0)) * g


def series_terms(constant: float, rho: float, tol: float) -> float:
    """Smallest K >= 0 with constant * rho^(K+1) <= tol (a geometric tail
    bound after term K); math.inf if rho >= 1 keeps it above tol."""
    if constant <= tol or rho == 0.0:
        return 0
    if rho >= 1.0:
        return math.inf
    terms = max(math.ceil(math.log(tol / constant) / math.log(rho)) - 1, 0)
    while constant * rho ** (terms + 1) > tol:
        terms += 1
    return terms


def sample_marginal(dist: PushforwardDist, n: int, seed: int) -> np.ndarray:
    """n draws of scale * f(g1) + sigma * g2, deterministic given seed."""
    return dist.sample(n, seed, STREAM_MARGINAL)


def density(dist: PushforwardDist, x):
    """Density of the smoothed marginal at x; requires sigma > 0."""
    return dist.density(x)


def sample_hidden(hd: HiddenDirectionDist, n: int, seed: int) -> np.ndarray:
    """n vectors s*v + (I - vv')g with s from the marginal, g ~ N(0, I_d)."""
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    s = hd.marginal.sample(n, seed, stream=STREAM_HIDDEN)
    rng = rng_stream(seed, STREAM_HIDDEN + 0x100)
    return hd.embed(s, rng.standard_normal((n, hd.d)))


def sample_null(d: int, n: int, seed: int) -> np.ndarray:
    """n standard Gaussian vectors in R^d, deterministic given seed."""
    if d < 1 or n < 1:
        raise ValidationError("dimension and sample count must be >= 1")
    rng = rng_stream(seed, STREAM_NULL)
    return rng.standard_normal((n, d))


def generate_directions(
    d: int, count: int, max_overlap: float, seed: int, retry_budget: int | None = None
) -> list[np.ndarray]:
    """Random unit vectors with pairwise |<u, v>| < max_overlap, by rejection."""
    if count < 2:
        raise ValidationError("need at least two directions")
    if not 0.0 < max_overlap < 1.0:
        raise ValidationError("max_overlap must lie in (0,1)")
    rng = rng_stream(seed, STREAM_DIRECTIONS)
    budget = retry_budget if retry_budget is not None else 500 * count
    accepted: list[np.ndarray] = []
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
