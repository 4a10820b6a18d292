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
ran before it.  The d-dimensional samplers also come as block streams
(hidden_blocks, null_blocks, latent_blocks), which yield the one-shot
sample a block of rows at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bumps import BumpInstance, instance_eval, instance_value_law, law_moment
from .errors import ValidationError
from .gaussian import (
    HERMITE_KAPPA,
    gaussian_interval_mass,
    gaussian_moment,
    hermite_rows,
)
from .integrate import Estimate, feature_breakpoints, panel_integrate_1d

__all__ = [
    "ProjectedLaw",
    "PushforwardDist",
    "HiddenDirectionDist",
    "sample_hidden",
    "sample_null",
    "hidden_blocks",
    "null_blocks",
    "latent_blocks",
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
STREAM_DIRECTION = 0x45  # a seeded random hidden direction
STREAM_TRIAL_DIRECTION = 0x46  # a distinguisher trial's hidden direction
STREAM_LATENT = 0x5A  # the latent inputs z of a lifted network

# Integration bounds reach this many noise widths past the farthest feature.
TAIL_SIGMAS = 10.0

# Values per block, at most, when samples are drawn a block of rows at a
# time; the last block also takes the remainder.
SAMPLE_BLOCK = 1 << 20


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
    evaluation (width 0 leaves atoms unsmoothed); cdf is for width 0.
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

    def cdf(self, t):
        """P(coef * f(g) <= t) at t (scalar or array); requires width 0.

        Each atom counts whole where coef * value <= t.  A ramp counts the
        part of its latent interval [g_lo, g_hi] on which
        coef * (slope * g + intercept) <= t: the left end up to the level's
        preimage for a rising ramp, the right end for a falling one, and all
        or none of it for a flat one.
        """
        if self.width > 0.0:
            raise ValidationError("cdf is for zero noise width only")
        t = np.asarray(t, dtype=float)
        ts = np.atleast_1d(t)
        out = (ts[:, None] >= self.coef * self.atom_values) @ self.atom_masses
        for g_lo, g_hi, slope, intercept in self.ramps:
            rise = self.coef * slope
            if rise == 0.0:
                whole = gaussian_interval_mass(g_lo, g_hi)
                out += np.where(ts >= self.coef * intercept, whole, 0.0)
                continue
            cut = np.clip((ts - self.coef * intercept) / rise, g_lo, g_hi)
            if rise > 0.0:
                out += _stable_interval_mass(np.full_like(cut, g_lo), cut)
            else:
                out += _stable_interval_mass(cut, np.full_like(cut, g_hi))
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def feature_points(self) -> np.ndarray:
        """Locations where the density has sigma-scale structure."""
        pts = [self.coef * v for v in np.atleast_1d(self.atom_values)]
        for g_lo, g_hi, slope, intercept in self.ramps:
            for g in (g_lo, g_hi):
                pts.append(self.coef * (slope * g + intercept))
        return np.unique(np.asarray(pts, dtype=float))

    def integration_bound(self) -> float:
        """Half-width of an interval carrying all but a negligible mass."""
        reach = float(np.max(np.abs(self.feature_points())))
        return reach + TAIL_SIGMAS * max(self.width, 1e-6)

    def panel_breaks(self, jumps=()) -> np.ndarray:
        """Panel edges aligned with this law's features and the integrand's
        jump points, for its integrals."""
        bound = self.integration_bound()
        return feature_breakpoints(
            -bound, bound, self.feature_points(), max(self.width, 1e-6), jumps=jumps
        )

    def expectation(self, fn, tol_abs: float = 1e-10, jumps=()) -> Estimate:
        """Integral of fn against this density by panels aligned with the
        law's features and fn's jumps, with the integrator's error estimate."""
        return Estimate(
            *panel_integrate_1d(
                lambda t: fn(t) * self.density(t), self.panel_breaks(jumps), tol_abs
            )
        )


def _law_from_instance(inst: BumpInstance, coef: float, width: float) -> ProjectedLaw:
    atoms = [(0.0, 0.0)]  # zero region accumulates below
    ramps = []
    covered = 0.0
    for b in inst.bumps:
        c, w, e, h = b.center, b.half_width, b.ramp, b.height
        atoms.append((h, b.plateau_mass))
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


class PushforwardDist:
    """Distribution of sqrt(1-sigma^2) f(N(0,1)) + sigma N(0,1) for the
    piecewise-linear f of a bump instance.

    sigma = 0 is allowed for sampling and the law's cdf; the unsmoothed law
    has atoms and refuses density queries.
    """

    def __init__(self, inst: BumpInstance, sigma: float):
        if not 0.0 <= sigma < 1.0:
            raise ValidationError(f"sigma must lie in [0,1), got {sigma}")
        self.inst = inst
        self.sigma = float(sigma)
        self.scale = math.sqrt(1.0 - sigma * sigma)
        self._spectrum: list[float] = []
        self._moments: dict[int, float] = {}
        self._value_law = instance_value_law(inst)
        self._spectrum_rows = hermite_rows(self._value_law[0])
        self._law = _law_from_instance(inst, self.scale, self.sigma)

    @classmethod
    def from_instance(cls, inst: BumpInstance, sigma: float) -> "PushforwardDist":
        return cls(inst, sigma)

    @property
    def law(self) -> ProjectedLaw:
        return self._law

    def support_radius(self) -> float:
        """Largest |scale * height|."""
        return self.scale * float(np.max(np.abs(self.inst.heights())))

    def integration_bound(self) -> float:
        return self.support_radius() + TAIL_SIGMAS * self.sigma

    def feature_points(self) -> np.ndarray:
        return self.law.feature_points()

    def density(self, x):
        return self.law.density(x)

    def latent_eval(self, g):
        """f(g) for the underlying piecewise-linear map."""
        return instance_eval(self.inst, g)

    def moment(self, k: int) -> float:
        """E[x^k] by the binomial convolution identity (exact given the
        instance moments); kept per order like the Hermite spectrum."""
        if k < 0:
            raise ValidationError("moment order must be nonnegative")
        if k not in self._moments:
            self._moments[k] = self._moment(k)
        return self._moments[k]

    def _moment(self, k: int) -> float:
        if k == 0:
            return 1.0
        total = 0.0
        for j in range(0, k + 1, 2):
            inner = k - j
            base = 1.0 if inner == 0 else law_moment(*self._value_law, inner)
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
        moment-residual level.
        """
        if terms < 0:
            raise ValidationError("spectrum length must be nonnegative")
        masses = self._value_law[1]
        while len(self._spectrum) <= terms:
            self._spectrum.append(float(masses @ next(self._spectrum_rows)))
        return np.array(self._spectrum[: terms + 1])

    def hermite_bound(self) -> float:
        """Bound on |a_k| for every k >= 1: HERMITE_KAPPA * exp(R^2 / 4) with
        R = max |height|, since f(g) stays in [-R, R]."""
        radius = float(np.max(np.abs(self.inst.heights())))
        return HERMITE_KAPPA * math.exp(radius * radius / 4.0)

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
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            raise ValidationError("direction must be a unit vector")
        object.__setattr__(self, "v", v)

    def embed(self, s: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Rows s[i] * v + (I - vv')g[i]: marginal draws s along v, the
        (n, d) Gaussian draws g projected off v.  Overwrites and returns g.

        g.v is an einsum, not a BLAS product, so its rounding does not depend
        on how many threads BLAS splits the rows between."""
        g -= np.outer(np.einsum("ij,j->i", g, self.v), self.v)
        g += np.outer(s, self.v)
        return g


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


def _gaussian_blocks(
    seed: int, stream: int, n: int, width: int, rows: int | None
) -> Iterator[np.ndarray]:
    """An (n, width) standard normal draw from stream (seed, stream) in blocks
    of `rows` rows, the last block taking the remainder.

    A Philox stream is consumed in row order, so the blocks stack to the
    one-shot draw whatever `rows` is.  The default rows also keep products
    of the blocks bit-identical to products of the one-shot draw under
    single-threaded BLAS, which rounds the rows past the last multiple of
    its row unroll, and calls under a size threshold, by other kernels: a
    default block holds a power of two rows (at most SAMPLE_BLOCK values,
    at least one row), and the last block is never the shorter one.
    """
    if width < 1 or n < 1:
        raise ValidationError("dimension and sample count must be >= 1")
    if rows is None:
        rows = 1 << max((SAMPLE_BLOCK // width).bit_length() - 1, 0)
    rng = rng_stream(seed, stream)
    start = 0
    while start < n:
        size = n - start if n - start < 2 * rows else rows
        yield rng.standard_normal((size, width))
        start += size


def hidden_blocks(
    hd: HiddenDirectionDist, n: int, seed: int, rows: int | None = None
) -> Iterator[np.ndarray]:
    """n vectors s*v + (I - vv')g with s from the marginal, g ~ N(0, I_d), in
    blocks of rows.  The n marginal draws s come first and whole (g1, then
    g2), then g block by block from its own stream, each block embedded with
    its slice of s."""
    s = hd.marginal.sample(n, seed, stream=STREAM_HIDDEN)
    start = 0
    for g in _gaussian_blocks(seed, STREAM_HIDDEN + 0x100, n, hd.d, rows):
        yield hd.embed(s[start : start + len(g)], g)
        start += len(g)


def null_blocks(d: int, n: int, seed: int, rows: int | None = None) -> Iterator[np.ndarray]:
    """n standard Gaussian vectors in R^d in blocks of rows."""
    return _gaussian_blocks(seed, STREAM_NULL, n, d, rows)


def latent_blocks(
    width: int, n: int, seed: int, rows: int | None = None
) -> Iterator[np.ndarray]:
    """n standard Gaussian inputs of a generator with `width` inputs (d + 1
    for a lifted network) in blocks of rows."""
    return _gaussian_blocks(seed, STREAM_LATENT, n, width, rows)


def sample_hidden(hd: HiddenDirectionDist, n: int, seed: int) -> np.ndarray:
    """n vectors s*v + (I - vv')g with s from the marginal, g ~ N(0, I_d)."""
    return next(hidden_blocks(hd, n, seed, rows=n))


def sample_null(d: int, n: int, seed: int) -> np.ndarray:
    """n standard Gaussian vectors in R^d, deterministic given seed."""
    return next(null_blocks(d, n, seed, rows=n))


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
