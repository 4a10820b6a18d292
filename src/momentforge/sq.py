"""Simulated STAT(tau) oracles and a small library of distinguishers.

An oracle answers the two registered query forms, ProjectionQuery and
MonomialQuery, with range [-1, 1]; any other query is rejected before it is
logged.  Honest oracles answer with the mean of
n = min(ceil(4 / tau^2), ceil(20 V / tau^2)) fresh samples, where V is a
certified upper bound on the query's second moment E_target[q^2], capped at
1.  The first count is two standard errors of tau under the range bound's
worst-case variance 1; where the second is smaller, Chebyshev's inequality
alone, P(|mean - E q| >= tau) <= V / (n tau^2) <= 1/20, puts the answer
within tau with probability >= 0.95, with no normal approximation.  V comes
from closed forms: by Hoelder's inequality a monomial of degree D has
E[prod x_i^(2 p_i)] <= max_i E[x_i^(2D)], and the clipped power
t^j / CLIP_BASE^j that _clipped_power makes has E[t^(2j)]; each is a moment
of c s + sqrt(1 - c^2) g, for s the planted marginal, g ~ N(0,1) and c the
coordinate's or direction's cosine with the hidden direction (c = 0 under
the null).  Any other query function, oracle-v's comb among them, takes
V = 1 and draws ceil(4 / tau^2) samples.  A planted oracle thus sizes its
samples by its own law, which a STAT(tau) oracle may do: the contract
constrains only how far an answer lies from the target expectation.  An
answer that would need more than MAX_HONEST_SAMPLES draws is refused with
ValidationError before any draw.  Adversarial
oracles compute the true expectation (closed form for monomial queries via
Wick pairings; for projection queries, the truncated Mehler series of the
projected density, or quadrature of the exact density where the series
would need too many terms) and round it toward the corresponding N(0, I)
expectation as far as tau allows.
A series answer is the dot product sum_k (c s)^k a_k q_k of the marginal's
Hermite spectrum with the query function's Hermite projections
q_k = E_N[q h_k], tabulated by vector-valued integrals once per function
object for the whole process; row 0 (h_0 = 1) is the function's N(0,1)
expectation, a null answer's target.  Quadratures put panel breaks at the
query's declared jump points.  Those process-wide tables, like the
marginal's kept moments and spectrum, have no lock, so adversarial oracles
must not be answered from several threads at once.
The rounding target is computed identically for planted and null targets,
so any query whose two expectations differ by less than the tolerance
receives the bitwise-identical answer under both -- the indistinguishability
the construction promises for bounded-degree moment queries.

run_distinguisher calls its oracle factory in trial order on the calling
thread.  When every trial's oracle is honest it answers the trials
concurrently, on up to one thread per CPU the process may use: each trial
draws from its own oracle's counter-based stream, and the only mutable
state trials share is the marginal's kept moments, whose entries are the
same whichever thread writes them, so the results do not depend on the
worker count.  Adversarial trials are answered one after another on the
calling thread.

The hidden direction is never exposed through the oracle interface; the
"oracle-v" baseline reads the trial's candidate direction deliberately, as a
labelled cheat, to show the planted law is genuinely far from Gaussian.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    STREAM_ORACLE,
    HiddenDirectionDist,
    _cpu_count,
    comb_indicator,
    rng_stream,
    series_terms,
)
from .errors import ValidationError
from .gaussian import (
    gaussian_density,
    gaussian_interval_mass,
    gaussian_moment,
    hermite_rows,
)
from .integrate import Estimate, panel_integrate_1d

__all__ = [
    "ProjectionQuery",
    "MonomialQuery",
    "NullTarget",
    "PlantedTarget",
    "SqOracle",
    "Algorithm",
    "DistinguisherResult",
    "stat_query",
    "build_algorithm",
    "answer_sequence",
    "run_distinguisher",
]

CLIP_BASE = 12.0  # monomials are scaled by CLIP_BASE^degree before clipping
# A planted projection answer uses the Mehler series when its certified tail
# reaches SERIES_TAIL, a tenth of the 1e-10 quadrature tolerance, within
# SERIES_MAX_TERMS terms, and integrates the exact projected density if not.
SERIES_MAX_TERMS = 500
SERIES_TAIL = 1e-11
# A query function's Hermite projections are integrated on
# [-PROJECTION_BOUND, PROJECTION_BOUND] over PROJECTION_PANELS equal panels
# (plus its jumps), on which every row h_k, k <= SERIES_MAX_TERMS, times the
# Gaussian density meets PROJECTION_TOL without refinement.  By Cramer's
# inequality |h_k phi| <= 1.0865 e^(-t^2/4) / sqrt(2 pi), so a row leaves
# less than 4e-17 outside the bound.  Rows come PROJECTION_BLOCK at a time.
PROJECTION_BOUND = 12.0
PROJECTION_PANELS = 48
PROJECTION_TOL = 1e-13
PROJECTION_BLOCK = 32
# One honest answer draws at most MAX_HONEST_SAMPLES samples: 32 MiB per
# float array, and a three-coordinate monomial answer peaks at about eleven
# such arrays (370 MB, by tracemalloc), on each of up to one trial thread
# per CPU.
MAX_HONEST_SAMPLES = 2**22


@dataclass(frozen=True)
class ProjectionQuery:
    """Query f(x) = fn(<direction, x>) for a vectorized 1-D fn.

    fn must be a pure function: adversarial oracles keep its Hermite
    projections (row 0 its N(0,1) expectation) in a table shared by every
    oracle of the process, keyed by the function object (dropped with it).
    jumps lists the points where fn is discontinuous; quadratures break
    their panels there.  They belong to fn: a table made for one query
    serves every query of the same fn.
    """

    direction: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    jumps: tuple[float, ...] = ()

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:
            raise ValidationError("projection query direction must be a unit vector")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "jumps", tuple(float(j) for j in self.jumps))


@dataclass(frozen=True)
class MonomialQuery:
    """Query f(x) = clip(prod_i x[indices[i]]^powers[i] / CLIP_BASE^degree).

    The clip scale keeps the range bound while leaving the expectation equal
    to the unclipped moment to double precision.
    """

    indices: tuple[int, ...]
    powers: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(self.indices) != len(self.powers) or not self.indices:
            raise ValidationError("indices and powers must be equal-length, nonempty")
        if any(p < 1 for p in self.powers):
            raise ValidationError("powers must be >= 1")
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError("indices must be distinct")

    @property
    def degree(self) -> int:
        return sum(self.powers)

    @property
    def clip_scale(self) -> float:
        return CLIP_BASE**self.degree


@dataclass(frozen=True)
class NullTarget:
    """The N(0, I_d) hypothesis."""

    d: int


@dataclass(frozen=True)
class PlantedTarget:
    """The hidden-direction hypothesis."""

    hidden: HiddenDirectionDist

    @property
    def d(self) -> int:
        return self.hidden.d


# query.fn -> [values, errors]: q_0..q_K and each row's error, for K + 1 a
# multiple of PROJECTION_BLOCK.
_PROJECTIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _hermite_projections(
    query, clipped_fn, terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """q_k = E_N[clipped_fn(t) h_k(t)] for k <= terms, with each row's error.

    Rows are integrated PROJECTION_BLOCK at a time, each block one
    vector-valued integral made once per query function and joined onto the
    function's table, which is kept while the function lives.  A row's value
    thus never depends on which queries came before, and an integrand call
    holds one block.
    """
    try:
        table = _PROJECTIONS.get(query.fn)
    except TypeError:  # fn takes no weak reference (a ufunc, say)
        table = [np.empty(0), np.empty(0)]
    if table is None:
        table = _PROJECTIONS[query.fn] = [np.empty(0), np.empty(0)]
    for first in range(table[0].size, terms + 1, PROJECTION_BLOCK):

        def integrand(t):
            weight = clipped_fn(t) * gaussian_density(t)
            out = np.empty((t.size, PROJECTION_BLOCK))
            rows = itertools.islice(hermite_rows(t), first, first + PROJECTION_BLOCK)
            for k, h in enumerate(rows):
                out[:, k] = h * weight
            return out

        grid = np.linspace(-PROJECTION_BOUND, PROJECTION_BOUND, PROJECTION_PANELS + 1)
        breaks = np.union1d(grid, [j for j in query.jumps if abs(j) < PROJECTION_BOUND])
        block, error = panel_integrate_1d(integrand, breaks, PROJECTION_TOL)
        table[0] = np.concatenate([table[0], block])
        table[1] = np.concatenate([table[1], np.full(PROJECTION_BLOCK, error)])
    return table[0][: terms + 1], table[1][: terms + 1]


def _int_power(x: np.ndarray, p: int) -> np.ndarray:
    """x^p for an integer p >= 1 by p - 1 multiplications, left to right.

    libm pow costs tens of times more per element; the product stays within
    (p - 1) 2^-52 relative of it, and equals x * x exactly at p = 2.
    """
    out = x
    for _ in range(p - 1):
        out = out * x
    return out


def _gaussian_vector_moment(cov: np.ndarray, powers: tuple[int, ...]) -> float:
    """E[prod x_i^powers] for x ~ N(0, cov), by the Stein/Wick recursion."""
    memo: dict[tuple[int, ...], float] = {}

    def rec(p: tuple[int, ...]) -> float:
        total_degree = sum(p)
        if total_degree == 0:
            return 1.0
        if total_degree % 2 == 1:
            return 0.0
        if p in memo:
            return memo[p]
        i = next(idx for idx, v in enumerate(p) if v > 0)
        reduced = list(p)
        reduced[i] -= 1
        total = 0.0
        for j, pj in enumerate(reduced):
            if pj > 0 and cov[i, j] != 0.0:
                child = list(reduced)
                child[j] -= 1
                total += cov[i, j] * pj * rec(tuple(child))
        memo[p] = total
        return total

    return rec(tuple(powers))


def _planted_monomial_moment(target: PlantedTarget, query: MonomialQuery) -> float:
    """Exact unclipped E[prod x^a] under the planted law.

    Expand x_S = s v_S + u_S binomially; s-moments come from the marginal's
    convolution identity, u-moments from Wick pairings with covariance
    I - v_S v_S'.
    """
    v = target.hidden.v[list(query.indices)]
    cov = np.eye(len(query.indices)) - np.outer(v, v)
    marginal = target.hidden.marginal
    total = 0.0
    for js in itertools.product(*(range(p + 1) for p in query.powers)):
        coef = 1.0
        for a, j, vi in zip(query.powers, js, v):
            coef *= math.comb(a, j) * vi**j
        if coef == 0.0:
            continue
        s_mom = marginal.moment(sum(js))
        if s_mom == 0.0:
            continue
        residual = tuple(a - j for a, j in zip(query.powers, js))
        total += coef * s_mom * _gaussian_vector_moment(cov, residual)
    return total


def _null_monomial_moment(query: MonomialQuery) -> float:
    out = 1.0
    for p in query.powers:
        out *= gaussian_moment(p)
    return out


def _power_moment(target, cosine: float, k: int) -> float:
    """E[t^k] for even k, t = cosine s + sqrt(1 - cosine^2) g with s the
    planted marginal and g ~ N(0,1) independent; E[g^k] under the null."""
    if isinstance(target, NullTarget):
        return gaussian_moment(k)
    marginal = target.hidden.marginal
    width = math.sqrt(max(1.0 - cosine * cosine, 0.0))
    # Odd orders of g vanish, so j runs over even orders: every term is >= 0.
    return sum(
        math.comb(k, j)
        * cosine**j
        * width ** (k - j)
        * marginal.moment(j)
        * gaussian_moment(k - j)
        for j in range(0, k + 1, 2)
    )


def _second_moment_bound(query, target) -> float:
    """V >= E_target[q^2] for the unclamped query q, capped at 1, since the
    clamp only shrinks |q|; 1 for a query function with no closed form.

    A monomial of degree D takes max_i E[x_i^(2D)] by Hoelder's inequality,
    a clipped power t^j the projected moment E[t^(2j)], each over
    CLIP_BASE^(2 degree).  The factor 1 + 1e-12 covers the sums' rounding.
    """
    planted = isinstance(target, PlantedTarget)
    if isinstance(query, MonomialQuery):
        order = 2 * query.degree
        cosines = target.hidden.v[list(query.indices)] if planted else (0.0,)
    else:
        power = _CLIPPED_POWERS.get(id(query.fn))
        if power is None:
            return 1.0
        order = 2 * power
        cosines = (
            float(np.clip(query.direction @ target.hidden.v, -1.0, 1.0))
            if planted
            else 0.0,
        )
    moment = max(_power_moment(target, float(c), order) for c in cosines)
    return min(1.0, (1.0 + 1e-12) * moment / CLIP_BASE**order)


def _union_interval_mass(points: np.ndarray, window: float) -> float:
    """Gaussian mass of the union of +-window intervals around the points."""
    intervals = sorted((p - window, p + window) for p in np.atleast_1d(points))
    merged: list[list[float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return sum(gaussian_interval_mass(lo, hi) for lo, hi in merged)


@dataclass
class QueryLogEntry:
    """One answer.  path is "sampled" (honest) or how the adversarial
    target expectation was computed: "series", "quadrature" or
    "closed-form".  error is that expectation's absolute error estimate:
    the integrator's, plus SERIES_TAIL on the series path; 0 for a closed
    form and NaN where it was sampled.  samples is the number of draws
    behind an honest answer, 0 for an adversarial one."""

    label: str
    mode: str
    answer: float
    tolerance: float
    path: str
    seconds: float
    error: float
    samples: int


class SqOracle:
    """STAT(tau) oracle over a planted or null target.

    It answers ProjectionQuery and MonomialQuery only, and raises
    ValidationError on any other query before logging it.  mode 'honest'
    answers with the mean of min(ceil(4 / tau^2), ceil(20 V / tau^2)) fresh
    samples, V a certified bound on the query's second moment under this
    oracle's own target (1 where none is known), so by Chebyshev's
    inequality the answer lands within tau with probability >= 0.95; it
    raises ValidationError, before any draw, where that count exceeds
    MAX_HONEST_SAMPLES.  mode 'adversarial' answers the value within tau of
    the target expectation closest to the N(0, I) expectation.
    Query outputs are clamped to [-1, 1].
    """

    def __init__(
        self, target: NullTarget | PlantedTarget, mode: str, tau: float, seed: int = 0
    ):
        if mode not in ("honest", "adversarial"):
            raise ValidationError(f"unknown oracle mode {mode!r}")
        if not 0.0 < tau < 1.0:
            raise ValidationError("tau must lie in (0,1)")
        self._target = target
        self.mode = mode
        self.tau = tau
        self._rng = rng_stream(seed, STREAM_ORACLE)
        self.query_log: list[QueryLogEntry] = []

    @property
    def d(self) -> int:
        return self._target.d

    @property
    def query_count(self) -> int:
        return len(self.query_log)

    # -- sampling paths ------------------------------------------------

    @staticmethod
    def _sample_projection(query: ProjectionQuery, target, rng, n: int) -> np.ndarray:
        if isinstance(target, NullTarget):
            return rng.standard_normal(n)
        hidden = target.hidden
        cosine = float(np.clip(query.direction @ hidden.v, -1.0, 1.0))
        s = hidden.marginal.draw(rng, n)
        sin_t = math.sqrt(max(1.0 - cosine * cosine, 0.0))
        return cosine * s + sin_t * rng.standard_normal(n)

    @staticmethod
    def _sample_monomial_coords(query: MonomialQuery, target, rng, n: int) -> np.ndarray:
        k = len(query.indices)
        if isinstance(target, NullTarget):
            return rng.standard_normal((n, k))
        hidden = target.hidden
        v_s = hidden.v[list(query.indices)]
        w_c = math.sqrt(max(1.0 - float(v_s @ v_s), 0.0))
        s = hidden.marginal.draw(rng, n)
        g_s = rng.standard_normal((n, k))
        eta = rng.standard_normal(n)
        u = g_s - np.outer(g_s @ v_s + eta * w_c, v_s)
        return u + np.outer(s, v_s)

    def _sample_size(self, query) -> int:
        """Draws behind one honest answer: min(ceil(4 / tau^2),
        ceil(20 V / tau^2)); a query with V = 1 takes the first."""
        tol = self.tau
        bound = _second_moment_bound(query, self._target)
        n = min(math.ceil(4.0 / (tol * tol)), math.ceil(20.0 * bound / (tol * tol)))
        if n > MAX_HONEST_SAMPLES:
            raise ValidationError(
                f"an honest answer to {query.label!r} at tau={tol:g} needs n={n} "
                f"samples, more than the {MAX_HONEST_SAMPLES} one answer may draw"
            )
        return n

    def _honest_values(self, query, n: int) -> np.ndarray:
        """n fresh query values under the target, clamped to [-1, 1]."""
        if isinstance(query, ProjectionQuery):
            proj = self._sample_projection(query, self._target, self._rng, n)
            vals = np.asarray(query.fn(proj), dtype=float)
        else:
            coords = self._sample_monomial_coords(query, self._target, self._rng, n)
            # The columns' powers multiplied left to right, as np.prod does.
            vals = _int_power(coords[:, 0], query.powers[0])
            for i, p in enumerate(query.powers[1:], 1):
                vals = vals * _int_power(coords[:, i], p)
            vals = vals / query.clip_scale
        return np.clip(vals, -1.0, 1.0)

    # -- exact expectation paths -----------------------------------------

    def _true_expectation(self, query, target) -> tuple[Estimate, str]:
        """The query's expectation under target, with its error estimate,
        and the path that computed it."""
        if isinstance(query, ProjectionQuery):

            def clipped_fn(tvals):
                return np.clip(np.asarray(query.fn(tvals), dtype=float), -1.0, 1.0)

            if isinstance(target, NullTarget):
                table, table_err = _hermite_projections(query, clipped_fn, 0)
                return Estimate(table[0], table_err[0]), "quadrature"
            marginal = target.hidden.marginal
            cosine = float(np.clip(query.direction @ target.hidden.v, -1.0, 1.0))
            rho = abs(cosine) * marginal.scale
            if rho < 1.0:
                # |a_k| <= hermite_bound() and the clamped query has
                # ||q||_2 <= 1, so by Cauchy-Schwarz the terms after K add at
                # most hermite_bound() * rho^(K+1) / sqrt(1 - rho^2).
                constant = marginal.hermite_bound() / math.sqrt(1.0 - rho * rho)
                terms = series_terms(constant, rho, SERIES_TAIL)
                if terms <= SERIES_MAX_TERMS:
                    # By the Mehler identity the projected density is
                    # phi(t) sum_k (cosine scale)^k a_k h_k(t).
                    table, table_err = _hermite_projections(query, clipped_fn, terms)
                    coeffs = marginal.hermite_spectrum(terms) * (
                        cosine * marginal.scale
                    ) ** np.arange(terms + 1)
                    value = float(coeffs @ table)
                    error = float(np.abs(coeffs) @ table_err) + SERIES_TAIL
                    return Estimate(value, error), "series"
            law = marginal.projected(cosine)
            return law.expectation(clipped_fn, jumps=query.jumps), "quadrature"

        if isinstance(target, NullTarget):
            moment = _null_monomial_moment(query)
        else:
            moment = _planted_monomial_moment(target, query)
        return Estimate(moment / query.clip_scale, 0.0), "closed-form"

    # -- oracle contract ---------------------------------------------------

    def _answer(self, query) -> float:
        if not isinstance(query, (ProjectionQuery, MonomialQuery)):
            raise ValidationError(
                "a STAT oracle answers ProjectionQuery and MonomialQuery only, "
                f"not {type(query).__name__}"
            )
        start = time.perf_counter()
        tol = self.tau
        if self.mode == "honest":
            path, error = "sampled", math.nan
            samples = self._sample_size(query)
            answer = float(np.mean(self._honest_values(query, samples)))
        else:
            samples = 0
            # The expectation of a range-clamped query provably lies in
            # [-1, 1]; clipping removes quadrature round-off overshoot.
            e_target, path = self._true_expectation(query, self._target)
            error = e_target.error
            e_target = min(max(e_target, -1.0), 1.0)
            if isinstance(self._target, NullTarget):
                e_null = e_target
            else:
                e_null, _ = self._true_expectation(query, NullTarget(self.d))
                e_null = min(max(e_null, -1.0), 1.0)
            answer = float(min(max(e_null, e_target - tol), e_target + tol))
        self.query_log.append(
            QueryLogEntry(
                label=query.label,
                mode=self.mode,
                answer=answer,
                tolerance=tol,
                path=path,
                seconds=time.perf_counter() - start,
                error=error,
                samples=samples,
            )
        )
        return answer


def stat_query(oracle: SqOracle, query) -> float:
    """Answer a registered [-1, 1]-valued query through a STAT(tau) oracle."""
    return oracle._answer(query)


# -- distinguishers ---------------------------------------------------------


@dataclass(frozen=True)
class Algorithm:
    """A fixed query sequence plus a YES/NO rule on the answer vector."""

    algo_id: str
    queries: tuple
    references: tuple[float, ...]
    threshold: float

    def decide(self, answers) -> bool:
        gaps = [abs(a - r) for a, r in zip(answers, self.references)]
        return max(gaps) > self.threshold


def _moment_scan_queries(
    d: int, degree: int, subset_size: int, rng
) -> list[MonomialQuery]:
    """All monomials of total degree in [1, degree] over one random subset."""
    subset = tuple(sorted(rng.choice(d, size=subset_size, replace=False).tolist()))
    queries: list[MonomialQuery] = []
    for current in itertools.product(range(degree + 1), repeat=subset_size):
        if 1 <= sum(current) <= degree:
            idx = tuple(s for s, c in zip(subset, current) if c > 0)
            pw = tuple(c for c in current if c > 0)
            label = "monomial:" + ",".join(f"x{i}^{p}" for i, p in zip(idx, pw))
            queries.append(MonomialQuery(indices=idx, powers=pw, label=label))
    return queries


# id(fn) -> j for each function _clipped_power made, which honest oracles
# read to bound the query's second moment.  The factory keeps every function
# for the life of the process, so no other object takes one of these ids.
_CLIPPED_POWERS: dict[int, int] = {}


@functools.lru_cache(maxsize=None)
def _clipped_power(j: int):
    """clip(t^j / CLIP_BASE^j, -1, 1); one shared function object per j."""
    scale = CLIP_BASE**j

    def fn(t):
        return np.clip(_int_power(np.asarray(t, dtype=float), j) / scale, -1.0, 1.0)

    _CLIPPED_POWERS[id(fn)] = j
    return fn


def build_algorithm(
    algo_id: str,
    d: int,
    seed: int,
    degree: int = 5,
    subset_size: int = 3,
    n_directions: int = 12,
    tau: float = 0.01,
    planted_hint: HiddenDirectionDist | None = None,
) -> Algorithm:
    """Construct one of the three distinguishers.

    moment-scan and random-projection-moment are honest SQ algorithms whose
    references are the exact N(0, I) values of their queries; they report YES
    when any answer strays more than 2.5 tau from its reference.  oracle-v
    reads the trial's candidate direction (outside the oracle interface) and
    thresholds a comb-membership statistic along it.
    """
    rng = rng_stream(seed, STREAM_ORACLE + 0x200)
    if algo_id == "moment-scan":
        if not 1 <= subset_size <= d:
            raise ValidationError(
                f"moment-scan needs 1 <= subset_size <= d, got subset_size="
                f"{subset_size}, d={d}"
            )
        queries = _moment_scan_queries(d, degree, subset_size, rng)
        refs = tuple(_null_monomial_moment(q) / q.clip_scale for q in queries)
        return Algorithm(algo_id, tuple(queries), refs, threshold=2.5 * tau)
    if algo_id == "random-projection-moment":
        queries: list[ProjectionQuery] = []
        refs_list: list[float] = []
        for i in range(n_directions):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            for j in range(1, degree + 1):
                queries.append(
                    ProjectionQuery(
                        direction=u, fn=_clipped_power(j), label=f"proj{i}:t^{j}"
                    )
                )
                refs_list.append(gaussian_moment(j) / CLIP_BASE**j)
        return Algorithm(algo_id, tuple(queries), tuple(refs_list), threshold=2.5 * tau)
    if algo_id == "oracle-v":
        if planted_hint is None:
            raise ValidationError("oracle-v needs the trial's candidate direction")
        marg = planted_hint.marginal
        comb = np.unique(np.concatenate([marg.scale * marg.inst.heights(), [0.0]]))
        window = 4.0 * max(marg.sigma, 1e-3)
        fn = comb_indicator(tuple(comb.tolist()), window)
        query = ProjectionQuery(
            direction=planted_hint.v,
            fn=fn,
            label="comb-along-v",
            jumps=tuple(np.concatenate([comb - window, comb + window])),
        )
        null_ref = _union_interval_mass(comb, window)
        return Algorithm(algo_id, (query,), (null_ref,), threshold=0.3)
    raise ValidationError(f"unknown algorithm id {algo_id!r}")


def answer_sequence(oracle: SqOracle, algorithm: Algorithm) -> list[float]:
    """All oracle answers for the algorithm's query sequence, in order."""
    return [stat_query(oracle, q) for q in algorithm.queries]


@dataclass(frozen=True)
class DistinguisherResult:
    """Outcome of running one distinguisher over repeated planted/null trials."""

    algorithm: str
    decision: str
    queries_used: int
    advantage: float
    trials: int
    truths: tuple[bool, ...]
    decisions: tuple[bool, ...]


def run_distinguisher(
    algo_id: str,
    oracle_factory: Callable[[str, int], tuple[SqOracle, HiddenDirectionDist]],
    trials: int,
    seed: int,
    **algo_params,
) -> DistinguisherResult:
    """Run the distinguisher against balanced planted/null targets.

    Trials alternate planted and null (so a constant decider scores advantage
    exactly 0, with no coin-flip variance in the headline number).
    oracle_factory(kind, trial_index) returns a fresh oracle whose target is
    planted or null per kind, together with the trial's candidate
    hidden-direction law (which only the cheating baseline may read).  The
    advantage is twice the success probability minus 1.

    The factory is called for every trial first, in trial order on the
    calling thread, and each trial's algorithm is built there too.  If every
    oracle is honest, the trials are then answered concurrently on
    min(trials, CPUs) threads; each draws only from its own oracle's stream,
    so the results equal a serial run's.  Otherwise they are answered in
    order on the calling thread, since adversarial oracles share
    process-wide tables.  An error raised in a trial reaches the caller
    unchanged, the earliest trial's first.
    """
    if trials < 30:
        raise ValidationError("need at least 30 trials")
    truths = tuple(trial % 2 == 0 for trial in range(trials))
    runs = []
    for trial, planted in enumerate(truths):
        oracle, candidate = oracle_factory("planted" if planted else "null", trial)
        algorithm = build_algorithm(
            algo_id,
            oracle.d,
            seed=seed + 7919 * trial,
            planted_hint=candidate if algo_id == "oracle-v" else None,
            **algo_params,
        )
        runs.append((oracle, algorithm))

    def decide(run) -> bool:
        oracle, algorithm = run
        return algorithm.decide(answer_sequence(oracle, algorithm))

    if all(oracle.mode == "honest" for oracle, _ in runs):
        with ThreadPoolExecutor(min(trials, _cpu_count())) as pool:
            decisions = tuple(pool.map(decide, runs))
    else:
        decisions = tuple(map(decide, runs))
    queries_used = sum(oracle.query_count for oracle, _ in runs)
    correct = sum(1 for t, g in zip(truths, decisions) if t == g)
    advantage = 2.0 * (correct / trials) - 1.0
    majority = "YES" if sum(decisions) * 2 >= trials else "NO"
    return DistinguisherResult(
        algorithm=algo_id,
        decision=majority,
        queries_used=queries_used,
        advantage=advantage,
        trials=trials,
        truths=truths,
        decisions=decisions,
    )
