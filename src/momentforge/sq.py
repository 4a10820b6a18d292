"""Simulated STAT/VSTAT oracles and a small library of distinguishers.

Honest oracles answer with empirical means over fresh samples sized so the
answer lands within the advertised tolerance with probability >= 0.95.
Adversarial oracles compute the true expectation (closed form for monomial
queries via Wick pairings; for one-dimensional projection queries, the
truncated Mehler series of the projected density, or quadrature of the exact
density where the series would need too many terms; a deterministic
label-keyed sampling fallback otherwise) and round it toward the
corresponding N(0, I) expectation as far as the tolerance budget allows.
The rounding target is computed identically for planted and null targets,
so any query whose two expectations differ by less than the tolerance
receives the bitwise-identical answer under both -- the indistinguishability
the construction promises for bounded-degree moment queries.

The hidden direction is never exposed through the oracle interface; the
"oracle-v" baseline reads the trial's candidate direction deliberately, as a
labelled cheat, to show the planted law is genuinely far from Gaussian.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    STREAM_ORACLE,
    HiddenDirectionDist,
    hidden_projection,
    rng_stream,
    series_terms,
)
from .errors import ValidationError
from .gaussian import gaussian_density, gaussian_interval_mass, gaussian_moment
from .integrate import feature_breakpoints, panel_integrate_1d

__all__ = [
    "ProjectionQuery",
    "MonomialQuery",
    "NullTarget",
    "PlantedTarget",
    "SqOracle",
    "Algorithm",
    "DistinguisherResult",
    "stat_query",
    "vstat_query",
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


@dataclass(frozen=True)
class ProjectionQuery:
    """Query f(x) = fn(<direction, x>) for a vectorized 1-D fn.

    fn must be a pure function: adversarial oracles keep its N(0,1)
    expectation keyed by the function object.
    """

    direction: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray]
    label: str

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValidationError("projection query direction must be a unit vector")
        object.__setattr__(self, "direction", d)


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


def _label_rng(label: str) -> np.random.Generator:
    """Generator keyed only by the query label, so fallback estimates agree
    across oracles regardless of their seeds."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "big")))


def _gaussian_expectation(fn, tol_abs: float = 1e-11) -> float:
    breaks = feature_breakpoints(-10.0, 10.0, [0.0], 1.0)
    value, _ = panel_integrate_1d(
        lambda t: fn(t) * gaussian_density(t), breaks, tol_abs
    )
    return value


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
    ranges = [range(p + 1) for p in query.powers]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(
        -1, len(ranges)
    )
    total = 0.0
    for js in grid:
        coef = 1.0
        for a, j, vi in zip(query.powers, js, v):
            coef *= math.comb(a, int(j)) * vi ** int(j)
        if coef == 0.0:
            continue
        s_mom = marginal.moment(int(js.sum()))
        if s_mom == 0.0:
            continue
        residual = tuple(int(a - j) for a, j in zip(query.powers, js))
        total += coef * s_mom * _gaussian_vector_moment(cov, residual)
    return total


def _null_monomial_moment(query: MonomialQuery) -> float:
    out = 1.0
    for p in query.powers:
        out *= gaussian_moment(p)
    return out


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


def _label(query) -> str:
    label = getattr(query, "label", None)
    return repr(query) if label is None else label


@dataclass
class QueryLogEntry:
    """One answer.  path is "sampled" (honest) or how the adversarial
    target expectation was computed: "series", "quadrature", "closed-form"
    or "fallback"."""

    label: str
    mode: str
    answer: float
    tolerance: float
    path: str
    seconds: float


class SqOracle:
    """STAT(tau) / VSTAT(t) oracle over a planted or null target.

    mode 'honest' answers from fresh samples; mode 'adversarial' answers the
    value inside the tolerance interval closest to the N(0, I) expectation.
    Query outputs are clamped to the contractual range, counting violations.
    """

    def __init__(
        self,
        target: NullTarget | PlantedTarget,
        mode: str,
        tau: float | None = None,
        t: float | None = None,
        seed: int = 0,
        fallback_samples: int = 0,
    ):
        if mode not in ("honest", "adversarial"):
            raise ValidationError(f"unknown oracle mode {mode!r}")
        if (tau is None) == (t is None):
            raise ValidationError("specify exactly one of tau (STAT) or t (VSTAT)")
        if tau is not None and not 0.0 < tau < 1.0:
            raise ValidationError("tau must lie in (0,1)")
        if t is not None and t < 1.0:
            raise ValidationError("t must be >= 1")
        self._target = target
        self.mode = mode
        self.tau = tau
        self.t = t
        self.seed = seed
        self.fallback_samples = fallback_samples
        self._rng = rng_stream(seed, STREAM_ORACLE)
        self.query_log: list[QueryLogEntry] = []
        self.range_violations = 0
        self._gaussian_expectations: dict[tuple, float] = {}

    @property
    def d(self) -> int:
        return self._target.d

    @property
    def query_count(self) -> int:
        return len(self.query_log)

    @property
    def is_vstat(self) -> bool:
        return self.t is not None

    # -- sampling paths ------------------------------------------------

    @staticmethod
    def _sample_projection(query: ProjectionQuery, target, rng, n: int) -> np.ndarray:
        if isinstance(target, NullTarget):
            return rng.standard_normal(n)
        hidden = target.hidden
        cosine = float(np.clip(query.direction @ hidden.v, -1.0, 1.0))
        s = hidden.marginal.draw(rng, n)
        return hidden_projection(cosine, s, rng.standard_normal(n))

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

    @staticmethod
    def _sample_full(target, rng, n: int) -> np.ndarray:
        if isinstance(target, NullTarget):
            return rng.standard_normal((n, target.d))
        hidden = target.hidden
        s = hidden.marginal.draw(rng, n)
        return hidden.embed(s, rng.standard_normal((n, hidden.d)))

    @property
    def _range(self) -> tuple[float, float]:
        return (0.0, 1.0) if self.is_vstat else (-1.0, 1.0)

    def _apply_query(self, query, samples_or_proj) -> np.ndarray:
        lo, hi = self._range
        if isinstance(query, ProjectionQuery):
            vals = np.asarray(query.fn(samples_or_proj), dtype=float)
        elif isinstance(query, MonomialQuery):
            vals = (
                np.prod(
                    samples_or_proj ** np.asarray(query.powers, dtype=float), axis=1
                )
                / query.clip_scale
            )
        else:
            vals = np.asarray(query(samples_or_proj), dtype=float)
        clipped = np.clip(vals, lo, hi)
        if np.any(clipped != vals):
            self.range_violations += 1
        return clipped

    def _honest_values(self, query, target, rng, n: int) -> np.ndarray:
        if isinstance(query, ProjectionQuery):
            return self._apply_query(query, self._sample_projection(query, target, rng, n))
        if isinstance(query, MonomialQuery):
            return self._apply_query(query, self._sample_monomial_coords(query, target, rng, n))
        return self._apply_query(query, self._sample_full(target, rng, n))

    # -- exact expectation paths -----------------------------------------

    def _true_expectation(
        self, query, target, squared: bool = False
    ) -> tuple[float, str]:
        """The query's (or its square's) expectation under target, and the
        path that computed it."""
        lo, hi = self._range
        if isinstance(query, ProjectionQuery):

            def clipped_fn(tvals):
                out = np.clip(np.asarray(query.fn(tvals), dtype=float), lo, hi)
                return out * out if squared else out

            if isinstance(target, NullTarget):
                key = (query.fn, squared)
                if key not in self._gaussian_expectations:
                    self._gaussian_expectations[key] = _gaussian_expectation(clipped_fn)
                return self._gaussian_expectations[key], "quadrature"
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
                    value = marginal.series_expectation(clipped_fn, cosine, terms)
                    return value, "series"
            return marginal.projected(cosine).expectation(clipped_fn), "quadrature"

        if isinstance(query, MonomialQuery):
            if self.is_vstat:
                raise ValidationError(
                    "adversarial VSTAT has no exact path for monomial queries; "
                    "rescale to [0,1] as a projection query or use the fallback"
                )
            eff = (
                MonomialQuery(
                    indices=query.indices,
                    powers=tuple(2 * p for p in query.powers),
                    label=query.label + "^2",
                )
                if squared
                else query
            )
            scale = query.clip_scale**2 if squared else query.clip_scale
            if isinstance(target, NullTarget):
                return _null_monomial_moment(eff) / scale, "closed-form"
            return _planted_monomial_moment(target, eff) / scale, "closed-form"

        if self.fallback_samples > 0:
            rng = _label_rng(_label(query) + (":sq" if squared else ""))
            vals = self._honest_values(query, target, rng, self.fallback_samples)
            if squared:
                vals = vals * vals
            return float(np.mean(vals)), "fallback"
        raise ValidationError(
            "adversarial mode needs a registered query form or a fallback budget"
        )

    # -- oracle contract ---------------------------------------------------

    def _answer(self, query) -> float:
        start = time.perf_counter()
        if self.mode == "honest":
            path = "sampled"
            if self.is_vstat:
                n = max(int(math.ceil(4.0 * self.t)), 2)
                vals = self._honest_values(query, self._target, self._rng, n)
                answer = float(np.mean(vals))
                var = float(np.var(vals, ddof=1))
                tol = max(1.0 / self.t, math.sqrt(max(var, 0.0) / self.t))
            else:
                n = int(math.ceil(4.0 / (self.tau * self.tau)))
                vals = self._honest_values(query, self._target, self._rng, n)
                answer = float(np.mean(vals))
                tol = self.tau
        else:
            lo, hi = self._range
            # The expectation of a range-clamped query provably lies in the
            # range; clipping removes quadrature round-off overshoot.
            e_target, path = self._true_expectation(query, self._target)
            e_target = min(max(e_target, lo), hi)
            if self.is_vstat:
                e_sq, _ = self._true_expectation(query, self._target, squared=True)
                var = max(e_sq - e_target * e_target, 0.0)
                tol = max(1.0 / self.t, math.sqrt(var / self.t))
            else:
                tol = self.tau
            if isinstance(self._target, NullTarget):
                e_null = e_target
            else:
                e_null, _ = self._true_expectation(query, NullTarget(self.d))
                e_null = min(max(e_null, lo), hi)
            answer = min(max(e_null, e_target - tol), e_target + tol)
        self.query_log.append(
            QueryLogEntry(
                label=_label(query),
                mode=self.mode,
                answer=answer,
                tolerance=tol,
                path=path,
                seconds=time.perf_counter() - start,
            )
        )
        return answer

    def stat(self, query) -> float:
        if self.is_vstat:
            raise ValidationError("this oracle was configured as VSTAT")
        return self._answer(query)

    def vstat(self, query) -> float:
        if not self.is_vstat:
            raise ValidationError("this oracle was configured as STAT")
        return self._answer(query)


def stat_query(oracle: SqOracle, query) -> float:
    """Answer a [-1,1]-valued query through a STAT(tau) oracle."""
    return oracle.stat(query)


def vstat_query(oracle: SqOracle, query) -> float:
    """Answer a [0,1]-valued query through a VSTAT(t) oracle."""
    return oracle.vstat(query)


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

    def rec(pos: int, current: list[int]):
        if pos == len(subset):
            total = sum(current)
            if 1 <= total <= degree:
                idx = tuple(s for s, c in zip(subset, current) if c > 0)
                pw = tuple(c for c in current if c > 0)
                label = "monomial:" + ",".join(f"x{i}^{p}" for i, p in zip(idx, pw))
                queries.append(MonomialQuery(indices=idx, powers=pw, label=label))
            return
        for c in range(degree - sum(current) + 1):
            rec(pos + 1, current + [c])

    rec(0, [])
    return queries


@functools.lru_cache(maxsize=None)
def _clipped_power(j: int):
    """clip(t^j / CLIP_BASE^j, -1, 1); one shared function object per j."""
    scale = CLIP_BASE**j

    def fn(t):
        return np.clip(np.asarray(t, dtype=float) ** j / scale, -1.0, 1.0)

    return fn


def _comb_indicator(comb: np.ndarray, window: float):
    def fn(t):
        t = np.asarray(t, dtype=float)
        dist = np.min(np.abs(t[..., None] - comb), axis=-1)
        return (dist <= window).astype(float)

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
        if marg.inst is None:
            raise ValidationError("oracle-v needs a bump-instance marginal")
        comb = np.unique(np.concatenate([marg.scale * marg.inst.heights(), [0.0]]))
        window = 4.0 * max(marg.sigma, 1e-3)
        fn = _comb_indicator(comb, window)
        query = ProjectionQuery(direction=planted_hint.v, fn=fn, label="comb-along-v")
        null_ref = _union_interval_mass(comb, window)
        return Algorithm(algo_id, (query,), (null_ref,), threshold=0.3)
    raise ValidationError(f"unknown algorithm id {algo_id!r}")


def answer_sequence(oracle: SqOracle, algorithm: Algorithm) -> list[float]:
    """All oracle answers for the algorithm's query sequence, in order."""
    ask = vstat_query if oracle.is_vstat else stat_query
    return [ask(oracle, q) for q in algorithm.queries]


@dataclass(frozen=True)
class DistinguisherResult:
    """Outcome of running one distinguisher over repeated planted/null trials."""

    algorithm: str
    decision: str
    queries_used: int
    advantage: float
    trials: int
    params: dict
    truths: tuple[bool, ...]
    decisions: tuple[bool, ...]

    def __post_init__(self):
        if not -1.0 <= self.advantage <= 1.0:
            raise ValidationError("advantage must lie in [-1, 1]")
        if self.trials < 30:
            raise ValidationError("at least 30 trials are required to report advantage")


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
    """
    if trials < 30:
        raise ValidationError("need at least 30 trials")
    truths = []
    decisions = []
    queries_used = 0
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
        answers = answer_sequence(oracle, algorithm)
        decisions.append(algorithm.decide(answers))
        truths.append(planted)
        queries_used += oracle.query_count
    correct = sum(1 for t, g in zip(truths, decisions) if t == g)
    advantage = 2.0 * (correct / trials) - 1.0
    majority = "YES" if sum(decisions) * 2 >= trials else "NO"
    return DistinguisherResult(
        algorithm=algo_id,
        decision=majority,
        queries_used=queries_used,
        advantage=advantage,
        trials=trials,
        params=dict(algo_params),
        truths=tuple(truths),
        decisions=tuple(decisions),
    )
