"""The STAT(tau) oracle contract and the distinguisher experiments."""

import math
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    pow_clipped_power,
    pow_monomial_values,
    sample_hidden,
    serial_distinguisher,
)

from momentforge import (
    HiddenDirectionDist,
    MonomialQuery,
    NullTarget,
    PlantedTarget,
    ProjectionQuery,
    PushforwardDist,
    SqOracle,
    ValidationError,
    instance_eval,
    run_distinguisher,
    stat_query,
)
from momentforge import sq as sq_module
from momentforge.cli import main
from momentforge.distributions import STREAM_ORACLE, rng_stream
from momentforge.gaussian import gaussian_moment
from momentforge.sq import (
    CLIP_BASE,
    MAX_HONEST_SAMPLES,
    SERIES_TAIL,
    Algorithm,
    _clipped_power,
    _int_power,
    _null_monomial_moment,
    _planted_monomial_moment,
    _second_moment_bound,
    answer_sequence,
    build_algorithm,
)
from momentforge.integrate import panel_integrate_1d

D_SMALL = 10
TAU = 0.01


@pytest.fixture(scope="module")
def hidden(dist5):
    v = np.zeros(D_SMALL)
    v[0] = 1.0
    return HiddenDirectionDist(d=D_SMALL, v=v, marginal=dist5)


def make_oracle(target, mode, seed=0, **kw):
    return SqOracle(target, mode, tau=TAU, seed=seed, **kw)


def e1_query(fn, label):
    u = np.zeros(D_SMALL)
    u[0] = 1.0
    return ProjectionQuery(direction=u, fn=fn, label=label)


class TestStatQuery:
    def test_constant_query_both_modes(self, hidden):
        query = e1_query(lambda t: np.ones_like(np.asarray(t, dtype=float)), "one")
        for mode in ("honest", "adversarial"):
            for target in (PlantedTarget(hidden), NullTarget(D_SMALL)):
                assert stat_query(make_oracle(target, mode), query) == 1.0

    def test_odd_query_against_null(self):
        query = e1_query(
            lambda t: np.clip((np.asarray(t) ** 3 - 3 * np.asarray(t)) / 20.0, -1, 1),
            "he3",
        )
        answer = stat_query(make_oracle(NullTarget(D_SMALL), "honest", seed=3), query)
        assert abs(answer) <= TAU

    def test_adversarial_moment_queries_match_gaussian(self, hidden):
        # Degree <= m moments agree within nu << tau, so adversarial answers
        # sit within tau of the Gaussian value under both hypotheses.
        for k in (1, 2, 3, 4, 5):
            query = MonomialQuery(indices=(0,), powers=(k,), label=f"x0^{k}")
            want = gaussian_moment(k) / CLIP_BASE**k
            for target in (PlantedTarget(hidden), NullTarget(D_SMALL)):
                answer = stat_query(make_oracle(target, "adversarial"), query)
                assert abs(answer - want) <= TAU

    def test_mode_and_parameter_validation(self, hidden):
        with pytest.raises(ValidationError):
            SqOracle(PlantedTarget(hidden), "weird", tau=0.1)
        for bad in (0.0, 1.0):
            with pytest.raises(ValidationError):
                SqOracle(PlantedTarget(hidden), "honest", tau=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(ValidationError, match="unit vector"):
            ProjectionQuery(direction=np.array([bad, 0.0]), fn=np.tanh, label="bad")

    @pytest.mark.parametrize("mode", ["honest", "adversarial"])
    def test_unregistered_query_rejected(self, hidden, mode):
        generic = lambda x: np.clip(x[:, 0] * x[:, 1], -1, 1)  # noqa: E731
        oracle = make_oracle(PlantedTarget(hidden), mode)
        with pytest.raises(ValidationError, match="ProjectionQuery and MonomialQuery"):
            stat_query(oracle, generic)
        assert oracle.query_count == 0


class TestOracleSoundness:
    def test_honest_calibration(self):
        # 1000 queries with known Gaussian expectations: at most 5% of
        # honest answers may fall outside +-tau.
        rng = np.random.default_rng(77)
        oracle = make_oracle(NullTarget(4), "honest", seed=78)
        failures = 0
        total = 0
        for i in range(1000):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            kind = i % 3
            if kind == 0:
                thr = float(rng.uniform(-1.5, 1.5))
                fn = lambda t, thr=thr: (np.asarray(t) > thr).astype(float)
                want = 1.0 - 0.5 * (1 + math.erf(thr / math.sqrt(2)))
            elif kind == 1:
                fn = lambda t: np.clip(np.asarray(t) / 4.0, -1, 1)
                want = 0.0
            else:
                fn = lambda t: np.clip(np.asarray(t) ** 2 / 9.0, -1, 1)
                want = 1.0 / 9.0
            answer = stat_query(
                oracle, ProjectionQuery(direction=u, fn=fn, label=f"cal{i}")
            )
            failures += abs(answer - want) > TAU
            total += 1
        assert failures / total <= 0.05

    def test_adversarial_answers_within_tolerance(self, hidden):
        # The clamp construction keeps every answer within tau of the true
        # expectation; cross-check the expectation by plain Monte Carlo.
        oracle = make_oracle(PlantedTarget(hidden), "adversarial", seed=79)
        query = MonomialQuery(indices=(0, 1), powers=(2, 2), label="x0^2x1^2")
        answer = stat_query(oracle, query)
        n = 4_000_000
        x = sample_hidden(hidden, n, seed=80)
        vals = np.clip(x[:, 0] ** 2 * x[:, 1] ** 2 / CLIP_BASE**4, -1, 1)
        estimate = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(n)
        assert abs(answer - estimate) <= TAU + 5 * se


class TestDistinguishers:
    def test_adversarial_bitwise_identical(self, hidden):
        for algo_id, params in (
            ("moment-scan", {}),
            ("random-projection-moment", {"n_directions": 4}),
        ):
            algo = build_algorithm(algo_id, D_SMALL, seed=101, tau=TAU, **params)
            planted = make_oracle(PlantedTarget(hidden), "adversarial", seed=1)
            null = make_oracle(NullTarget(D_SMALL), "adversarial", seed=2)
            a_p = answer_sequence(planted, algo)
            a_n = answer_sequence(null, algo)
            assert a_p == a_n
            assert algo.decide(a_p) == algo.decide(a_n)

    def test_oracle_v_cheat_separates(self, hidden):
        algo = build_algorithm(
            "oracle-v", D_SMALL, seed=102, tau=TAU, planted_hint=hidden
        )
        planted_answer = answer_sequence(
            make_oracle(PlantedTarget(hidden), "honest", seed=3), algo
        )
        null_answer = answer_sequence(
            make_oracle(NullTarget(D_SMALL), "honest", seed=4), algo
        )
        assert algo.decide(planted_answer)
        assert not algo.decide(null_answer)

    def test_run_distinguisher_oracle_v(self, dist5):
        def factory(kind, trial):
            rng = np.random.default_rng(1000 + trial)
            v = rng.standard_normal(D_SMALL)
            v /= np.linalg.norm(v)
            hd = HiddenDirectionDist(d=D_SMALL, v=v, marginal=dist5)
            target = PlantedTarget(hd) if kind == "planted" else NullTarget(D_SMALL)
            return make_oracle(target, "honest", seed=300 + trial), hd

        result = run_distinguisher("oracle-v", factory, trials=30, seed=11, tau=TAU)
        assert result.advantage >= 0.8
        assert result.queries_used == 30

    def test_trial_floor_enforced(self, dist5):
        with pytest.raises(ValidationError):
            run_distinguisher("oracle-v", lambda k, t: None, trials=10, seed=1)

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            build_algorithm("psychic", 5, seed=1)

    def test_moment_scan_subset_larger_than_dimension(self):
        with pytest.raises(ValidationError, match=r"subset_size=3, d=2"):
            build_algorithm("moment-scan", 2, seed=1, subset_size=3)

    def test_moment_scan_query_enumeration(self):
        algo = build_algorithm("moment-scan", 20, seed=5, degree=5, subset_size=3)
        assert len(algo.queries) == 55  # compositions of degree 1..5 over 3 slots
        degrees = {q.degree for q in algo.queries}
        assert degrees == {1, 2, 3, 4, 5}

    def test_decision_threshold(self):
        algo = Algorithm("toy", (), (0.0, 0.0), threshold=0.1)
        assert algo.decide.__self__ is algo  # bound method sanity
        toy = Algorithm("toy", ("q1", "q2"), (0.0, 1.0), threshold=0.1)
        assert toy.decide([0.05, 1.05]) is False
        assert toy.decide([0.2, 1.0]) is True


class TestHonestSamplingStreams:
    """Each honest sampling path draws g1, g2, then its orthogonal draws from
    the oracle's stream, in that order; rebuilt here by hand."""

    SEED = 11
    N = 257

    @pytest.fixture(scope="class")
    def planted(self, dist5):
        v = np.arange(1.0, D_SMALL + 1.0)
        v /= np.linalg.norm(v)
        return PlantedTarget(HiddenDirectionDist(d=D_SMALL, v=v, marginal=dist5))

    def marginal_draws(self, rng, marginal):
        g1 = rng.standard_normal(self.N)
        g2 = rng.standard_normal(self.N)
        return marginal.scale * instance_eval(marginal.inst, g1) + marginal.sigma * g2

    def test_projection_path(self, planted):
        hidden = planted.hidden
        u = np.zeros(D_SMALL)
        u[:2] = (0.6, 0.8)
        query = ProjectionQuery(direction=u, fn=np.tanh, label="proj")
        oracle = make_oracle(planted, "honest", seed=self.SEED)
        got = oracle._sample_projection(query, planted, oracle._rng, self.N)

        rng = rng_stream(self.SEED, STREAM_ORACLE)
        s = self.marginal_draws(rng, hidden.marginal)
        g3 = rng.standard_normal(self.N)
        cosine = float(u @ hidden.v)
        want = cosine * s + math.sqrt(1.0 - cosine * cosine) * g3
        assert np.array_equal(got, want)

    def test_monomial_path(self, planted):
        hidden = planted.hidden
        query = MonomialQuery(indices=(0, 3), powers=(2, 1), label="mono")
        oracle = make_oracle(planted, "honest", seed=self.SEED)
        got = oracle._sample_monomial_coords(query, planted, oracle._rng, self.N)

        rng = rng_stream(self.SEED, STREAM_ORACLE)
        s = self.marginal_draws(rng, hidden.marginal)
        g_s = rng.standard_normal((self.N, 2))
        eta = rng.standard_normal(self.N)
        v_s = hidden.v[[0, 3]]
        w_c = math.sqrt(1.0 - float(v_s @ v_s))
        want = g_s - np.outer(g_s @ v_s + eta * w_c, v_s) + np.outer(s, v_s)
        assert np.array_equal(got, want)


kernel_settings = settings(max_examples=40, deadline=None, derandomize=True)
# Magnitudes from 1e-3 to 50: every power up to 10 stays normal, so the
# relative bound holds.
magnitudes = st.floats(1e-3, 50.0)
kernel_inputs = arrays(
    np.float64, 64, elements=st.one_of(magnitudes, magnitudes.map(lambda v: -v))
)


class TestIntegerPowerKernel:
    """The multiplication kernel against the libm pow references of
    tests/oracles.py: p - 1 products stay within (p - 1) 2^-52 relative."""

    @kernel_settings
    @given(x=kernel_inputs, p=st.integers(1, 10))
    def test_matches_pow_within_bound(self, x, p):
        bound = (p - 1) * 2.0**-52
        want = x ** float(p)
        assert np.all(np.abs(_int_power(x, p) - want) <= bound * np.abs(want))
        t = x / 4.0
        want = pow_clipped_power(p)(t)
        got = _clipped_power(p)(t)
        assert np.all(np.abs(got - want) <= bound * np.abs(want))

    @pytest.mark.parametrize("p", range(1, 11))
    def test_bit_exact_on_small_integers(self, p):
        x = np.arange(-12.0, 13.0)
        assert np.array_equal(_int_power(x, p), x ** float(p))
        assert np.array_equal(_clipped_power(p)(x), pow_clipped_power(p)(x))

    @kernel_settings
    @given(
        powers=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        j=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    def test_honest_answers_match_pow_reference(self, hidden, powers, j, seed):
        # Each answer rebuilt from a fresh copy of the oracle's stream, the
        # draws of the sampling paths TestHonestSamplingStreams pins down,
        # at the sample size the oracle logged.
        target = PlantedTarget(hidden)

        def answer_and_size(query):
            oracle = make_oracle(target, "honest", seed=seed)
            answer = stat_query(oracle, query)
            return answer, oracle.query_log[0].samples

        query = MonomialQuery(
            indices=tuple(range(len(powers))), powers=tuple(powers), label="mono"
        )
        answer, n = answer_and_size(query)
        rng = rng_stream(seed, STREAM_ORACLE)
        coords = SqOracle._sample_monomial_coords(query, target, rng, n)
        want = np.mean(np.clip(pow_monomial_values(coords, query), -1.0, 1.0))
        assert abs(answer - want) <= 1e-15

        u = np.full(D_SMALL, 1.0 / math.sqrt(D_SMALL))
        query = ProjectionQuery(direction=u, fn=_clipped_power(j), label="proj")
        answer, n = answer_and_size(query)
        rng = rng_stream(seed, STREAM_ORACLE)
        proj = SqOracle._sample_projection(query, target, rng, n)
        assert abs(answer - np.mean(pow_clipped_power(j)(proj))) <= 1e-15


class TestHonestSampleSizes:
    """An honest answer draws min(ceil(4 / tau^2), ceil(20 V / tau^2))
    samples, V a certified bound on the query's second moment."""

    D = 50
    TAU = 0.02  # the benchmark's honest tau

    @pytest.fixture(scope="class")
    def hidden50(self, dist5):
        v = np.random.default_rng(5).standard_normal(self.D)
        v /= np.linalg.norm(v)
        return HiddenDirectionDist(d=self.D, v=v, marginal=dist5)

    def algorithms(self, hidden50, seed=7):
        return [
            build_algorithm(
                algo_id, self.D, seed=seed, tau=self.TAU, planted_hint=hidden50
            )
            for algo_id in ("moment-scan", "random-projection-moment", "oracle-v")
        ]

    @staticmethod
    def clip_power(query):
        """j for a query on _clipped_power(j), else None."""
        return next((j for j in range(1, 11) if query.fn is _clipped_power(j)), None)

    def exact_second_moment(self, query, target):
        """E_target[q^2] of the unclamped query, in closed form."""
        if isinstance(query, MonomialQuery):
            doubled = MonomialQuery(
                query.indices, tuple(2 * p for p in query.powers), "doubled"
            )
            if isinstance(target, NullTarget):
                moment = _null_monomial_moment(doubled)
            else:
                moment = _planted_monomial_moment(target, doubled)
            return moment / query.clip_scale**2
        j = self.clip_power(query)
        if isinstance(target, NullTarget):
            return gaussian_moment(2 * j) / CLIP_BASE ** (2 * j)
        # <u, x> has the law of the first coordinate under a hidden direction
        # (c, sqrt(1 - c^2)), c = <u, v>.
        c = float(query.direction @ target.hidden.v)
        v2 = np.array([c, math.sqrt(1.0 - c * c)])
        marginal = target.hidden.marginal
        axis = PlantedTarget(HiddenDirectionDist(d=2, v=v2, marginal=marginal))
        power = MonomialQuery((0,), (2 * j,), "projected")
        return _planted_monomial_moment(axis, power) / CLIP_BASE ** (2 * j)

    def test_bounds_hold_for_every_query(self, hidden50):
        for target in (PlantedTarget(hidden50), NullTarget(self.D)):
            for algo in self.algorithms(hidden50):
                for query in algo.queries:
                    bound = _second_moment_bound(query, target)
                    if query.label == "comb-along-v":
                        assert bound == 1.0  # no closed form
                        continue
                    exact = self.exact_second_moment(query, target)
                    assert 0.0 < exact < 1.0
                    assert exact <= bound <= 1.0, query.label

    def test_sizes_follow_the_rule(self, hidden50):
        cap = math.ceil(4.0 / self.TAU**2)
        for target in (PlantedTarget(hidden50), NullTarget(self.D)):
            sizes = {}
            for algo in self.algorithms(hidden50):
                oracle = SqOracle(target, "honest", tau=self.TAU, seed=3)
                answer_sequence(oracle, algo)
                for query, entry in zip(algo.queries, oracle.query_log):
                    bound = _second_moment_bound(query, target)
                    want = min(cap, math.ceil(20.0 * bound / self.TAU**2))
                    assert entry.samples == want, query.label
                    assert math.isnan(entry.error)
                    if isinstance(query, MonomialQuery):
                        key = ("monomial", query.degree)
                    else:
                        key = ("projection", self.clip_power(query))
                    sizes.setdefault(key, set()).add(entry.samples)
            assert sizes[("monomial", 1)] == sizes[("projection", 1)] == {348}
            for form in ("monomial", "projection"):
                assert max(sizes[(form, 2)]) <= 8
                assert all(sizes[(form, k)] == {1} for k in (3, 4, 5))
            assert sizes[("projection", None)] == {cap}
            adversarial = SqOracle(target, "adversarial", tau=self.TAU)
            answer_sequence(adversarial, self.algorithms(hidden50)[0])
            assert {entry.samples for entry in adversarial.query_log} == {0}

    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "null"])
    def test_query_without_bound_draws_as_before(self, hidden50, planted):
        # A caller's fn, even one equal to a clipped power, has V = 1: it
        # draws ceil(4 / tau^2) samples, and its answer is their mean.
        target = PlantedTarget(hidden50) if planted else NullTarget(self.D)
        n = math.ceil(4.0 / self.TAU**2)
        u = np.full(self.D, 1.0 / math.sqrt(self.D))
        fns = (np.tanh, lambda t: np.clip(np.asarray(t) / CLIP_BASE, -1.0, 1.0))
        for fn in fns:
            query = ProjectionQuery(direction=u, fn=fn, label="own")
            oracle = SqOracle(target, "honest", tau=self.TAU, seed=21)
            answer = stat_query(oracle, query)
            assert oracle.query_log[0].samples == n
            rng = rng_stream(21, STREAM_ORACLE)
            proj = SqOracle._sample_projection(query, target, rng, n)
            assert answer == float(np.mean(np.clip(fn(proj), -1.0, 1.0)))

    def test_calibration_against_exact_expectations(self, hidden50):
        # At most 5% of the answers of each query form and degree may fall
        # outside +-tau of the target expectation.
        rng = np.random.default_rng(321)
        outside: dict = {}
        for trial in range(10):
            v = rng.standard_normal(self.D)
            v /= np.linalg.norm(v)
            hidden = HiddenDirectionDist(d=self.D, v=v, marginal=hidden50.marginal)
            for target in (PlantedTarget(hidden), NullTarget(self.D)):
                for algo in self.algorithms(hidden, seed=400 + trial)[:2]:
                    oracle = SqOracle(target, "honest", tau=self.TAU, seed=500 + trial)
                    answers = answer_sequence(oracle, algo)
                    for query, answer in zip(algo.queries, answers):
                        want, _ = oracle._true_expectation(query, target)
                        if isinstance(query, MonomialQuery):
                            form = ("monomial", query.degree)
                        else:
                            form = ("projection", self.clip_power(query))
                        key = (*form, type(target).__name__)
                        miss = abs(answer - want) > self.TAU
                        outside.setdefault(key, []).append(miss)
        assert len(outside) == 20
        for key, misses in outside.items():
            assert len(misses) >= 30
            assert sum(misses) <= 0.05 * len(misses), key

    def test_oversized_answer_refused_before_any_draw(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew from the stream ({name})")

        oracle = SqOracle(NullTarget(2), "honest", tau=1e-4)
        oracle._rng = NoDraws()
        query = ProjectionQuery(direction=np.array([1.0, 0.0]), fn=np.tanh, label="own")
        with pytest.raises(ValidationError, match=r"tau=0\.0001 needs n=400000000 "):
            stat_query(oracle, query)
        assert oracle.query_count == 0
        # The largest V = 1 answer the cap admits still draws.
        tau = 2.0 / math.sqrt(MAX_HONEST_SAMPLES)
        oracle = SqOracle(NullTarget(2), "honest", tau=tau)
        assert oracle._sample_size(query) == MAX_HONEST_SAMPLES


class TestAnswerPaths:
    D = 50

    @pytest.fixture(scope="class")
    def hidden50(self, dist5):
        v = np.random.default_rng(5).standard_normal(self.D)
        v /= np.linalg.norm(v)
        return HiddenDirectionDist(d=self.D, v=v, marginal=dist5)

    def paths(self, oracle, algo):
        answer_sequence(oracle, algo)
        assert all(entry.seconds > 0.0 for entry in oracle.query_log)
        return {entry.path for entry in oracle.query_log}

    def test_each_query_kind_takes_its_path(self, hidden50):
        def planted():
            return make_oracle(PlantedTarget(hidden50), "adversarial")

        projections = build_algorithm("random-projection-moment", self.D, seed=7, tau=TAU)
        assert self.paths(planted(), projections) == {"series"}
        cheat = build_algorithm("oracle-v", self.D, seed=7, tau=TAU, planted_hint=hidden50)
        assert self.paths(planted(), cheat) == {"quadrature"}
        monomials = build_algorithm("moment-scan", self.D, seed=7, tau=TAU)
        assert self.paths(planted(), monomials) == {"closed-form"}
        null = make_oracle(NullTarget(self.D), "adversarial")
        assert self.paths(null, projections) == {"quadrature"}
        honest = make_oracle(PlantedTarget(hidden50), "honest")
        assert self.paths(honest, monomials) == {"sampled"}

    @pytest.mark.parametrize("kind", ["planted", "null"])
    def test_null_expectation_once_per_function(self, hidden50, monkeypatch, kind):
        # 12 directions x 5 clipped powers share 5 function objects, and
        # their projection tables, whose row 0 is the N(0,1) expectation,
        # are kept for the whole process: a second oracle integrates none of
        # them again.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return panel_integrate_1d(*args, **kwargs)

        monkeypatch.setattr(sq_module, "panel_integrate_1d", counted)
        monkeypatch.setattr(sq_module, "_PROJECTIONS", weakref.WeakKeyDictionary())
        target = PlantedTarget(hidden50) if kind == "planted" else NullTarget(self.D)
        algo = build_algorithm("random-projection-moment", self.D, seed=8, tau=TAU)
        first = make_oracle(target, "adversarial")
        answer_sequence(first, algo)
        assert len(algo.queries) == 60
        assert len(calls) == 5
        second = make_oracle(target, "adversarial", seed=1)
        answer_sequence(second, algo)
        assert len(calls) == 5
        assert [e.answer for e in second.query_log] == [
            e.answer for e in first.query_log
        ]

    def test_comb_table_shared_across_trials(self, hidden50, monkeypatch):
        # Every oracle-v trial of one marginal queries the same comb function
        # object, so only the first null answer integrates its table.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return panel_integrate_1d(*args, **kwargs)

        monkeypatch.setattr(sq_module, "panel_integrate_1d", counted)
        monkeypatch.setattr(sq_module, "_PROJECTIONS", weakref.WeakKeyDictionary())
        answers = []
        for seed in (7, 8):
            cheat = build_algorithm(
                "oracle-v", self.D, seed=seed, tau=TAU, planted_hint=hidden50
            )
            answers += answer_sequence(make_oracle(NullTarget(self.D), "adversarial"), cheat)
        assert len(calls) == 1
        assert answers[0] == answers[1]

    def test_null_answer_is_row_zero_of_the_table(self, hidden50, monkeypatch):
        # A null projection answer is E_N[clip(fn)], row 0 (h_0 = 1) of the
        # function's Hermite projection table, bit for bit, with its error.
        projections = build_algorithm(
            "random-projection-moment", self.D, seed=7, tau=TAU, n_directions=1
        )
        cheat = build_algorithm(
            "oracle-v", self.D, seed=7, tau=TAU, planted_hint=hidden50
        )
        queries = projections.queries + cheat.queries
        oracle = make_oracle(NullTarget(self.D), "adversarial")
        answers = [stat_query(oracle, q) for q in queries]
        monkeypatch.setattr(sq_module, "_PROJECTIONS", weakref.WeakKeyDictionary())
        for query, answer, entry in zip(queries, answers, oracle.query_log):
            table, errors = sq_module._hermite_projections(
                query, lambda t, fn=query.fn: np.clip(fn(t), -1.0, 1.0), 0
            )
            assert answer == table[0]
            assert entry.error == errors[0]

    def test_error_estimates_by_path(self, hidden50):
        # The target expectation's error: the integrator's estimate (plus
        # the series tail), 0 for closed forms, NaN when sampled.
        def errors(target, mode, algo):
            oracle = make_oracle(target, mode)
            answer_sequence(oracle, algo)
            return [entry.error for entry in oracle.query_log]

        planted = PlantedTarget(hidden50)
        projections = build_algorithm(
            "random-projection-moment", self.D, seed=7, tau=TAU, n_directions=2
        )
        series = errors(planted, "adversarial", projections)
        assert all(SERIES_TAIL <= e <= SERIES_TAIL + 1e-10 for e in series)
        quadrature = errors(NullTarget(self.D), "adversarial", projections)
        assert all(0.0 <= e <= 1e-11 for e in quadrature)
        cheat = build_algorithm(
            "oracle-v", self.D, seed=7, tau=TAU, planted_hint=hidden50
        )
        (comb,) = errors(planted, "adversarial", cheat)
        assert 0.0 <= comb <= 1e-10
        monomials = build_algorithm("moment-scan", self.D, seed=7, tau=TAU)
        assert set(errors(planted, "adversarial", monomials)) == {0.0}
        assert all(math.isnan(e) for e in errors(planted, "honest", monomials))

    def test_comb_answers_are_certified(self, hidden50):
        # The indicator's jumps at comb +- window are panel breaks, so both
        # answers land within their logged error of exact references.
        cheat = build_algorithm(
            "oracle-v", self.D, seed=7, tau=TAU, planted_hint=hidden50
        )
        (query,) = cheat.queries
        null = make_oracle(NullTarget(self.D), "adversarial")
        answer = stat_query(null, query)
        # The reference is the exact Gaussian mass of the union of intervals;
        # the logged error includes the panel sum's rounding floor.
        (ref,) = cheat.references
        assert abs(answer - ref) <= null.query_log[0].error

        planted = make_oracle(PlantedTarget(hidden50), "adversarial")
        value, path = planted._true_expectation(query, planted._target)
        stat_query(planted, query)
        assert path == "quadrature"
        assert planted.query_log[0].error == value.error
        half = len(query.jumps) // 2
        merged: list[list[float]] = []
        for lo, hi in sorted(zip(query.jumps[:half], query.jumps[half:])):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        law = hidden50.marginal.projected(1.0)
        want, want_err = 0.0, 0.0
        for lo, hi in merged:
            inner = [b for b in law.panel_breaks() if lo < b < hi]
            part, err = panel_integrate_1d(law.density, [lo, *inner, hi], 1e-13)
            want, want_err = want + part, want_err + err
        assert abs(value - want) <= value.error + want_err
        # Without breaks at the jumps the estimate stalls near the 1e-10
        # tolerance while bisection chases each jump.
        assert value.error <= 1e-13

    def test_projection_tables_shared_across_oracles(self, hidden50, monkeypatch):
        # Fresh function objects, so no earlier test has tabulated them.
        from momentforge import sq as sq_module

        tables = []
        original = sq_module.panel_integrate_1d

        def counted(f, *args):
            value, err = original(f, *args)
            if np.ndim(value) == 1:
                tables.append(f)
            return value, err

        monkeypatch.setattr(sq_module, "panel_integrate_1d", counted)
        fns = [lambda t, j=j: np.clip(t**j / 8.0**j, -1.0, 1.0) for j in (2, 3)]
        w = np.random.default_rng(9).standard_normal(self.D)
        w -= (w @ hidden50.v) * hidden50.v
        w /= np.linalg.norm(w)

        def ask(cosine):
            u = cosine * hidden50.v + math.sqrt(1.0 - cosine * cosine) * w
            oracle = make_oracle(PlantedTarget(hidden50), "adversarial")
            queries = [ProjectionQuery(direction=u, fn=fn, label="q") for fn in fns]
            return [oracle._true_expectation(q, oracle._target)[0] for q in queries]

        first = ask(0.3)
        assert ask(0.2) != first
        assert len(tables) == len(fns)  # one block of rows each
        ask(0.9)  # needs more rows, in further blocks
        assert ask(0.3) == first

    def test_function_without_weak_reference(self, hidden50):
        # A ufunc cannot key the shared table; its projections are made per
        # answer instead.
        u = np.random.default_rng(3).standard_normal(self.D)
        u /= np.linalg.norm(u)
        query = ProjectionQuery(direction=u, fn=np.tanh, label="tanh")
        oracle = make_oracle(PlantedTarget(hidden50), "adversarial")
        value, path = oracle._true_expectation(query, oracle._target)
        assert path == "series"
        law = hidden50.marginal.projected(float(u @ hidden50.v))
        assert value == pytest.approx(law.expectation(np.tanh), abs=1e-10)
        # Nor the N(0,1) expectation table.
        null = make_oracle(NullTarget(self.D), "adversarial")
        value, path = null._true_expectation(query, null._target)
        assert path == "quadrature"
        assert abs(value) <= value.error


class TestConcurrentTrials:
    """Honest trials are answered on a thread pool, with every output equal
    to a serial loop's; adversarial trials stay on the calling thread."""

    TAU = 0.05  # 1,600 draws an answer
    TRIALS = 30
    SEED = 41

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        """Four workers, more than this host may have cores, switching
        threads far more often than usual."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.fixture
    def answer_threads(self, monkeypatch):
        """Identities of the threads that answer a trial's queries."""
        threads = set()
        real = sq_module.answer_sequence

        def recorded(oracle, algorithm):
            threads.add(threading.get_ident())
            return real(oracle, algorithm)

        monkeypatch.setattr(sq_module, "answer_sequence", recorded)
        return threads

    def factory(self, dist5, mode, made=None):
        """Trial oracles; made, if given, collects (kind, trial, thread,
        oracle) per call.  mode(trial) gives the trial's oracle mode."""

        def make(kind, trial):
            v = np.random.default_rng(500 + trial).standard_normal(D_SMALL)
            v /= np.linalg.norm(v)
            hd = HiddenDirectionDist(d=D_SMALL, v=v, marginal=dist5)
            target = PlantedTarget(hd) if kind == "planted" else NullTarget(D_SMALL)
            oracle = SqOracle(target, mode(trial), tau=self.TAU, seed=600 + 31 * trial)
            if made is not None:
                made.append((kind, trial, threading.get_ident(), oracle))
            return oracle, hd

        return make

    def run(self, algo_id, factory):
        return run_distinguisher(
            algo_id, factory, self.TRIALS, self.SEED, tau=self.TAU
        )

    @pytest.mark.parametrize(
        "algo_id", ["moment-scan", "random-projection-moment", "oracle-v"]
    )
    def test_honest_pool_matches_serial_loop(
        self, dist5, four_cpus, answer_threads, algo_id
    ):
        honest = self.factory(dist5, lambda trial: "honest")
        truths, decisions, queries_used, oracles = serial_distinguisher(
            algo_id, honest, self.TRIALS, self.SEED, tau=self.TAU
        )
        made = []
        result = self.run(algo_id, self.factory(dist5, lambda trial: "honest", made))
        assert threading.get_ident() not in answer_threads
        assert result.truths == truths
        assert result.decisions == decisions
        assert result.queries_used == queries_used
        logs = [[e.answer for e in oracle.query_log] for *_, oracle in made]
        assert logs == [[e.answer for e in oracle.query_log] for oracle in oracles]

    def test_workers_fill_a_fresh_marginals_moments(self, dist5, four_cpus):
        # Honest oracles size their samples from the marginal's kept
        # moments, which trials sharing a fresh marginal fill concurrently.
        def honest(trial):
            return "honest"

        serial, pooled = (PushforwardDist(dist5.inst, dist5.sigma) for _ in range(2))
        _, decisions, _, oracles = serial_distinguisher(
            "moment-scan", self.factory(serial, honest), self.TRIALS, self.SEED,
            tau=self.TAU,
        )
        made = []
        result = self.run("moment-scan", self.factory(pooled, honest, made))
        assert result.decisions == decisions
        assert pooled._moments == serial._moments

        def logs(oracles):
            return [[(e.samples, e.answer) for e in o.query_log] for o in oracles]

        assert logs(oracle for *_, oracle in made) == logs(oracles)

    def test_factory_runs_in_trial_order_on_calling_thread(self, dist5, four_cpus):
        made = []
        self.run("oracle-v", self.factory(dist5, lambda trial: "honest", made))
        calls = [(kind, trial) for kind, trial, *_ in made]
        assert calls == [
            ("planted" if trial % 2 == 0 else "null", trial)
            for trial in range(self.TRIALS)
        ]
        assert {thread for _, _, thread, _ in made} == {threading.get_ident()}

    @pytest.mark.parametrize("adversarial", [range(30), [3]], ids=["all", "one"])
    def test_adversarial_trials_stay_serial(
        self, dist5, four_cpus, answer_threads, adversarial
    ):
        def mode(trial):
            return "adversarial" if trial in adversarial else "honest"

        self.run("moment-scan", self.factory(dist5, mode))
        assert answer_threads == {threading.get_ident()}

    def test_error_in_a_trial_reaches_the_caller(self, dist5, four_cpus):
        honest = self.factory(dist5, lambda trial: "honest")

        def failing(kind, trial):
            oracle, hd = honest(kind, trial)
            if trial in (7, 20):

                def fail(query, n):
                    raise ValidationError(f"trial {trial} cannot answer")

                oracle._honest_values = fail
            return oracle, hd

        with pytest.raises(ValidationError, match="trial 7 cannot answer"):
            self.run("moment-scan", failing)

    def test_cli_output_does_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        instance = tmp_path / "m5.json"
        assert main(["build", "--out", str(instance)]) == 0
        outputs = []
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"sq-{len(cpus)}.json"
            argv = ["distinguish", str(instance), "--mode", "honest",
                    "--tau", str(self.TAU), "--trials", str(self.TRIALS),
                    "--d", str(D_SMALL), "--seed", "7", "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        def fail(self, query, n):
            raise ValidationError("cannot answer")

        monkeypatch.setattr(SqOracle, "_honest_values", fail)
        assert main(argv) == 2
