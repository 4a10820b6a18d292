"""STAT/VSTAT oracle contracts and the distinguisher experiments."""

import math

import numpy as np
import pytest

from momentforge import (
    HiddenDirectionDist,
    MonomialQuery,
    NullTarget,
    PlantedTarget,
    ProjectionQuery,
    SqOracle,
    ValidationError,
    instance_eval,
    run_distinguisher,
    stat_query,
    vstat_query,
)
from momentforge.distributions import STREAM_ORACLE, rng_stream
from momentforge.gaussian import gaussian_moment
from momentforge.sq import CLIP_BASE, Algorithm, answer_sequence, build_algorithm

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
        with pytest.raises(ValidationError):
            SqOracle(PlantedTarget(hidden), "honest")
        with pytest.raises(ValidationError):
            SqOracle(PlantedTarget(hidden), "honest", tau=0.1, t=100)

    def test_unregistered_adversarial_query_needs_budget(self, hidden):
        generic = lambda x: np.clip(x[:, 0] * x[:, 1], -1, 1)  # noqa: E731
        oracle = make_oracle(PlantedTarget(hidden), "adversarial")
        with pytest.raises(ValidationError):
            stat_query(oracle, generic)

    def test_fallback_budget_is_deterministic_across_targets(self, hidden):
        def generic(x):
            return np.clip(np.sin(x[:, 0]) * x[:, 1] ** 2 / 4.0, -1, 1)

        generic.label = "generic:sin-x0-x1sq"
        a = stat_query(
            make_oracle(PlantedTarget(hidden), "adversarial", seed=1, fallback_samples=200_000),
            generic,
        )
        b = stat_query(
            make_oracle(NullTarget(D_SMALL), "adversarial", seed=2, fallback_samples=200_000),
            generic,
        )
        assert a == b  # both round to the label-keyed null estimate


class TestVstatQuery:
    def test_zero_query(self, hidden):
        query = e1_query(lambda t: np.zeros_like(np.asarray(t, dtype=float)), "zero")
        oracle = SqOracle(PlantedTarget(hidden), "honest", t=1000.0, seed=4)
        assert vstat_query(oracle, query) == 0.0

    def test_halfspace_indicator(self):
        query = e1_query(
            lambda t: (np.asarray(t) > 0.0).astype(float), "halfspace"
        )
        oracle = SqOracle(NullTarget(D_SMALL), "honest", t=2000.0, seed=5)
        answer = vstat_query(oracle, query)
        tol = oracle.query_log[-1].tolerance
        assert abs(answer - 0.5) <= tol

    def test_variance_dependent_tolerance(self):
        # Bernoulli-like query with E f = p: tolerance max(1/t, sqrt(p(1-p)/t)).
        p = 0.2
        threshold = -0.8416212335729143  # quantile(0.2)
        query = e1_query(lambda t: (np.asarray(t) <= threshold).astype(float), "q20")
        t_param = 5000.0
        oracle = SqOracle(NullTarget(D_SMALL), "honest", t=t_param, seed=6)
        vstat_query(oracle, query)
        want = max(1.0 / t_param, math.sqrt(p * (1 - p) / t_param))
        assert oracle.query_log[-1].tolerance == pytest.approx(want, rel=0.15)

    def test_adversarial_vstat_projection(self, hidden):
        query = e1_query(lambda t: (np.abs(np.asarray(t)) < 1.0).astype(float), "band")
        o_p = SqOracle(PlantedTarget(hidden), "adversarial", t=10_000.0)
        o_n = SqOracle(NullTarget(D_SMALL), "adversarial", t=10_000.0)
        a_p = vstat_query(o_p, query)
        a_n = vstat_query(o_n, query)
        # Band mass differs between comb and Gaussian by much more than tau,
        # so the adversarial answer moves toward but cannot reach the null.
        assert a_p != a_n
        assert abs(a_p - a_n) < abs(
            o_p.query_log[-1].answer - 0.6826894921370859
        ) + 2 * o_p.query_log[-1].tolerance

    def test_wrong_interface_rejected(self, hidden):
        stat_oracle = make_oracle(PlantedTarget(hidden), "honest")
        with pytest.raises(ValidationError):
            vstat_query(stat_oracle, e1_query(lambda t: t, "x"))


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
        x = hidden.sample(n, seed=80)
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

    def test_generic_callable_path(self, planted):
        hidden = planted.hidden
        got = SqOracle._sample_full(
            planted, make_oracle(planted, "honest", seed=self.SEED)._rng, self.N
        )

        rng = rng_stream(self.SEED, STREAM_ORACLE)
        s = self.marginal_draws(rng, hidden.marginal)
        g = rng.standard_normal((self.N, D_SMALL))
        want = g - np.outer(g @ hidden.v, hidden.v) + np.outer(s, hidden.v)
        assert np.array_equal(got, want)


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
        # 12 directions x 5 clipped powers share 5 function objects.
        from momentforge import sq as sq_module

        calls = []
        original = sq_module._gaussian_expectation

        def counted(fn, *args):
            calls.append(fn)
            return original(fn, *args)

        monkeypatch.setattr(sq_module, "_gaussian_expectation", counted)
        target = PlantedTarget(hidden50) if kind == "planted" else NullTarget(self.D)
        algo = build_algorithm("random-projection-moment", self.D, seed=8, tau=TAU)
        answer_sequence(make_oracle(target, "adversarial"), algo)
        assert len(algo.queries) == 60
        assert len(calls) == 5

    def test_labelled_queries_skip_repr(self, hidden):
        class Labelled:
            label = "generic:x0/4"

            def __call__(self, x):
                return np.clip(x[:, 0] / 4.0, -1, 1)

            def __repr__(self):
                raise AssertionError("repr of a labelled query")

        for mode in ("adversarial", "honest"):
            oracle = make_oracle(
                PlantedTarget(hidden), mode, fallback_samples=1000
            )
            stat_query(oracle, Labelled())
            entry = oracle.query_log[-1]
            assert entry.label == "generic:x0/4"
            assert entry.path == ("fallback" if mode == "adversarial" else "sampled")
