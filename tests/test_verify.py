"""Divergence estimates, Wasserstein checks, and the full report."""

import math

import numpy as np
import pytest
from oracles import meshgrid_correlation

from momentforge import (
    PushforwardDist,
    QuadratureError,
    ValidationError,
    VerifyConfig,
    chi_squared_vs_gaussian,
    compile_instance,
    distance_to_support,
    pairwise_correlation,
    sample_marginal,
    tv_hidden_pair,
    verify_instance,
    w1_empirical,
)
from momentforge import verify as verify_module
from momentforge.distributions import STREAM_SUPPORT, rng_stream


@pytest.fixture(scope="module")
def chi5(dist5):
    return chi_squared_vs_gaussian(dist5)


class TestChiSquared:
    def test_identity_marginal_is_zero(self):
        result = chi_squared_vs_gaussian(PushforwardDist.gaussian(0.05))
        assert abs(result.value) <= 1e-8

    def test_positive_and_finite(self, chi5):
        assert 0.0 < chi5.value < math.inf
        assert chi5.reference > 0.0

    def test_importance_sampling_cross_check(self, dist5, chi5):
        # chi^2 + 1 = E_{x ~ D'}[D'(x) / gaussian(x)], by Monte Carlo.
        n = 2_000_000
        x = sample_marginal(dist5, n, seed=909)
        ratios = dist5.density(x) * math.sqrt(2 * math.pi) * np.exp(x * x / 2.0)
        estimate = float(np.mean(ratios)) - 1.0
        assert estimate == pytest.approx(chi5.value, rel=0.05)

    def test_sigma_domain(self, build5):
        _, evolved, _ = build5
        with pytest.raises(ValidationError):
            chi_squared_vs_gaussian(PushforwardDist.from_instance(evolved, 0.0))
        with pytest.raises(ValidationError):
            chi_squared_vs_gaussian(PushforwardDist.from_instance(evolved, 0.9))


class TestPairwiseCorrelation:
    def test_zero_cosine_factorizes(self, dist5):
        assert abs(pairwise_correlation(dist5, 0.0, tol_abs=1e-8)) <= 1e-8

    def test_even_in_cosine(self, dist5):
        plus = pairwise_correlation(dist5, 0.1, tol_abs=1e-7)
        minus = pairwise_correlation(dist5, -0.1, tol_abs=1e-7)
        assert abs(plus - minus) <= 2e-6

    def test_near_unit_cosine_approaches_chi_squared(self, dist5, chi5):
        # The comb carries Hermite mass up to degree ~1/sigma^2, so the p = q
        # limit converges at rate cosine^(1/sigma^2): cosine must be much
        # closer to 1 than 0.999 before the 2% band is reached.
        near = pairwise_correlation(dist5, 0.99999, tol_abs=5e-3)
        assert near == pytest.approx(chi5.value, rel=0.02)
        approaching = pairwise_correlation(dist5, 0.999, tol_abs=5e-3)
        assert 0.75 * chi5.value < approaching <= chi5.value * (1 + 1e-6)

    def test_decay_bound_at_small_cosines(self, dist5, chi5):
        for cosine in (0.05, 0.1, 0.2):
            value = pairwise_correlation(dist5, cosine, tol_abs=2e-8)
            bound = cosine ** (dist5.inst.m + 1) * chi5.value + 1e-8
            assert value <= bound

    def test_cosine_domain(self, dist5):
        with pytest.raises(ValidationError):
            pairwise_correlation(dist5, 1.0)

    @pytest.mark.parametrize("cosine", [0.05, 0.5])
    def test_agrees_with_meshgrid_oracle(self, dist5, cosine):
        # Axis-node densities broadcast against the grid kernel must give the
        # value of the integrand evaluated point by point on the full grid.
        tol = 2e-8
        want = meshgrid_correlation(dist5, cosine, verify_module._plane_breaks(dist5), tol)
        assert pairwise_correlation(dist5, cosine, tol_abs=tol) == pytest.approx(
            want, abs=tol
        )


class TestTvHiddenPair:
    def test_identity_marginal_no_separation(self):
        gauss = PushforwardDist.gaussian(0.05)
        for cosine in (0.3, 0.0):
            assert abs(tv_hidden_pair(gauss, cosine, tol_abs=1e-4)) <= 2e-4

    def test_separation_bound(self, dist5):
        tv = tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        sigma = dist5.sigma
        bound = 1.0 - 2.0 * sigma * math.log(1.0 / sigma) - 0.05
        assert tv >= bound
        assert tv <= 1.0

    def test_monotonicity_spot_check(self, dist5):
        tv_small = tv_hidden_pair(dist5, 0.1, tol_abs=1e-4)
        tv_half = tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        assert tv_small >= tv_half - 0.05

    def test_cosine_domain(self, dist5):
        with pytest.raises(ValidationError):
            tv_hidden_pair(dist5, 1.0)
        with pytest.raises(ValidationError):
            tv_hidden_pair(dist5, -1.2)


class TestW1Empirical:
    def test_identical_samples(self, rng):
        x = rng.standard_normal(1000)
        assert w1_empirical(x, x.copy()) == 0.0

    def test_translation(self, rng):
        x = rng.standard_normal(1000)
        assert w1_empirical(x, x + 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_unequal_lengths(self, rng):
        x = rng.standard_normal(2000)
        y = rng.standard_normal(1500) + 0.5
        val = w1_empirical(x, y)
        assert val == pytest.approx(0.5, abs=0.1)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a = rng.standard_normal(2000)
            b = rng.standard_normal(2000) * 1.3
            c = rng.standard_normal(2000) + 0.7
            ab, bc, ac = w1_empirical(a, b), w1_empirical(b, c), w1_empirical(a, c)
            assert ac <= ab + bc + 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            w1_empirical([], [1.0])

    def test_flow_distance_budget(self, build5):
        initial, evolved, trace = build5
        n = 200_000
        d0 = PushforwardDist.from_instance(initial, 0.0)
        dt = PushforwardDist.from_instance(evolved, 0.0)
        w1 = w1_empirical(d0.sample(n, 1), dt.sample(n, 2))
        height_drift = float(np.max(np.abs(evolved.heights() - initial.heights())))
        horizon = evolved.eps - initial.eps
        assert w1 <= height_drift + 3.0 * evolved.m * horizon


class TestDistanceToSupport:
    def test_aligned_ramp_free_matches_gap_mass(self, build5):
        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, 0.0)
        result = distance_to_support(dist, 1.0, 100_000, seed=31)
        # Only the zero atom (gap mass) plus tiny ramp mass sits far from
        # the height comb when the projection is perfectly aligned.
        assert result.exceedance_probability == pytest.approx(
            evolved.gap_mass, abs=0.01
        )

    def test_tilted_projection_escapes_comb(self, build5):
        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, 0.01)
        result = distance_to_support(dist, 0.5, 100_000, seed=32)
        assert result.threshold == pytest.approx(0.1 / math.sqrt(5), rel=1e-12)
        assert result.exceedance_probability >= 0.2
        assert result.w1_lower_bound == pytest.approx(
            result.exceedance_probability * result.threshold, rel=1e-12
        )

    def test_identity_marginal_rejected(self):
        with pytest.raises(ValidationError):
            distance_to_support(PushforwardDist.gaussian(0.05), 0.5, 10, seed=1)

    def test_projection_rebuilt_by_hand(self, build5):
        # Marginal draws from the support stream, then the orthogonal normals
        # from their own stream, combined as cos * s + sin * y.
        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, 0.01)
        n, seed, cosine = 4096, 33, 0.5
        result = distance_to_support(dist, cosine, n, seed=seed)
        s = dist.sample(n, seed, stream=STREAM_SUPPORT)
        y = rng_stream(seed, STREAM_SUPPORT + 0x100).standard_normal(n)
        proj = cosine * s + math.sqrt(1.0 - cosine * cosine) * y
        comb = dist.scale * evolved.heights()
        far = np.min(np.abs(proj[:, None] - comb[None, :]), axis=1) > result.threshold
        assert result.exceedance_probability == float(np.mean(far))

    def test_lower_bound_below_projected_w1(self, build5, rng):
        # The exceedance bound must sit below the empirical W1 between the
        # projections of the two hidden-direction laws onto v.
        _, evolved, _ = build5
        import numpy as np

        from momentforge import HiddenDirectionDist, sample_hidden

        dist = PushforwardDist.from_instance(evolved, 0.01)
        cosine = 0.5
        result = distance_to_support(dist, cosine, 100_000, seed=61)
        d = 8
        v = np.zeros(d)
        v[0] = 1.0
        vp = np.zeros(d)
        vp[0], vp[1] = cosine, math.sqrt(1 - cosine**2)
        n = 100_000
        proj_v = sample_hidden(
            HiddenDirectionDist(d=d, v=v, marginal=dist), n, seed=62
        ) @ v
        proj_vp = sample_hidden(
            HiddenDirectionDist(d=d, v=vp, marginal=dist), n, seed=63
        ) @ v
        assert result.w1_lower_bound <= w1_empirical(proj_v, proj_vp) + 0.01


class TestVerifyInstance:
    def test_full_report_passes(self, build5):
        initial, evolved, trace = build5
        config = VerifyConfig(w1_samples=200_000, support_samples=50_000)
        report = verify_instance(
            initial, evolved, compile_instance(evolved), config, trace=trace
        )
        assert not report.errors
        assert report.all_passed()
        assert len(report.moment_errors) == evolved.m
        assert all(err < config.nu for err in report.moment_errors)
        assert report.chi_squared is not None and report.chi_squared.value > 0
        assert all(c.passed for c in report.pairwise_corr)
        assert all(c.passed for c in report.tv_separation)
        assert report.vandermonde is not None and report.vandermonde.satisfied
        assert report.sigma_min_summary["min"] > 0
        assert report.w1_flow_passed
        for check in report.pairwise_corr + report.tv_separation:
            assert 0.0 < check.error_estimate < check.margin
        assert len(report.hermite_coefficients) == evolved.m + 1
        assert abs(report.hermite_coefficients[-1]) > 1e-4

    def test_a_pass_must_survive_the_error(self, build5, monkeypatch):
        # A value under its bound fails once its error reaches the margin.
        def uncertain(*args, **kwargs):
            return verify_module.Estimate(0.0, 1.0)

        monkeypatch.setattr(verify_module, "pairwise_correlation", uncertain)
        initial, evolved, trace = build5
        config = VerifyConfig(
            correlation_cosines=(0.1,),
            tv_cosines=(),
            w1_samples=50_000,
            support_samples=20_000,
        )
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        (check,) = report.pairwise_corr
        assert check.margin > 0.0
        assert check.error_estimate >= 1.0
        assert not check.passed
        assert not report.all_passed()

    def test_report_echoes_config(self, build5):
        initial, evolved, trace = build5
        config = VerifyConfig(
            correlation_cosines=(0.1,),
            tv_cosines=(0.5,),
            w1_samples=50_000,
            support_samples=20_000,
        )
        report = verify_instance(
            initial, evolved, compile_instance(evolved), config, trace=trace
        )
        assert report.config is config
        assert [c.cosine for c in report.pairwise_corr] == [0.1]

    @pytest.mark.parametrize(
        "exc", [QuadratureError(achieved=1e-3, target=2e-8), TypeError("bug")]
    )
    def test_guards_and_bugs_propagate(self, build5, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(verify_module, "pairwise_correlation", failing)
        initial, evolved, trace = build5
        config = VerifyConfig(correlation_cosines=(0.1,), tv_cosines=())
        with pytest.raises(type(exc)):
            verify_instance(initial, evolved, compile_instance(evolved), config)

    def test_validation_errors_are_recorded(self, build5, monkeypatch):
        def failing(*args, **kwargs):
            raise ValidationError("rejected input")

        monkeypatch.setattr(verify_module, "pairwise_correlation", failing)
        initial, evolved, trace = build5
        config = VerifyConfig(
            correlation_cosines=(0.1,),
            tv_cosines=(),
            w1_samples=50_000,
            support_samples=20_000,
        )
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        assert report.errors == ["pairwise correlation at 0.1: rejected input"]
        assert not report.all_passed()
        assert report.vandermonde is not None
