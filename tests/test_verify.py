"""Divergence estimates, Wasserstein distances, and the full report."""

import math
import threading

import numpy as np
import pytest
from oracles import kernel_pair_tv, meshgrid_correlation, per_row_tv

from momentforge import (
    NumericGuardError,
    PushforwardDist,
    QuadratureError,
    ValidationError,
    VerifyConfig,
    chi_squared_vs_gaussian,
    compile_instance,
    distance_to_support,
    gaussian_density,
    pairwise_correlation,
    tv_hidden_pair,
    verify_instance,
    w1_empirical,
    w1_instances,
)
from momentforge import verify as verify_module
from momentforge.bumps import instance_eval
from momentforge.distributions import STREAM_SUPPORT, ProjectedLaw, rng_stream


@pytest.fixture(scope="module")
def chi5(dist5):
    return chi_squared_vs_gaussian(dist5)


class TestChiSquared:
    def test_positive_and_finite(self, chi5):
        assert 0.0 < chi5.value < math.inf
        assert chi5.reference > 0.0

    def test_importance_sampling_cross_check(self, dist5, chi5):
        # chi^2 + 1 = E_{x ~ D'}[D'(x) / gaussian(x)], by Monte Carlo.
        n = 2_000_000
        x = dist5.sample(n, seed=909)
        ratios = dist5.density(x) * math.sqrt(2 * math.pi) * np.exp(x * x / 2.0)
        estimate = float(np.mean(ratios)) - 1.0
        assert estimate == pytest.approx(chi5.value, rel=0.05)

    def test_ratio_overflow_guarded(self, dist5, monkeypatch):
        # 1/phi(x) overflows past |x| = 37.68, and D^2 * inf would be NaN.
        monkeypatch.setattr(
            verify_module, "_plane_breaks", lambda dist: np.array([-40.0, 40.0])
        )
        with pytest.raises(NumericGuardError, match="overflows past 37.68"):
            chi_squared_vs_gaussian(dist5)

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
    def test_separation_bound(self, dist5):
        tv = tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        sigma = dist5.sigma
        bound = 1.0 - 2.0 * sigma * math.log(1.0 / sigma) - 0.05
        assert tv >= bound
        assert tv <= 1.0

    def test_axis_densities_shared_across_panels(self, dist5, monkeypatch):
        # The m=5 plane starts with 66 x 66 panels; a row of panels shares
        # one density evaluation per axis and order, so the count stays far
        # below two per panel.
        calls = []
        density = ProjectedLaw.density

        def counted(self, x):
            calls.append(np.size(x))
            return density(self, x)

        monkeypatch.setattr(ProjectedLaw, "density", counted)
        tv = tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        assert len(calls) <= 1000
        assert float(tv) == pytest.approx(0.8815742493526485, rel=1e-15)
        assert tv.error == pytest.approx(8.531840258803729e-05, rel=1e-15)

    @pytest.mark.parametrize("marginal, cosine", [("m5", 0.1), ("m5", 0.5)])
    def test_bit_equal_to_per_row_densities(self, dist5, marginal, cosine):
        breaks = verify_module._plane_breaks(dist5)
        value, error = per_row_tv(dist5, cosine, breaks, 1e-4)
        tv = tv_hidden_pair(dist5, cosine, tol_abs=1e-4)
        assert float(tv) == value
        assert tv.error == error

    @pytest.mark.parametrize(
        "marginal, sigma, cosine",
        [("m5", sigma, cosine) for sigma in (0.05, 0.01) for cosine in (-0.5, 0.1, 0.5, 0.9)],
    )
    def test_agrees_with_kernel_pair_form(self, build5, marginal, sigma, cosine):
        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, sigma)
        breaks = verify_module._plane_breaks(dist)
        value, error = kernel_pair_tv(dist, cosine, breaks, 1e-4)
        tv = tv_hidden_pair(dist, cosine, tol_abs=1e-4)
        assert abs(float(tv) - value) <= 1e-15
        if error < 1e-8:
            assert abs(tv.error - error) <= 1e-15
        else:
            assert tv.error == pytest.approx(error, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cosine", [-0.9, 0.1, 0.5])
    def test_likelihood_ratio_times_bivariate_normal_is_each_plane_density(
        self, dist5, cosine
    ):
        # P_v's plane density is D(x) phi(y) / s with y = (x' - c x) / s and
        # P_v''s is D(x') phi(y') / s with y' = (x - c x') / s; each equals
        # L(x) or L(x') times phi_2(x, x'; c), so their minimum is
        # min(L(x), L(x')) phi_2, the integrand of tv_hidden_pair.
        s = math.sin(math.acos(cosine))
        t = np.linspace(-4.0, 4.0, 50)
        x, xp = t[:, None], t[None, :]
        dens = dist5.density(t)
        ratio = dens / gaussian_density(t)
        phi2 = np.exp(-(x * x - 2.0 * cosine * x * xp + xp * xp) / (2.0 * s * s)) / (
            2.0 * math.pi * s
        )
        first = dens[:, None] * gaussian_density((xp - cosine * x) / s) / s
        second = dens[None, :] * gaussian_density((x - cosine * xp) / s) / s
        np.testing.assert_allclose(ratio[:, None] * phi2, first, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(ratio[None, :] * phi2, second, rtol=1e-13, atol=0.0)

    def test_ratio_overflow_guarded(self, dist5, monkeypatch):
        # exp(t^2 / 2) is inf past |t| = 37.68, and D(t) * inf would be NaN.
        monkeypatch.setattr(
            verify_module, "_plane_breaks", lambda dist: np.array([-40.0, 40.0])
        )
        with pytest.raises(NumericGuardError, match="overflows past 37.68"):
            tv_hidden_pair(dist5, 0.5)

    def test_last_axis_density_once_per_sweep_and_order(self, dist5, monkeypatch):
        # Every row of one order in a sweep shares one last-axis node array;
        # the coarse and the fine array of a sweep each get one density call,
        # and every other call is a row's leading-axis nodes.
        tails, leading, density_args = [], [], []
        integrate_2d = verify_module.panel_integrate_2d
        density = ProjectedLaw.density

        def recording_2d(f, *args, **kwargs):
            def integrand(gx, gxp):
                if not tails or tails[-1] is not gxp:
                    tails.append(gxp)
                leading.append(gx)
                return f(gx, gxp)

            return integrate_2d(integrand, *args, **kwargs)

        def counted(self, x):
            density_args.append(x)
            return density(self, x)

        monkeypatch.setattr(verify_module, "panel_integrate_2d", recording_2d)
        monkeypatch.setattr(ProjectedLaw, "density", counted)
        tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        assert len({id(t) for t in tails}) == len(tails)
        assert len(tails) % 2 == 0 and len(tails) >= 4
        for coarse, fine in zip(tails[::2], tails[1::2]):
            assert fine.size == 2 * coarse.size
        on_tails = [x for x in density_args if any(x is t for t in tails)]
        on_leading = [x for x in density_args if any(x is g for g in leading)]
        assert len(on_tails) == len(tails)
        assert len(on_leading) == len(leading)
        assert len(density_args) == len(tails) + len(leading)

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

    @pytest.mark.parametrize("n", [1, 2, 1001])
    def test_sorted_difference_bit_equal_and_inputs_kept(self, rng, n):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) * 1.3 + 0.2
        a_before, b_before = a.copy(), b.copy()
        want = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
        assert w1_empirical(a, b) == want
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

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


class TestLawCdf:
    @pytest.mark.parametrize(
        "ramp, zero_first",
        [(None, False), (0.0, False), (0.05, False), (0.05, True)],
        ids=["evolved", "ramp-free", "wide", "zero-height"],
    )
    def test_matches_empirical_cdf(self, build5, ramp, zero_first):
        # At every height (both signs), at 0 and on a grid across them, the
        # exact CDF sits within 5 binomial standard errors of the empirical
        # CDF of f(g).
        _, evolved, _ = build5
        inst = evolved
        if ramp is not None:
            left = evolved.left_heights()
            if zero_first:
                left = np.concatenate(([0.0], left[1:]))
            inst = evolved.with_state(left, ramp)
        n = 400_000
        values = np.sort(instance_eval(inst, np.random.default_rng(515).standard_normal(n)))
        levels = np.unique(np.concatenate(([0.0], inst.heights())))
        ts = np.concatenate(
            (levels, np.linspace(levels[0] - 0.5, levels[-1] + 0.5, 41))
        )
        want = np.searchsorted(values, ts, side="right") / n
        law = PushforwardDist.from_instance(inst, 0.0).law
        got = law.cdf(ts)
        spread = np.sqrt(np.clip(got * (1.0 - got), 0.0, None) / n)
        assert np.all(np.abs(got - want) <= 5.0 * spread + 1e-12)
        assert law.cdf(float(levels[0])) == got[0]

    def test_refuses_a_smoothed_law(self, build5):
        _, evolved, _ = build5
        with pytest.raises(ValidationError, match="zero noise width"):
            PushforwardDist.from_instance(evolved, 0.05).law.cdf(0.0)


class TestW1Instances:
    def test_self_distance_is_zero(self, build5):
        _, evolved, _ = build5
        w1 = w1_instances(evolved, evolved)
        assert float(w1) == 0.0
        assert 0.0 < w1.error <= 1e-12

    def test_symmetric(self, build5):
        initial, evolved, _ = build5
        ab, ba = w1_instances(initial, evolved), w1_instances(evolved, initial)
        assert float(ab) == float(ba)
        assert ab.error == ba.error

    @pytest.mark.parametrize("delta", [0.01, -0.02])
    def test_ramp_free_height_shift(self, build5, delta):
        # Moving h_0 by delta (and its mirror by -delta) with no crossing
        # moves two plateau masses by |delta| each.
        _, evolved, _ = build5
        left = evolved.left_heights()
        base = evolved.with_state(left, 0.0)
        moved = evolved.with_state(left + np.eye(left.size)[0] * delta, 0.0)
        want = 2.0 * base.bumps[0].plateau_mass * abs(delta)
        w1 = w1_instances(base, moved)
        assert abs(float(w1) - want) <= w1.error <= 1e-12

    def test_flow_distance_at_the_default_build(self, build5):
        # Sorted draws of f_0(g) and f_T(g) from one g sample estimate the
        # same W1, within sampling noise of about 2% here.
        initial, evolved, _ = build5
        w1 = w1_instances(initial, evolved)
        assert float(w1) == pytest.approx(3.0990e-3, rel=1e-4)
        assert w1.error <= 1e-10
        g = np.random.default_rng(616).standard_normal(1_000_000)
        coupled = w1_empirical(instance_eval(initial, g), instance_eval(evolved, g))
        assert coupled == pytest.approx(float(w1), rel=0.1)


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

    @pytest.mark.parametrize("cosine", [1.7, -1.0000001, math.nan])
    def test_cosine_domain(self, dist5, cosine):
        with pytest.raises(ValidationError, match="cosine"):
            distance_to_support(dist5, cosine, 10, seed=1)

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
        config = VerifyConfig(support_samples=50_000)
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
        assert report.w1_flow_distance + report.w1_flow_error <= report.w1_flow_bound
        assert 0.0 < report.w1_flow_error <= 1e-10
        assert 0.0 < report.chi_squared.error_estimate <= config.chi_tol
        assert len(report.hermite_coefficients) == evolved.m + 1
        assert abs(report.hermite_coefficients[-1]) > 1e-4

    def test_beta_is_chi_squared(self, build5):
        # The self-correlation chi_N(D_u, D_u) is chi^2(D_u, N) itself.
        initial, evolved, trace = build5
        config = VerifyConfig(tv_cosines=(), support_samples=1_000)
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        formula = report.sq_query_formula
        assert formula["beta"] == report.chi_squared.value
        gamma = max(abs(c.value) for c in report.pairwise_corr)
        assert formula["gamma"] == gamma
        assert formula["queries_per_packing_vector"] == gamma / (formula["beta"] - gamma)

    def test_a_w1_pass_must_survive_the_error(self, build5, monkeypatch):
        # W1 under its bound fails once its error reaches the margin.
        initial, evolved, trace = build5
        horizon = evolved.eps - initial.eps
        drift = float(np.max(np.abs(evolved.heights() - initial.heights())))
        bound = drift + 3.0 * evolved.m * horizon

        def uncertain(*args, **kwargs):
            return verify_module.Estimate(0.5 * bound, bound)

        monkeypatch.setattr(verify_module, "w1_instances", uncertain)
        config = VerifyConfig(correlation_cosines=(), tv_cosines=(), support_samples=1_000)
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        assert report.w1_flow_distance < report.w1_flow_bound == bound
        assert not report.w1_flow_passed
        assert not report.all_passed()

    def test_a_pass_must_survive_the_error(self, build5, monkeypatch):
        # A value under its bound fails once its error reaches the margin.
        def uncertain(*args, **kwargs):
            return verify_module.Estimate(0.0, 1.0)

        monkeypatch.setattr(verify_module, "pairwise_correlation", uncertain)
        initial, evolved, trace = build5
        config = VerifyConfig(
            correlation_cosines=(0.1,),
            tv_cosines=(),
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
            support_samples=20_000,
        )
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        assert report.errors == ["pairwise correlation at 0.1: rejected input"]
        assert not report.all_passed()
        assert report.vandermonde is not None

    def test_checks_run_on_the_calling_thread(self, build5, monkeypatch):
        calls = []

        def recording(name):
            original = getattr(verify_module, name)

            def passthrough(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return original(*args, **kwargs)

            return passthrough

        names = (
            "chi_squared_vs_gaussian",
            "tv_hidden_pair",
            "w1_instances",
            "distance_to_support",
        )
        for name in names:
            monkeypatch.setattr(verify_module, name, recording(name))
        initial, evolved, trace = build5
        config = VerifyConfig(correlation_cosines=(), support_samples=1_000)
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        assert not report.errors
        assert calls == [(name, threading.get_ident()) for name in names]

    def test_errors_recorded_in_serial_order(self, build5, monkeypatch):
        def rejecting(label):
            def failing(*args, **kwargs):
                raise ValidationError(f"{label} rejected")

            return failing

        for name in ("pairwise_correlation", "w1_instances", "distance_to_support"):
            monkeypatch.setattr(verify_module, name, rejecting(name))
        initial, evolved, trace = build5
        config = VerifyConfig(
            correlation_cosines=(0.1,),
            tv_cosines=(),
            support_samples=20_000,
        )
        report = verify_instance(initial, evolved, compile_instance(evolved), config)
        assert report.errors == [
            "pairwise correlation at 0.1: pairwise_correlation rejected",
            "w1: w1_instances rejected",
            "distance-to-support: distance_to_support rejected",
        ]
        assert report.vandermonde is not None

    @pytest.mark.parametrize("w1_fails", [False, True])
    def test_no_thread_outlives_a_quadrature_error(self, build5, monkeypatch, w1_fails):
        # TV's error reaches the caller ahead of a later check's bug, and no
        # thread is left behind.
        def failing_tv(*args, **kwargs):
            raise QuadratureError(achieved=1e-3, target=1e-4)

        def buggy_w1(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(verify_module, "tv_hidden_pair", failing_tv)
        if w1_fails:
            monkeypatch.setattr(verify_module, "w1_instances", buggy_w1)
        initial, evolved, trace = build5
        config = VerifyConfig(correlation_cosines=())
        threads = threading.active_count()
        with pytest.raises(QuadratureError):
            verify_instance(initial, evolved, compile_instance(evolved), config)
        assert threading.active_count() == threads

    def test_sampled_check_bug_propagates(self, build5, monkeypatch):
        def buggy_support(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(verify_module, "distance_to_support", buggy_support)
        initial, evolved, trace = build5
        config = VerifyConfig(tv_cosines=(), support_samples=1_000)
        with pytest.raises(TypeError, match="bug"):
            verify_instance(initial, evolved, compile_instance(evolved), config)
