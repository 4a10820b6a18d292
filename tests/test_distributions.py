"""Pushforward distributions: sampling, exact densities, direction sets."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    generate_directions,
    keyed_gaussian_blocks,
    reference_density,
    sample_hidden,
)
from scipy import integrate, stats

from momentforge import (
    HiddenDirectionDist,
    PushforwardDist,
    ValidationError,
    hermite_rule,
    instance_eval,
    layout,
    reduce_rule,
    distributions,
    sample_null,
)
from momentforge.distributions import (
    SAMPLE_BLOCK,
    STREAM_HIDDEN,
    STREAM_LATENT,
    STREAM_NULL,
    hidden_blocks,
    latent_blocks,
    null_blocks,
    rng_stream,
)
from momentforge.integrate import feature_breakpoints, panel_integrate_1d

KS_C_001 = 1.628


def oracle_density(dist: PushforwardDist, x: float) -> float:
    """Adaptive quadrature of the latent integral, independent of the
    closed-form path."""
    inst = dist.inst
    sigma = dist.sigma
    points = []
    for b in inst.bumps:
        lo, hi = b.support
        points += [lo, b.center - b.half_width, b.center + b.half_width, hi]

    def integrand(g):
        f = instance_eval(inst, g)
        return (
            math.exp(-g * g / 2.0)
            / math.sqrt(2 * math.pi)
            * math.exp(-((x - dist.scale * f) ** 2) / (2 * sigma**2))
            / (sigma * math.sqrt(2 * math.pi))
        )

    val, _ = integrate.quad(
        integrand, -12.0, 12.0, points=sorted(points), epsabs=1e-250,
        epsrel=1e-11, limit=500,
    )
    return val


class TestSampleMarginal:
    def test_ramp_free_discrete_frequencies(self):
        inst = layout(reduce_rule(hermite_rule(3)), 1e-6, 1e-4).with_state(
            np.array([-math.sqrt(3.0)]), 0.0
        )
        dist = PushforwardDist.from_instance(inst, 0.0)
        n = 1_000_000
        samples = dist.sample(n, seed=41)
        root = math.sqrt(3.0)
        for value, prob in ((-root, 1 / 6), (0.0, 2 / 3), (root, 1 / 6)):
            freq = float(np.mean(np.isclose(samples, value, atol=1e-9)))
            band = 4.0 * math.sqrt(prob * (1 - prob) / n)
            assert abs(freq - prob) <= band

    def test_mean_and_second_moment(self, dist5):
        n = 1_000_000
        samples = dist5.sample(n, seed=42)
        assert abs(np.mean(samples)) <= 4.0 * np.std(samples) / math.sqrt(n)
        want = dist5.moment(2)
        se = float(np.std(samples**2)) / math.sqrt(n)
        assert abs(float(np.mean(samples**2)) - want) <= 4.0 * se

    def test_deterministic_given_seed(self, dist5):
        a = dist5.sample(1000, seed=7)
        b = dist5.sample(1000, seed=7)
        assert np.array_equal(a, b)
        c = dist5.sample(1000, seed=8)
        assert not np.array_equal(a, c)


class TestDensity:
    def test_far_tail_negligible(self, dist5):
        x = dist5.support_radius() + 20 * dist5.sigma
        assert dist5.density(x) <= 1e-50

    def test_symmetry(self, dist5, rng):
        x = rng.uniform(0.0, 3.5, size=200)
        assert np.allclose(dist5.density(x), dist5.density(-x), rtol=1e-12, atol=1e-300)

    def test_normalization(self, dist5):
        bound = dist5.law.integration_bound()
        breaks = feature_breakpoints(
            -bound, bound, dist5.law.feature_points(), dist5.sigma
        )
        total, _ = panel_integrate_1d(lambda x: dist5.density(x), breaks, 1e-10)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_against_latent_quadrature_oracle(self, dist5, rng):
        radius = dist5.support_radius() + 6 * dist5.sigma
        for x in rng.uniform(-radius, radius, size=25):
            want = oracle_density(dist5, float(x))
            if want < 1e-12:
                continue  # below the oracle's own resolution
            assert dist5.density(float(x)) == pytest.approx(want, rel=1e-6)

    def test_sigma_zero_refuses_density(self, build5):
        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, 0.0)
        with pytest.raises(ValidationError):
            dist.density(0.0)

    def test_histogram_consistency(self, dist5):
        # chi^2 goodness of fit: histogram of samples vs density integrals.
        n = 1_000_000
        samples = dist5.sample(n, seed=101)
        lo = -(dist5.support_radius() + 6 * dist5.sigma)
        edges = np.linspace(lo, -lo, 61)
        counts, _ = np.histogram(samples, bins=edges)
        probs = np.empty(len(edges) - 1)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            val, _ = panel_integrate_1d(
                lambda x: dist5.density(x), np.array([a, b]), 1e-12
            )
            probs[i] = val
        inside = counts.sum()
        keep = probs * inside >= 10.0
        chi2 = float(
            np.sum((counts[keep] - inside * probs[keep]) ** 2 / (inside * probs[keep]))
        )
        pvalue = 1.0 - stats.chi2.cdf(chi2, df=int(keep.sum()) - 1)
        assert pvalue > 0.001

    def test_moments_match_monte_carlo(self, dist5):
        n = 2_000_000
        samples = dist5.sample(n, seed=55)
        for k in range(1, 6):
            want = dist5.moment(k)
            se = float(np.std(samples**k)) / math.sqrt(n)
            assert abs(float(np.mean(samples**k)) - want) <= 4.0 * se

    def test_moments_are_kept(self, build5, monkeypatch):
        from momentforge import distributions

        _, evolved, _ = build5
        dist = PushforwardDist.from_instance(evolved, 0.05)
        first = [dist.moment(k) for k in range(12)]
        calls = []
        monkeypatch.setattr(distributions, "law_moment", lambda *a: calls.append(a))
        again = [dist.moment(k) for k in range(12)]
        assert calls == []
        monkeypatch.undo()
        fresh = PushforwardDist.from_instance(evolved, 0.05)
        assert again == first == [fresh.moment(k) for k in range(12)]


class TestProjectedLaw:
    def test_full_cosine_recovers_marginal(self, dist5, rng):
        law = dist5.projected(1.0)
        x = rng.uniform(-3.0, 3.0, size=50)
        assert np.allclose(law.density(x), dist5.density(x), rtol=1e-12)

    def test_zero_cosine_is_standard_gaussian(self, dist5):
        law = dist5.projected(0.0)
        x = np.linspace(-4, 4, 17)
        want = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        assert np.allclose(law.density(x), want, rtol=1e-12)

    def test_projection_matches_sampled_projection(self, dist5, rng):
        d = 16
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        cosine = float(u @ v)
        hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
        x = sample_hidden(hd, 200_000, seed=77)
        proj = x @ u
        law = dist5.projected(cosine)
        # CDF comparison on a grid via the law's own expectation integral.
        grid = np.linspace(-3, 3, 13)
        for g in grid:
            emp = float(np.mean(proj <= g))
            want, _ = panel_integrate_1d(
                lambda t: law.density(t),
                feature_breakpoints(-law.integration_bound(), g, law.feature_points(), law.width),
                1e-9,
            )
            assert abs(emp - want) <= 5.0 / math.sqrt(len(proj)) + 1e-4


points = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)
cosines = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda c: abs(c) < 0.999)
property_settings = settings(max_examples=60, deadline=None, derandomize=True)


def assert_within_one_ulp(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


class TestDensityKernelProperties:
    """The broadcast density kernel against the per-ramp loop reference."""

    @property_settings
    @given(x=points)
    def test_marginal_matches_reference(self, dist5, x):
        assert_within_one_ulp(dist5.law.density(x), reference_density(dist5.law, x))

    @property_settings
    @given(x=points, cosine=cosines)
    def test_projected_matches_reference(self, dist5, x, cosine):
        law = dist5.projected(cosine)
        assert_within_one_ulp(law.density(x), reference_density(law, x))

    @property_settings
    @given(x=st.floats(-40.0, 40.0, allow_nan=False), cosine=cosines)
    def test_scalar_input_returns_float(self, dist5, x, cosine):
        law = dist5.projected(cosine)
        value = law.density(x)
        assert type(value) is float
        assert_within_one_ulp(np.array([value]), reference_density(law, x))

    @property_settings
    @given(x=points, cosine=cosines)
    def test_mirror_symmetry(self, dist5, x, cosine):
        law = dist5.projected(cosine)
        assert np.allclose(law.density(x), law.density(-x), rtol=1e-12, atol=1e-300)


class TestSampleHidden:
    def test_projection_distribution(self, dist5, rng):
        d = 10
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
        n = 100_000
        x = sample_hidden(hd, n, seed=3)
        marg = dist5.sample(n, seed=4)
        crit = KS_C_001 * math.sqrt(2.0 / n)
        assert stats.ks_2samp(x @ v, marg).statistic <= crit

    def test_orthogonal_direction_gaussian(self, dist5, rng):
        d = 10
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
        x = sample_hidden(hd, 100_000, seed=5)
        u = rng.standard_normal(d)
        u -= (u @ v) * v
        u /= np.linalg.norm(u)
        stat = stats.kstest(x @ u, "norm").statistic
        assert stat <= 1.628 * math.sqrt(1.0 / 100_000) * math.sqrt(2)

    def test_degenerate_ambient_reduces_to_marginal(self, dist5):
        hd = HiddenDirectionDist(d=1, v=np.array([1.0]), marginal=dist5)
        n = 100_000
        x = sample_hidden(hd, n, seed=6).ravel()
        marg = dist5.sample(n, seed=7)
        crit = KS_C_001 * math.sqrt(2.0 / n)
        assert stats.ks_2samp(x, marg).statistic <= crit

    def test_rotational_covariance(self, dist5, rng):
        d = 6
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hd_v = HiddenDirectionDist(d=d, v=v, marginal=dist5)
        hd_qv = HiddenDirectionDist(d=d, v=Q @ v, marginal=dist5)
        n = 100_000
        rotated = sample_hidden(hd_v, n, seed=8) @ Q.T
        direct = sample_hidden(hd_qv, n, seed=9)
        crit = KS_C_001 * math.sqrt(2.0 / n)
        assert stats.ks_2samp(rotated @ (Q @ v), direct @ (Q @ v)).statistic <= crit

    def test_non_unit_direction_rejected(self, dist5):
        with pytest.raises(ValidationError):
            HiddenDirectionDist(d=3, v=np.array([1.0, 1.0, 0.0]), marginal=dist5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_direction_rejected(self, dist5, bad):
        with pytest.raises(ValidationError, match="unit vector"):
            HiddenDirectionDist(d=2, v=np.array([bad, 0.0]), marginal=dist5)


class TestSampleNull:
    def test_moments(self):
        n, d = 100_000, 20
        x = sample_null(d, n, seed=11)
        assert np.max(np.abs(x.mean(axis=0))) <= 4.0 / math.sqrt(n)
        cov = x.T @ x / n
        assert np.max(np.abs(cov - np.eye(d))) <= 0.02

    def test_deterministic(self):
        assert np.array_equal(sample_null(5, 100, seed=1), sample_null(5, 100, seed=1))


class TestSampleBlocks:
    """Block streams equal the serial draw of their keyed substreams: block b
    from the stream's Philox generator jumped b times."""

    N = 100

    @pytest.mark.parametrize("rows", [4, 16, 32, 128])
    def test_hidden_blocks_stack_to_one_shot(self, dist5, rng, monkeypatch, rows):
        d, seed = 6, 12
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", rows * d)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
        # The layout: all n marginal draws (g1 then g2) from one stream, then
        # the (n, d) Gaussian rows from another, in keyed blocks, embedded
        # in one shot.
        s = dist5.draw(rng_stream(seed, STREAM_HIDDEN), self.N)
        g = np.concatenate(keyed_gaussian_blocks(seed, STREAM_HIDDEN + 0x100, self.N, d))
        want = hd.embed(s, g)
        blocks = list(hidden_blocks(hd, self.N, seed))
        assert np.array_equal(np.concatenate(blocks), want)
        assert np.array_equal(sample_hidden(hd, self.N, seed), want)

    @pytest.mark.parametrize("rows", [1, 7, N - 1, N, N + 1])
    def test_gaussian_blocks_stack_to_one_shot(self, monkeypatch, rows):
        # Blocks hold the largest power of two rows up to `rows`: 4 for 7.
        d, seed = 5, 13
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", rows * d)
        for stream, blocks in ((STREAM_NULL, null_blocks), (STREAM_LATENT, latent_blocks)):
            want = keyed_gaussian_blocks(seed, stream, self.N, d)
            got = list(blocks(d, self.N, seed))
            assert [len(b) for b in got] == [len(b) for b in want]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        null = np.concatenate(keyed_gaussian_blocks(seed, STREAM_NULL, self.N, d))
        assert np.array_equal(sample_null(d, self.N, seed), null)

    @pytest.mark.parametrize("n", [1, 8, 15])
    def test_one_block_is_the_unjumped_stream(self, monkeypatch, n):
        # Fewer than 2 * rows rows make one block, the stream's one-shot draw.
        d, seed = 3, 14
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", 8 * d)
        for stream, blocks in ((STREAM_NULL, null_blocks), (STREAM_LATENT, latent_blocks)):
            want = rng_stream(seed, stream).standard_normal((n, d))
            (got,) = blocks(d, n, seed)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "rows, sizes", [(16, [16] * 5 + [20]), (50, [32, 32, 36]), (128, [100])]
    )
    def test_last_block_takes_the_remainder(self, monkeypatch, rows, sizes):
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", rows * 3)
        assert [len(b) for b in null_blocks(3, self.N, seed=1)] == sizes

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_at_most_three_blocks_in_flight(self, monkeypatch, cpus):
        # min(blocks, CPUs, 2) fillers; a block is in flight from its
        # submission until the consumer asks for the next one.
        monkeypatch.setattr(distributions, "SAMPLE_BLOCK", 4 * 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pools, submitted = [], []
        real_pool = distributions.ThreadPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

            def submit(self, fn, /, *args, **kwargs):
                submitted.append(kwargs["out"])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(distributions, "ThreadPoolExecutor", CountingPool)
        yielded = 0
        for block in null_blocks(3, self.N, seed=1):
            assert block is submitted[yielded]
            yielded += 1
            assert len(submitted) - yielded < min(cpus, 2) + 1
        assert pools == [min(cpus, 2)] and yielded == len(submitted) == 25

    @pytest.mark.parametrize(
        "d, rows", [(1, SAMPLE_BLOCK), (6, 2**17), (50, 2**14), (SAMPLE_BLOCK + 1, 1)]
    )
    def test_default_rows_are_a_power_of_two(self, d, rows):
        # The largest power of two with rows * d <= SAMPLE_BLOCK, or one row;
        # the last block takes the remainder.
        sizes = [len(b) for b in null_blocks(d, 3 * rows - 1, seed=1)]
        assert sizes == [rows, 2 * rows - 1]

    @pytest.mark.parametrize("d, n", [(0, 5), (5, 0), (-1, 5)])
    def test_empty_draws_rejected(self, d, n):
        with pytest.raises(ValidationError, match="must be >= 1"):
            sample_null(d, n, seed=1)


class TestGenerateDirections:
    def test_pairwise_overlap_bound(self):
        dirs = generate_directions(200, 100, max_overlap=0.5, seed=21)
        stacked = np.stack(dirs)
        gram = np.abs(stacked @ stacked.T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.5
        # Random unit vectors in d=200 concentrate near sqrt(ln(count^2)/d).
        assert 0.1 < gram.max() < 0.35

    def test_trivial_pair(self):
        dirs = generate_directions(2, 2, max_overlap=0.999, seed=22)
        assert len(dirs) == 2

    def test_budget_exhaustion(self):
        with pytest.raises(ValidationError):
            generate_directions(2, 50, max_overlap=0.05, seed=23, retry_budget=500)
