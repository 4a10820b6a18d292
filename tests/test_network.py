"""ReLU compilation, smoothing, and the hidden-direction lift."""

import math

import numpy as np
import pytest
from scipy import stats

from momentforge import (
    Bump,
    HiddenDirectionDist,
    PushforwardDist,
    ReluNetwork1D,
    ReluUnit,
    ValidationError,
    bump_eval,
    compile_instance,
    hermite_rule,
    instance_eval,
    layout,
    lift,
    reduce_rule,
    sample_hidden,
    smooth_inner,
)
from momentforge.network import bump_units, householder_rotation

EPS0_FOR_ORDER = {3: 1e-6, 5: 1e-6, 7: 1e-8, 9: 1e-9}

# Two-sample KS critical value at the 1% level: c(0.01) * sqrt(2/n).
KS_C_001 = 1.628


def fact_weight_bound(inst) -> float:
    return max(
        (abs(b.height) / b.ramp) * max(1.0, abs(b.center) + b.ramp + b.half_width)
        for b in inst.bumps
    )


class TestCompile:
    def test_single_bump_unit_count_and_values(self):
        b = Bump(center=0.0, half_width=1.0, height=2.0, ramp=0.5)
        net = ReluNetwork1D(units=bump_units(b))
        assert net.size == 4
        assert net.eval(0.3) == pytest.approx(2.0, abs=1e-12)
        assert net.eval(1.25) == pytest.approx(1.0, abs=1e-12)
        assert net.eval(3.0) == pytest.approx(0.0, abs=1e-12)
        z = np.linspace(-3, 3, 1001)
        assert np.allclose(net.eval(z), bump_eval(b, z), atol=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_pointwise_roundtrip(self, m, rng):
        # Moderate slopes (the export regime): the telescoping unit sums then
        # cancel to well below 1e-9 in double precision.
        inst = layout(reduce_rule(hermite_rule(m)), 1e-5, 0.5)
        net = compile_instance(inst)
        assert net.size == 4 * (m - 1)
        z = rng.uniform(-5.0, 5.0, size=10_000)
        hmax = float(np.max(np.abs(inst.heights())))
        err = np.max(np.abs(net.eval(z) - instance_eval(inst, z)))
        assert err <= 1e-9 * max(1.0, hmax)

    def test_pointwise_roundtrip_evolved(self, build5, rng):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        z = rng.uniform(-5.0, 5.0, size=10_000)
        hmax = float(np.max(np.abs(evolved.heights())))
        err = np.max(np.abs(net.eval(z) - instance_eval(evolved, z)))
        assert err <= 1e-9 * max(1.0, hmax)

    def test_weight_bound_equals_fact_formula(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        assert net.weight_bound == pytest.approx(fact_weight_bound(evolved), rel=0, abs=0)

    def test_ramp_free_rejected(self, instance5):
        frozen = instance5.with_state(instance5.left_heights(), 0.0)
        with pytest.raises(ValidationError):
            compile_instance(frozen)


class TestSmoothInner:
    def test_degenerate_smoothing_limit(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        smoothed = smooth_inner(net, 1e-9)
        z1 = np.linspace(-3, 3, 101)
        pairs = np.stack([z1, np.zeros_like(z1)], axis=1)
        assert np.allclose(smoothed.eval(pairs), net.eval(z1), atol=1e-8)

    def test_second_moment_identity(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        sigma = 0.3
        smoothed = smooth_inner(net, sigma)
        g = np.random.default_rng(3).standard_normal((200_000, 2))
        vals = smoothed.eval(g)
        inner_sq = float(np.mean(net.eval(g[:, 0]) ** 2))
        want = (1 - sigma**2) * inner_sq + sigma**2
        got = float(np.mean(vals**2))
        se = float(np.std(vals**2)) / math.sqrt(len(vals))
        assert abs(got - want) <= 5 * se + 1e-3

    def test_odd_symmetry(self, build5):
        _, evolved, _ = build5
        smoothed = smooth_inner(compile_instance(evolved), 0.05)
        z = np.random.default_rng(4).uniform(-3, 3, size=(100, 2))
        flipped = -z
        assert np.allclose(smoothed.eval(z) + smoothed.eval(flipped), 0.0, atol=1e-10)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.2, 1.5])
    def test_sigma_domain(self, build5, sigma):
        _, evolved, _ = build5
        with pytest.raises(ValidationError):
            smooth_inner(compile_instance(evolved), sigma)


class TestHouseholder:
    def test_maps_e1_to_v(self, rng):
        for d in (2, 7, 25):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            U = householder_rotation(v)
            e1 = np.zeros(d)
            e1[0] = 1.0
            assert np.allclose(U @ e1, v, atol=1e-14)
            assert np.max(np.abs(U.T @ U - np.eye(d))) <= 1e-10

    def test_identity_for_e1(self):
        v = np.zeros(5)
        v[0] = 1.0
        assert np.array_equal(householder_rotation(v), np.eye(5))

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            householder_rotation(np.array([1.0, 1.0]))


class TestLift:
    def test_e1_passthrough(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        d = 6
        v = np.zeros(d)
        v[0] = 1.0
        lifted = lift(net, 0.05, d, v)
        z = np.random.default_rng(6).standard_normal((40, d + 1))
        out = lifted.eval(z)
        inner = lifted.inner.eval(z[:, :2])
        assert np.allclose(out[:, 0], inner, atol=1e-12)
        assert np.allclose(out[:, 1:], z[:, 2:], atol=1e-12)

    def test_projection_recovers_inner(self, build5, rng):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        d = 9
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lifted = lift(net, 0.05, d, v)
        z = rng.standard_normal((100, d + 1))
        assert np.allclose(lifted.eval(z) @ v, lifted.inner.eval(z[:, :2]), atol=1e-10)

    def test_orthogonal_components_gaussian(self, build5, rng):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        d = 5
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lifted = lift(net, 0.05, d, v)
        z = np.random.default_rng(8).standard_normal((100_000, d + 1))
        out = lifted.eval(z)
        orth = out - np.outer(out @ v, v)
        cov = orth.T @ orth / len(orth)
        want = np.eye(d) - np.outer(v, v)
        assert np.max(np.abs(cov - want)) <= 0.02

    def test_size_report(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        lifted = lift(net, 0.05, 4, np.array([1.0, 0.0, 0.0, 0.0]))
        sizes = lifted.size_report()
        assert sizes["inner_relu_units"] == 4 * (evolved.m - 1)
        assert sizes["inner_relu_units_strict"] == 4 * (evolved.m - 1) + 2
        assert sizes["per_coordinate_pure_relu"] == 4 * (evolved.m - 1) + 4

    def test_non_unit_direction_rejected(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        with pytest.raises(ValidationError):
            lift(net, 0.05, 3, np.array([1.0, 1.0, 0.0]))

    def test_sampler_equivalence(self, build5, rng):
        # End-to-end network sampling vs the direct hidden-direction sampler.
        _, evolved, _ = build5
        sigma = 0.05
        d = 8
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lifted = lift(compile_instance(evolved), sigma, d, v)
        n = 100_000
        z = np.random.default_rng(9).standard_normal((n, d + 1))
        net_samples = lifted.eval(z)
        hd = HiddenDirectionDist(
            d=d, v=v, marginal=PushforwardDist.from_instance(evolved, sigma)
        )
        direct = sample_hidden(hd, n, seed=10)
        crit = KS_C_001 * math.sqrt(2.0 / n)
        stat_v = stats.ks_2samp(net_samples @ v, direct @ v).statistic
        assert stat_v <= crit
        u = rng.standard_normal(d)
        u -= (u @ v) * v
        u /= np.linalg.norm(u)
        stat_u = stats.ks_2samp(net_samples @ u, direct @ u).statistic
        assert stat_u <= crit


class TestEvaluate:
    def test_empty_network(self):
        net = ReluNetwork1D(units=())
        assert net.eval(0.7) == 0.0

    def test_single_unit_cutoff(self):
        net = ReluNetwork1D(units=(ReluUnit(sign=1, weights=(1.0,), bias=0.0),))
        assert net.eval(-3.0) == 0.0
        assert net.eval(2.0) == 2.0

    def test_dimension_mismatch(self, build5):
        _, evolved, _ = build5
        lifted = lift(compile_instance(evolved), 0.05, 3, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            lifted.eval(np.zeros(3))
