"""ReLU compilation, smoothing, and the hidden-direction lift."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import householder_rotation, sample_hidden
from scipy import stats

from momentforge import (
    Bump,
    HiddenDirectionDist,
    LiftedNetwork,
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
)
from momentforge.cli import _network_payload, network_from_payload
from momentforge.network import bump_units

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


def smoothed_first_coordinate(net, sigma):
    """f*(z1, z2) = sqrt(1 - sigma^2) f(z1) + sigma z2, read off the first
    output of the lift along e_1, whose rotation is the identity."""
    lifted = lift(net, sigma, 2, np.array([1.0, 0.0]))

    def fstar(pairs):
        z = np.concatenate([pairs, np.zeros((len(pairs), 1))], axis=1)
        return lifted.eval(z)[:, 0]

    return fstar


class TestSmoothInner:
    def test_degenerate_smoothing_limit(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        smoothed = smoothed_first_coordinate(net, 1e-9)
        z1 = np.linspace(-3, 3, 101)
        pairs = np.stack([z1, np.zeros_like(z1)], axis=1)
        assert np.allclose(smoothed(pairs), net.eval(z1), atol=1e-8)

    def test_second_moment_identity(self, build5):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        sigma = 0.3
        smoothed = smoothed_first_coordinate(net, sigma)
        g = np.random.default_rng(3).standard_normal((200_000, 2))
        vals = smoothed(g)
        inner_sq = float(np.mean(net.eval(g[:, 0]) ** 2))
        want = (1 - sigma**2) * inner_sq + sigma**2
        got = float(np.mean(vals**2))
        se = float(np.std(vals**2)) / math.sqrt(len(vals))
        assert abs(got - want) <= 5 * se + 1e-3

    def test_odd_symmetry(self, build5):
        _, evolved, _ = build5
        smoothed = smoothed_first_coordinate(compile_instance(evolved), 0.05)
        z = np.random.default_rng(4).uniform(-3, 3, size=(100, 2))
        flipped = -z
        assert np.allclose(smoothed(z) + smoothed(flipped), 0.0, atol=1e-10)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, -0.2, 1.5])
    def test_sigma_domain(self, build5, sigma):
        _, evolved, _ = build5
        with pytest.raises(ValidationError):
            lift(compile_instance(evolved), sigma, 2, np.array([1.0, 0.0]))


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

    @pytest.mark.parametrize(
        "v", [[1.0, 1.0], [math.nan, 0.0]], ids=["non-unit", "nan"]
    )
    def test_non_unit_rejected(self, v):
        # A NaN norm fails every comparison, so the check must refuse it too.
        with pytest.raises(ValidationError, match="unit vector"):
            LiftedNetwork(v=np.array(v), sigma=0.05, inner=ReluNetwork1D(units=()))

    @pytest.mark.parametrize("d", [2, 7, 50, 1000])
    def test_rank_one_update_matches_dense(self, build5, d):
        # Both sides reflect the same rows x by the same u = e_1 - v.  To
        # first order in the unit roundoff eps, the rank-1 update is off
        # H x by at most (4d + 7) eps |x| in each entry and the dense
        # product by (5d + 5) eps |x|, so they differ by less than
        # 10 (d + 3) eps |x| in each row.
        net = compile_instance(build5[1])
        rng = np.random.default_rng(d)
        z = rng.standard_normal((200, d + 1))
        e1 = np.zeros(d)
        e1[0] = 1.0
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)

        def reflected(direction):
            lifted = lift(net, 0.05, d, direction)
            fstar = lifted.inner.eval(z[:, 0]) + 0.05 * z[:, 1]
            x = np.concatenate([fstar[:, None], z[:, 2:]], axis=1)
            return x, lifted.eval(z), x @ householder_rotation(direction).T

        x, out, dense = reflected(e1)
        assert np.array_equal(out, x)
        assert np.array_equal(out, dense)
        x, out, dense = reflected(v)
        gap = np.max(np.abs(out - dense), axis=1)
        bound = 10 * (d + 3) * np.finfo(float).eps / 2
        assert np.all(gap <= bound * np.linalg.norm(x, axis=1))


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
        fstar = lifted.inner.eval(z[:, 0]) + 0.05 * z[:, 1]
        assert np.allclose(out[:, 0], fstar, atol=1e-12)
        assert np.allclose(out[:, 1:], z[:, 2:], atol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_d1_is_plus_or_minus_fstar(self, build5, sign):
        # At d = 1, v = +-1 and the reflection is the identity or x -> -x.
        lifted = lift(compile_instance(build5[1]), 0.05, 1, np.array([sign]))
        z = np.random.default_rng(13).standard_normal((200, 2))
        fstar = lifted.inner.eval(z[:, 0]) + 0.05 * z[:, 1]
        assert np.array_equal(lifted.eval(z)[:, 0], sign * fstar)
        assert lifted.eval(z[0]).shape == (1,)

    def test_projection_recovers_inner(self, build5, rng):
        _, evolved, _ = build5
        net = compile_instance(evolved)
        d = 9
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lifted = lift(net, 0.05, d, v)
        z = rng.standard_normal((100, d + 1))
        fstar = lifted.inner.eval(z[:, 0]) + 0.05 * z[:, 1]
        assert np.allclose(lifted.eval(z) @ v, fstar, atol=1e-10)

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
        assert set(sizes) == {"inner_relu_units", "per_coordinate_pure_relu"}
        assert sizes["inner_relu_units"] == 4 * (evolved.m - 1)
        assert sizes["per_coordinate_pure_relu"] == 4 * (evolved.m - 1) + 4

    def test_no_dense_state_at_d4000(self, build5):
        # Lifting, reloading and evaluating 8 rows is O(d) memory; a d x d
        # reflection at d = 4000 alone would take 128 MB.
        net = compile_instance(build5[1])
        d = 4000
        v = np.random.default_rng(11).standard_normal(d)
        v /= np.linalg.norm(v)
        z = np.random.default_rng(12).standard_normal((8, d + 1))
        tracemalloc.start()
        try:
            lifted = network_from_payload(_network_payload(lift(net, 0.05, d, v)))
            out = lifted.eval(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (8, d)
        assert peak < 8 * 2**20

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
        net = ReluNetwork1D(units=(ReluUnit(sign=1, weight=1.0, bias=0.0),))
        assert net.eval(-3.0) == 0.0
        assert net.eval(2.0) == 2.0

    def test_dimension_mismatch(self, build5):
        _, evolved, _ = build5
        lifted = lift(compile_instance(evolved), 0.05, 3, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValidationError):
            lifted.eval(np.zeros(3))
