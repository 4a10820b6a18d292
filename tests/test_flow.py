"""Moment-preserving flow: system assembly, direction solve, integration."""

import dataclasses
import math

import numpy as np
import pytest

from momentforge import (
    ConditioningBreakdown,
    SlopeTarget,
    ValidationError,
    build_system,
    evolve,
    flow_direction,
    hermite_rule,
    layout,
    moment_vector,
    reduce_rule,
    vandermonde_sigma_check,
)
from momentforge.bumps import bump_moment, instance_pushforward_moment
from momentforge import flow
from momentforge.flow import _solve_direction
from momentforge.gaussian import gaussian_interval_mass

# Final left-half heights at the CLI's default target, 1000 * eps0, from the
# Fehlberg 4(5) integration with Newton projection that continuation replaced.
RUNGE_KUTTA_HEIGHTS = {
    (3, 1e-6): [-1.730873423714751],
    (5, 1e-6): [-2.8567443586957935, -1.3532224012521026],
    (7, 2e-7): [-3.746168668908063, -2.366010656075511, -1.1537831615062593],
    (9, 1e-10): [
        -4.512729503312028, -3.205425533985659, -2.0768476163950886,
        -1.0232552710714462,
    ],
    (11, 1.5e-12): [
        -5.187996579766246, -3.9361661802498595, -2.8651231293233184,
        -1.8760350126117538, -0.9288689908585924,
    ],
    (13, 1e-12): [
        -5.800112225378043, -4.5913948302037735, -3.563444288876652,
        -2.6206899457151405, -1.725418376356414, -0.8566794880241233,
    ],
    (15, 1.7e-14): [
        -6.363927823269431, -5.19009269965061, -4.196207701592432,
        -3.2890824214936325, -2.432436826933006, -1.6067100688798575,
        -0.7991290682465517,
    ],
}


class TestBuildSystem:
    def test_m3_dimension_bookkeeping(self):
        reduced = reduce_rule(hermite_rule(3))
        inst = layout(reduced, 1e-6, 1e-4)
        system = build_system(inst)
        assert system.Z.shape == (1, 1)
        assert system.b.shape == (1,)
        b = inst.bumps[0]
        assert system.Z[0, 0] == pytest.approx(bump_moment(b, 2), rel=1e-14)
        assert system.inv_heights[0] == pytest.approx(1.0 / b.height, rel=1e-14)
        assert np.array_equal(system.moment_orders, [2.0])

    def test_ramp_free_limit_factorization(self):
        # As eps -> 0, Z[i, l] -> plateau_mass_i * h_i^(2l).
        reduced = reduce_rule(hermite_rule(5))
        inst = layout(reduced, 1e-9, 1e-4)
        system = build_system(inst)
        for i, b in enumerate(inst.bumps[:2]):
            mass = gaussian_interval_mass(
                b.center - b.half_width, b.center + b.half_width
            )
            for l, k in enumerate((2, 4)):
                assert system.Z[i, l] == pytest.approx(
                    mass * b.height**k, rel=1e-6
                )

    def test_sigma_min_positive(self, instance5):
        system = build_system(instance5)
        assert system.sigma_min > 1e-12

    def test_singular_values_are_the_spectral_extremes(self, instance5):
        system = build_system(instance5)
        assert system.sigma_max == np.linalg.norm(system.Z, 2)
        assert system.sigma_min == np.linalg.norm(system.Z, -2)

    def test_even_order_entries_nonnegative(self, instance5):
        system = build_system(instance5)
        assert np.all(system.Z >= 0.0)
        assert np.all(np.isfinite(system.Z))

    def test_zero_height_rejected(self, instance5):
        broken = instance5.with_state(np.array([instance5.left_heights()[0], 0.0]), 1e-6)
        with pytest.raises(ValidationError):
            build_system(broken)


class TestFlowDirection:
    def test_linear_system_residual(self, instance5):
        h = instance5.left_heights()
        v = flow_direction(0.0, h, instance5)
        system = build_system(instance5)
        A = np.diag(system.inv_heights)
        B = np.diag(system.moment_orders)
        residual = v @ A @ system.Z @ B - system.b
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(system.b))

    def test_zero_rhs_gives_zero_direction(self, instance5):
        system = build_system(instance5)
        null_system = dataclasses.replace(system, b=np.zeros_like(system.b))
        v = _solve_direction(null_system, 0.0, 1e-12)
        assert np.allclose(v, 0.0, atol=1e-15)

    def test_directional_derivative_vanishes(self, instance5):
        # nabla mu along (v, 1) must vanish: central difference with a step
        # smaller than the current ramp width so both sides stay valid.
        h = instance5.left_heights()
        v = flow_direction(0.0, h, instance5)
        delta = 1e-7
        mu_up = moment_vector(
            instance5.with_state(h + delta * v, instance5.eps + delta)
        )
        mu_dn = moment_vector(
            instance5.with_state(h - delta * v, instance5.eps - delta)
        )
        directional = (mu_up - mu_dn) / (2 * delta)
        assert np.max(np.abs(directional)) <= 1e-6

    def test_conditioning_breakdown_carries_state(self, instance5):
        with pytest.raises(ConditioningBreakdown) as excinfo:
            flow_direction(0.0, instance5.left_heights(), instance5, sigma_floor_factor=10.0)
        assert excinfo.value.t == 0.0
        assert excinfo.value.sigma_min > 0.0


class TestEvolve:
    def test_zero_length_horizon(self, instance5):
        evolved, trace = evolve(instance5, SlopeTarget(eps_target=instance5.eps))
        assert evolved is instance5
        assert len(trace.times) == 1
        assert trace.target_reached

    def test_moment_conservation(self, build5):
        initial, evolved, trace = build5
        assert trace.target_reached
        assert evolved.eps == pytest.approx(1e-3, rel=1e-12)
        # Raw integrator drift on the tracked even moments.
        assert trace.max_moment_drift() <= 1e-6
        for k in (2, 4):
            drift = abs(
                instance_pushforward_moment(evolved, k)
                - instance_pushforward_moment(initial, k)
            )
            assert drift <= 1e-6

    def test_odd_moments_vanish_along_flow(self, build5):
        initial, evolved, trace = build5
        for idx in np.linspace(0, len(trace.times) - 1, 5).astype(int):
            state = initial.with_state(trace.heights[idx], trace.eps_values[idx])
            for k in (1, 3, 5):
                assert abs(instance_pushforward_moment(state, k)) <= 1e-12

    def test_sigma_min_continuity(self, build5):
        _, _, trace = build5
        sig = np.array(trace.sigma_mins)
        assert np.all(sig[1:] >= 0.5 * sig[:-1])

    def test_trace_time_bookkeeping(self, build5):
        initial, _, trace = build5
        times = np.array(trace.times)
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0.0)
        assert np.allclose(
            np.array(trace.eps_values), initial.eps + times, rtol=0, atol=1e-18
        )

    def test_slope_reduction(self, build5):
        initial, evolved, trace = build5
        ratio = evolved.max_slope() / initial.max_slope()
        assert ratio <= 1e-3
        drift = max(np.max(np.abs(h - trace.heights[0])) for h in trace.heights)
        budget = np.sum(np.array(trace.direction_norms)[1:] * np.array(trace.step_sizes)[1:])
        assert drift <= budget * 1.1 + 1e-12

    def test_slope_target_stopping(self, instance5):
        evolved, trace = evolve(instance5, SlopeTarget(slope_target=1e4))
        assert trace.target_reached
        assert evolved.max_slope() <= 1e4

    def test_collision_guard_partial_progress(self, instance5):
        evolved, trace = evolve(instance5, SlopeTarget(eps_target=0.5))
        assert not trace.target_reached
        assert trace.stop_reason == "collision-guard"
        assert evolved.eps < 0.5
        assert np.min(evolved.support_gaps()) > 0.0

    def test_support_gaps_positive_throughout(self, build5):
        initial, _, trace = build5
        final_state = initial.with_state(trace.heights[-1], trace.eps_values[-1])
        assert np.min(final_state.support_gaps()) > 0.0

    def test_projection_reports_residuals(self, build5):
        _, _, trace = build5
        assert trace.projection_applied
        assert trace.residual_after_projection <= 1e-12
        assert trace.residual_after_projection <= trace.residual_before_projection + 1e-18

    def test_default_build_system_count(self, instance5, monkeypatch):
        # Continuation assembles one system per corrector iterate: the initial
        # state, each predicted state, each kept Newton step and the polish.
        calls = 0
        build = flow.build_system

        def counting_build(state):
            nonlocal calls
            calls += 1
            return build(state)

        monkeypatch.setattr(flow, "build_system", counting_build)
        _, trace = evolve(instance5, SlopeTarget(eps_target=1e-3))
        assert trace.target_reached and trace.projection_applied
        assert calls <= 40

    def test_slope_target_lands_on_target(self, instance5):
        evolved, trace = evolve(instance5, SlopeTarget(slope_target=1e4))
        assert trace.target_reached
        assert 0.99e4 <= evolved.max_slope() <= 1e4

    @pytest.mark.parametrize(
        "ceiling, old_reason",
        [(1e8, "guard:direction-ceiling"), (math.inf, "guard:step-underflow(")],
    )
    def test_fold_stops_with_a_typed_guard(self, ceiling, old_reason, monkeypatch):
        # At m=13 the second and third left heights merge near eps =
        # 6.2907e-4, short of the target.  The corrector fails there at every
        # step above the floor, so the run stops before that fold and names
        # the bumps, where it once read old_reason.  A direction past the
        # ceiling is made non-finite, which counts as a failed corrector step,
        # so the stop is the same fold with or without a ceiling.  The polish
        # keeps the better state, so it never raises the residual.
        solve = flow._solve_direction

        def capped(system, t, floor):
            w = solve(system, t, floor)
            return w if np.max(np.abs(w)) <= ceiling else np.full_like(w, np.inf)

        monkeypatch.setattr(flow, "_solve_direction", capped)
        inst = layout(reduce_rule(hermite_rule(13)), 1e-12, 1e-4)
        evolved, trace = evolve(inst, SlopeTarget(eps_target=1e-3))
        assert not trace.target_reached
        assert trace.stop_reason == "fold: bumps 2 and 3"
        assert not trace.stop_reason.startswith(old_reason)
        assert max(trace.direction_norms) <= ceiling
        assert evolved.eps < 6.291e-4
        assert trace.residual_after_projection <= trace.residual_before_projection

    @pytest.mark.parametrize("m, eps0", list(RUNGE_KUTTA_HEIGHTS))
    def test_heights_match_the_runge_kutta_flow(self, m, eps0):
        inst = layout(reduce_rule(hermite_rule(m)), eps0, 1e-4)
        evolved, trace = evolve(inst, SlopeTarget(eps_target=1000.0 * eps0))
        assert trace.target_reached
        want = np.array(RUNGE_KUTTA_HEIGHTS[m, eps0])
        assert np.all(np.abs(evolved.left_heights() - want) <= 1e-11 * np.abs(want))

    def test_target_validation(self, instance5):
        with pytest.raises(ValidationError):
            SlopeTarget()
        with pytest.raises(ValidationError):
            SlopeTarget(eps_target=1e-3, slope_target=1e3)
        with pytest.raises(ValidationError):
            evolve(instance5, SlopeTarget(eps_target=instance5.eps / 2))

    @pytest.mark.parametrize("field", ["eps_target", "slope_target"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_target_must_be_positive(self, field, value):
        with pytest.raises(ValidationError, match="must be positive"):
            SlopeTarget(**{field: value})


class TestVandermonde:
    def test_scalar_case(self):
        check = vandermonde_sigma_check([3.7])
        assert check.actual == 1.0
        assert check.lower_bound == 1.0

    def test_two_nodes_frozen_value(self):
        # sigma_min of [[1, 1], [1, 2]]: singular values solve
        # s^4 - 7 s^2 + 1 = 0, so sigma_min = sqrt((7 - sqrt(45))/2).
        check = vandermonde_sigma_check([1.0, 2.0])
        want = math.sqrt((7.0 - math.sqrt(45.0)) / 2.0)
        assert check.actual == pytest.approx(want, rel=1e-12)
        assert check.actual == pytest.approx(0.3819660, abs=1e-7)
        assert check.separation == 1.0

    def test_squared_heights_m5(self, instance5):
        nodes = instance5.left_heights() ** 2
        check = vandermonde_sigma_check(nodes)
        assert check.actual > 0.0
        # Heights are Omega(1/sqrt(m))-separated, so squares separate at 1/m scale.
        assert check.separation >= 1.0 / instance5.m
        assert check.satisfied

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValidationError):
            vandermonde_sigma_check([1.0, 1.0, 2.0])
