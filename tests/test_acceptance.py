"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import bump_moment_closed
from scipy import integrate

from momentforge import (
    Bump,
    HiddenDirectionDist,
    NullTarget,
    PlantedTarget,
    PushforwardDist,
    SlopeTarget,
    SqOracle,
    bump_eval,
    bump_moment,
    bump_moment_deps,
    bump_moment_dh,
    chi_squared_vs_gaussian,
    compile_instance,
    distance_to_support,
    evolve,
    flow_direction,
    hermite_rule,
    instance_eval,
    layout,
    moment_vector,
    pairwise_correlation,
    reduce_rule,
    run_distinguisher,
    tv_hidden_pair,
    w1_empirical,
)
from momentforge.gaussian import double_factorial, gaussian_moment
from momentforge.integrate import feature_breakpoints, panel_integrate_1d
from momentforge.sq import answer_sequence, build_algorithm

NU = 1e-4
SIGMA = 0.05
TAU = 0.01


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(
            f"ACCEPTANCE {number:02d} FAIL {title} ({elapsed:.1f}s)", flush=True
        )
        raise
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE {number:02d} PASS {title} "
        f"({elapsed:.1f}s <= {budget_seconds:.0f}s)",
        flush=True,
    )
    assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s over budget"


def quad_bump_moment(b: Bump, k: int) -> float:
    lo, hi = b.support
    val, _ = integrate.quad(
        lambda z: bump_eval(b, z) ** k
        * math.exp(-z * z / 2.0)
        / math.sqrt(2.0 * math.pi),
        lo,
        hi,
        points=[b.center - b.half_width, b.center + b.half_width],
        epsabs=1e-300,
        epsrel=1e-12,
        limit=300,
    )
    return val


def test_criterion_01_quadrature_moment_matching():
    with criterion(1, "quadrature moment matching", 1.0):
        for m in (3, 5, 7, 9, 11):
            rule = hermite_rule(m)
            for k in range(2 * m):
                target = gaussian_moment(k)
                tol = 1e-9 * max(1.0, float(double_factorial(k - 1)))
                assert abs(rule.moment(k) - target) <= tol


def test_criterion_02_bump_moment_oracle_equivalence():
    with criterion(2, "bump-moment oracle equivalence", 30.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            b = Bump(
                center=float(rng.uniform(-3.0, 3.0)),
                half_width=float(rng.uniform(0.05, 0.6)),
                height=float(rng.uniform(-3.0, 3.0)),
                ramp=float(np.exp(rng.uniform(np.log(1e-6), np.log(0.1)))),
            )
            k = int(rng.integers(1, 11))
            assert bump_moment(b, k) == pytest.approx(
                quad_bump_moment(b, k), rel=1e-9, abs=1e-300
            )
        # Closed form agrees to 1e-6 relative in its stable regime.
        stable = 0
        while stable < 200:
            half_width = float(rng.uniform(0.1, 0.5))
            ramp = float(rng.uniform(0.05, 0.5))
            b = Bump(
                center=float(rng.uniform(half_width + ramp, 3.0)),
                half_width=half_width,
                height=float(rng.uniform(0.2, 3.0)),
                ramp=ramp,
            )
            k = int(rng.choice([2, 4, 6]))
            closed = bump_moment_closed(b, k)
            if not closed.reliable or closed.predicted_error > 1e-7:
                continue
            assert closed.value == pytest.approx(bump_moment(b, k), rel=1e-6)
            stable += 1


def test_criterion_03_derivative_identities():
    with criterion(3, "derivative identities", 30.0):
        rng = np.random.default_rng(303)
        for _ in range(500):
            b = Bump(
                center=float(rng.uniform(-3.0, 3.0)),
                half_width=float(rng.uniform(0.05, 0.6)),
                height=float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1, 1])),
                ramp=float(np.exp(rng.uniform(np.log(1e-4), np.log(0.1)))),
            )
            k = int(rng.integers(1, 9))
            # d/dh identity against finite differences of the moment path.
            step_h = 1e-6 * max(abs(b.height), 1.0)
            up = Bump(b.center, b.half_width, b.height + step_h, b.ramp)
            dn = Bump(b.center, b.half_width, b.height - step_h, b.ramp)
            fd_h = (bump_moment(up, k) - bump_moment(dn, k)) / (2 * step_h)
            assert bump_moment_dh(b, k) == pytest.approx(fd_h, rel=1e-5, abs=1e-12)
            # d/d(ramp) against finite differences.
            step_e = min(1e-7, b.ramp / 10.0)
            up_e = Bump(b.center, b.half_width, b.height, b.ramp + step_e)
            dn_e = Bump(b.center, b.half_width, b.height, b.ramp - step_e)
            fd_e = (bump_moment(up_e, k) - bump_moment(dn_e, k)) / (2 * step_e)
            assert bump_moment_deps(b, k) == pytest.approx(fd_e, rel=1e-5, abs=1e-12)
            # Stability bound for even orders.
            k_even = int(rng.choice([2, 4, 6, 8]))
            assert abs(bump_moment_deps(b, k_even)) <= abs(b.height) ** k_even + 1e-15


def test_criterion_04_flow_conservation(instance5):
    with criterion(4, "flow conservation", 120.0):
        evolved, trace = evolve(
            instance5, SlopeTarget(eps_target=1e-3), project=False
        )
        assert trace.target_reached
        assert evolved.max_slope() <= 1e-3 * instance5.max_slope() * (1 + 1e-9)
        # Even tracked moments drift at most 1e-6 over the run (raw flow).
        assert trace.max_moment_drift() <= 1e-6
        # Odd moments vanish at every recorded step.
        from momentforge.bumps import instance_pushforward_moment

        for idx in np.linspace(0, len(trace.times) - 1, 8).astype(int):
            state = instance5.with_state(trace.heights[idx], trace.eps_values[idx])
            for k in (1, 3, 5):
                assert abs(instance_pushforward_moment(state, k)) <= 1e-12
        # Conditioning stayed above the floor throughout (the run would have
        # aborted otherwise); the recorded values must be comfortably positive.
        sig = np.array(trace.sigma_mins)
        assert np.min(sig) >= 1e-12 * np.max(sig)
        assert np.min(sig) > 0.0


def test_criterion_05_directional_derivative_nullity(build5):
    with criterion(5, "directional-derivative nullity", 60.0):
        initial, _, trace = build5
        indices = np.linspace(0, len(trace.times) - 1, 20).astype(int)
        for idx in indices:
            t = trace.times[idx]
            h = trace.heights[idx]
            eps = trace.eps_values[idx]
            w = flow_direction(t, h, initial)
            delta = min(1e-7, eps / 10.0)
            mu_up = moment_vector(initial.with_state(h + delta * w, eps + delta))
            mu_dn = moment_vector(initial.with_state(h - delta * w, eps - delta))
            directional = (mu_up - mu_dn) / (2 * delta)
            assert np.max(np.abs(directional)) <= 1e-6


def test_criterion_06_network_fidelity(build5):
    with criterion(6, "network fidelity and weight bound", 10.0):
        initial, evolved, _ = build5
        net = compile_instance(evolved)
        rng = np.random.default_rng(606)
        z = rng.uniform(-5.0, 5.0, size=10_000)
        hmax = float(np.max(np.abs(evolved.heights())))
        err = np.max(np.abs(net.eval(z) - instance_eval(evolved, z)))
        assert err <= 1e-9 * max(1.0, hmax)
        fact_bound = max(
            (abs(b.height) / b.ramp)
            * max(1.0, abs(b.center) + b.ramp + b.half_width)
            for b in evolved.bumps
        )
        assert net.weight_bound == fact_bound
        # A slope-target run lands at or below its target.
        slope_target = 1e4
        shaped, shaped_trace = evolve(initial, SlopeTarget(slope_target=slope_target))
        assert shaped_trace.target_reached
        assert shaped.max_slope() <= slope_target


def test_criterion_07_low_degree_moments(dist5):
    with criterion(7, "smoothed pushforward moment matching", 120.0):
        # Quadrature route: integrate x^k against the closed-form density.
        bound = dist5.law.integration_bound()
        breaks = feature_breakpoints(
            -bound, bound, dist5.law.feature_points(), dist5.sigma
        )
        for k in range(1, 6):
            val, _ = panel_integrate_1d(
                lambda x, k=k: x**k * dist5.density(x), breaks, 1e-10
            )
            assert abs(val - gaussian_moment(k)) < NU
            assert abs(dist5.moment(k) - gaussian_moment(k)) < NU
        # Monte Carlo confirmation at n = 1e7 within 4 standard errors.
        n = 10_000_000
        samples = dist5.sample(n, seed=707)
        for k in range(1, 6):
            power = samples**k
            se = float(np.std(power)) / math.sqrt(n)
            assert abs(float(np.mean(power)) - dist5.moment(k)) <= 4.0 * se


def test_criterion_08_correlation_inequality(dist5):
    with criterion(8, "pairwise correlation inequality", 300.0):
        chi = chi_squared_vs_gaussian(dist5).value
        assert chi > 0.0
        m = dist5.inst.m
        for cosine in (0.05, 0.1, 0.2):
            value = pairwise_correlation(dist5, cosine, tol_abs=2e-8)
            bound = cosine ** (m + 1) * chi + NU**2
            margin = bound - value
            assert margin > 0.0, f"cosine {cosine}: margin {margin}"


def test_criterion_09_tv_separation_and_cheat(dist5):
    with criterion(9, "TV separation and oracle-v distinguisher", 300.0):
        tv = tv_hidden_pair(dist5, 0.5, tol_abs=1e-4)
        bound = 1.0 - 2.0 * SIGMA * math.log(1.0 / SIGMA) - 0.05
        assert tv >= bound

        d = 50

        def factory(kind, trial):
            rng = np.random.default_rng(9000 + trial)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
            target = PlantedTarget(hd) if kind == "planted" else NullTarget(d)
            return SqOracle(target, "honest", tau=TAU, seed=9100 + trial), hd

        result = run_distinguisher("oracle-v", factory, trials=40, seed=909, tau=TAU)
        assert result.advantage >= 0.8


def test_criterion_10_wasserstein_checks(build5):
    with criterion(10, "Wasserstein flow and support-distance checks", 120.0):
        initial, evolved, trace = build5
        n = 1_000_000
        d0 = PushforwardDist.from_instance(initial, 0.0)
        dt = PushforwardDist.from_instance(evolved, 0.0)
        w1 = w1_empirical(d0.sample(n, seed=1001), dt.sample(n, seed=1002))
        height_drift = float(np.max(np.abs(evolved.heights() - initial.heights())))
        horizon = evolved.eps - initial.eps
        assert w1 <= height_drift + 3.0 * evolved.m * horizon

        support_dist = PushforwardDist.from_instance(evolved, 0.01)
        result = distance_to_support(support_dist, 0.5, threshold_coef=0.1)
        assert result.threshold == pytest.approx(0.1 / math.sqrt(evolved.m))
        assert result.exceedance_probability >= 0.2


def test_criterion_11_sq_indistinguishability(dist5):
    with criterion(11, "SQ indistinguishability demonstration", 600.0):
        d = 50
        assert TAU >= 100 * NU

        def factory(kind, trial, mode):
            rng = np.random.default_rng(1100 + trial)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            hd = HiddenDirectionDist(d=d, v=v, marginal=dist5)
            target = PlantedTarget(hd) if kind == "planted" else NullTarget(d)
            return SqOracle(target, mode, tau=TAU, seed=1200 + trial), hd

        # Adversarial mode: paired planted/null oracles answer bitwise
        # identically, so the advantage is exactly zero.
        for algo_id in ("moment-scan", "random-projection-moment"):
            correct = 0
            pairs = 16
            for trial in range(pairs):
                algo = build_algorithm(algo_id, d, seed=1300 + trial, tau=TAU)
                planted_oracle, _ = factory("planted", trial, "adversarial")
                null_oracle, _ = factory("null", trial, "adversarial")
                a_p = answer_sequence(planted_oracle, algo)
                a_n = answer_sequence(null_oracle, algo)
                assert a_p == a_n, f"{algo_id}: answer sequences differ"
                correct += int(algo.decide(a_p) is True)
                correct += int(algo.decide(a_n) is False)
            advantage = correct / pairs - 1.0
            assert advantage == 0.0

        # Honest mode: advantage stays at or below 0.1 over >= 100 trials.
        for algo_id in ("moment-scan", "random-projection-moment"):
            result = run_distinguisher(
                algo_id,
                lambda kind, trial: factory(kind, trial, "honest"),
                trials=100,
                seed=1110,
                tau=TAU,
            )
            assert abs(result.advantage) <= 0.1, f"{algo_id}: {result.advantage}"
