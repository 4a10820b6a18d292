"""Whole-pipeline runs at other rule orders than the default m=5."""

import time

import numpy as np
import pytest
from oracles import ramp_end_breaks, ramp_end_features

from momentforge import (
    PushforwardDist,
    SlopeTarget,
    ValidationError,
    VerifyConfig,
    build_system,
    chi_squared_vs_gaussian,
    compile_instance,
    evolve,
    hermite_rule,
    instance_eval,
    layout,
    reduce_rule,
    tv_hidden_pair,
    verify_instance,
)
from momentforge import verify as verify_module
from momentforge.bumps import instance_pushforward_moment
from momentforge.gaussian import gaussian_moment

# The degree-m moment error scales like eps0 * h_max^m, so higher orders need
# smaller initial ramp widths to stay within the nu/2 construction budget.
CASES = [
    (3, 1e-6),
    (7, 1e-8),
    (9, 1e-9),
]

NU = 1e-4
SIGMA = 0.05


@pytest.mark.parametrize("m,eps0", CASES)
def test_full_pipeline(m, eps0):
    reduced = reduce_rule(hermite_rule(m))
    initial = layout(reduced, eps0, NU)
    evolved, trace = evolve(initial, SlopeTarget(eps_target=1e-3))
    assert trace.target_reached
    assert evolved.eps == pytest.approx(1e-3, rel=1e-12)

    # The flow conserves all tracked even moments and the mirror symmetry.
    assert trace.max_moment_drift() <= 1e-6
    for k in range(2, m, 2):
        drift = abs(
            instance_pushforward_moment(evolved, k)
            - instance_pushforward_moment(initial, k)
        )
        assert drift <= 1e-6
    for k in range(1, m + 1, 2):
        assert abs(instance_pushforward_moment(evolved, k)) <= 1e-12

    # Slopes shrink by the ramp growth factor while heights barely move.
    assert evolved.max_slope() <= 1.01 * initial.max_slope() * eps0 / 1e-3

    # Compiled network reproduces the evolved instance pointwise.
    net = compile_instance(evolved)
    z = np.random.default_rng(m).uniform(-5.0, 5.0, size=5000)
    hmax = float(np.max(np.abs(evolved.heights())))
    assert np.max(np.abs(net.eval(z) - instance_eval(evolved, z))) <= 1e-9 * max(
        1.0, hmax
    )

    # The smoothed pushforward matches Gaussian moments to nu up to degree m.
    dist = PushforwardDist.from_instance(evolved, SIGMA)
    for k in range(1, m + 1):
        assert abs(dist.moment(k) - gaussian_moment(k)) < NU


# The initial ramp width a CLI build uses: the default 1e-6 where layout
# accepts it, and from m = 7 on the eps0 that layout's error names there.
NAMED_EPS0 = {
    3: 1e-6, 5: 1e-6, 7: 2e-7, 9: 5.5e-9, 11: 1.1e-10, 13: 1.5e-12, 15: 1.7e-14
}
SWEEP_BUDGET_S = 60.0


def test_verify_defaults_pass_valid_builds():
    # verify at its default flags over odd m from 3 to 15, each evolved to
    # the CLI's default target 1000 eps0 and to the end of the branch
    # (eps target 1).  Every build passes but the m=3 end of the branch,
    # whose TV at cosine 0.5 sits under the floor by more than its error.
    start = time.perf_counter()
    verdicts = {}
    for m, eps0 in NAMED_EPS0.items():
        reduced = reduce_rule(hermite_rule(m))
        if eps0 != 1e-6:
            with pytest.raises(ValidationError, match=f"eps0={eps0:.1e} is feasible"):
                layout(reduced, 1e-6, NU)
        initial = layout(reduced, eps0, NU)
        for label, target in (("default", 1000.0 * eps0), ("end", 1.0)):
            evolved, trace = evolve(initial, SlopeTarget(eps_target=target))
            report = verify_instance(initial, evolved, VerifyConfig(), trace=trace)
            assert not report.errors, (m, label)
            assert all(c.passed for c in report.pairwise_corr), (m, label)
            verdicts[m, label] = report.all_passed()
            if (m, label) == (3, "end"):
                (tv,) = report.tv_separation
                assert tv.cosine == 0.5
                assert tv.margin == pytest.approx(-2.44e-3, abs=1e-5)
                assert tv.margin < -tv.error_estimate
                assert report.w1_flow_passed
    assert verdicts == {row: row != (3, "end") for row in verdicts}
    assert time.perf_counter() - start <= SWEEP_BUDGET_S


@pytest.fixture(scope="module")
def sweep_builds():
    """(m, build) -> (evolved instance, trace) for the rows of the sweep
    above."""
    builds = {}
    for m, eps0 in NAMED_EPS0.items():
        initial = layout(reduce_rule(hermite_rule(m)), eps0, NU)
        for label, target in (("default", 1000.0 * eps0), ("end", 1.0)):
            builds[m, label] = evolve(initial, SlopeTarget(eps_target=target))
    return builds


def test_end_of_branch_stops(sweep_builds):
    # Up to m=7 the supports collide first.  From m=9 on the branch ends at
    # one fold, where the second and third left bumps merge: the Jacobian
    # (k / h_i) Z' with unit-norm columns is near singular at the last
    # solved state (its condition is at most 94 at the collision stops).
    for m in NAMED_EPS0:
        evolved, trace = sweep_builds[m, "end"]
        assert not trace.target_reached, m
        if m <= 7:
            assert trace.stop_reason == "collision-guard", m
            continue
        assert trace.stop_reason == "fold: bumps 2 and 3", m
        last = evolved.with_state(trace.heights[-1], trace.eps_values[-1])
        system = build_system(last)
        jac = system.moment_orders[:, None] * system.Z.T * system.inv_heights
        assert np.linalg.cond(jac / np.linalg.norm(jac, axis=0)) > 1e8, m


def test_marginal_features_are_distinct(sweep_builds):
    # Each feature is bracketed at multiples of sigma, so a second copy of a
    # point, off by rounding, adds only slivers of panels.
    for row, (evolved, _) in sweep_builds.items():
        dist = PushforwardDist.from_instance(evolved, VerifyConfig.sigma)
        assert np.all(np.diff(dist.law.feature_points()) > 1e-9), row


@pytest.mark.parametrize("row", [(5, "default"), (9, "end"), (15, "default")])
def test_atom_breaks_agree_with_ramp_end_breaks(sweep_builds, monkeypatch, row):
    # Each ramp end, recomputed as slope * g + intercept, lies within that
    # sum's rounding of an atom value (the slope scales it up to 1e-4 at
    # eps 1e-11), and chi^2 and TV on breaks that also bracket the ends
    # agree within their errors.
    dist = PushforwardDist.from_instance(sweep_builds[row][0], VerifyConfig.sigma)
    law = dist.law
    g, slope, intercept = law.ramps[:, :2], law.ramps[:, 2:3], law.ramps[:, 3:]
    ends = law.coef * (slope * g + intercept)
    rounding = 4.0 * np.finfo(float).eps * law.coef
    rounding *= np.abs(slope * g) + np.abs(intercept)
    gap = np.min(np.abs(ends[..., None] - law.feature_points()), axis=-1)
    assert np.all(gap <= rounding)
    assert len(ramp_end_features(law)) > len(law.feature_points())
    chi, tv = chi_squared_vs_gaussian(dist), tv_hidden_pair(dist, 0.5)
    monkeypatch.setattr(verify_module, "_ratio_breaks", ramp_end_breaks)
    chi_ref, tv_ref = chi_squared_vs_gaussian(dist), tv_hidden_pair(dist, 0.5)
    assert abs(chi.value - chi_ref.value) <= chi.error_estimate + chi_ref.error_estimate
    assert abs(tv - tv_ref) <= tv.error + tv_ref.error
