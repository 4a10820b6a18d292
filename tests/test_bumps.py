"""Bump functions, their pushforward moments, and the layout construction."""

import math
import re

import numpy as np
import pytest
from oracles import bump_moment_closed, reference_bump_moment, reference_bump_moment_deps
from scipy import integrate

from momentforge import (
    Bump,
    SlopeTarget,
    SupportCollisionError,
    ValidationError,
    bump_eval,
    bump_law,
    bump_moment,
    bump_moment_deps,
    bump_moment_dh,
    evolve,
    gaussian_quantile,
    hermite_rule,
    instance_eval,
    instance_pushforward_moment,
    layout,
    reduce_rule,
)
from momentforge import bumps
from momentforge.bumps import instance_value_law, law_moment
from momentforge.gaussian import gaussian_interval_mass, gaussian_moment

REFERENCE_BUMP = Bump(center=2.0, half_width=0.3, height=1.5, ramp=0.1)

# Higher orders track higher moments (error scales like eps * h_max^m), so the
# initial ramp width must shrink with m to stay inside the nu/2 budget.
EPS0_FOR_ORDER = {3: 1e-6, 5: 1e-6, 7: 1e-8, 9: 1e-9}


def quad_bump_moment(b: Bump, k: int) -> float:
    """Adaptive-quadrature oracle for E[T(g)^k]."""
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


def random_bump(rng, eps_lo=1e-6, eps_hi=0.1) -> Bump:
    return Bump(
        center=float(rng.uniform(-3.0, 3.0)),
        half_width=float(rng.uniform(0.05, 0.6)),
        height=float(rng.uniform(-3.0, 3.0)),
        ramp=float(np.exp(rng.uniform(np.log(eps_lo), np.log(eps_hi)))),
    )


class TestBumpEval:
    def test_piecewise_values(self):
        b = Bump(center=0.0, half_width=1.0, height=2.0, ramp=0.5)
        assert bump_eval(b, 0.3) == 2.0
        assert bump_eval(b, 1.25) == pytest.approx(1.0, abs=1e-15)
        assert bump_eval(b, 3.0) == 0.0
        assert bump_eval(b, -1.25) == pytest.approx(1.0, abs=1e-15)

    def test_ramp_free_limit(self):
        b = Bump(center=1.0, half_width=0.5, height=-2.0, ramp=0.0)
        assert bump_eval(b, 1.5) == -2.0  # closed plateau boundary
        assert bump_eval(b, 1.5000001) == 0.0
        assert bump_eval(b, 0.2) == 0.0

    def test_vectorized(self):
        b = Bump(center=0.0, half_width=1.0, height=2.0, ramp=0.5)
        z = np.array([0.3, 1.25, 3.0])
        assert np.allclose(bump_eval(b, z), [2.0, 1.0, 0.0], atol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            Bump(center=0.0, half_width=-0.1, height=1.0, ramp=0.1)
        with pytest.raises(ValidationError):
            Bump(center=math.inf, half_width=0.1, height=1.0, ramp=0.1)


class TestBumpMoment:
    def test_ramp_free_closed_form(self):
        b = Bump(center=1.2, half_width=0.4, height=-1.7, ramp=0.0)
        for k in (1, 2, 3, 4):
            want = (-1.7) ** k * gaussian_interval_mass(0.8, 1.6)
            assert bump_moment(b, k) == pytest.approx(want, rel=1e-14)

    def test_reference_bump_against_quadrature(self):
        got = bump_moment(REFERENCE_BUMP, 2)
        assert got == pytest.approx(quad_bump_moment(REFERENCE_BUMP, 2), rel=1e-9)

    def test_sign_symmetry(self):
        flipped = Bump(
            center=REFERENCE_BUMP.center,
            half_width=REFERENCE_BUMP.half_width,
            height=-REFERENCE_BUMP.height,
            ramp=REFERENCE_BUMP.ramp,
        )
        assert bump_moment(flipped, 2) == bump_moment(REFERENCE_BUMP, 2)
        assert bump_moment(flipped, 3) == -bump_moment(REFERENCE_BUMP, 3)

    def test_randomized_against_quadrature(self, rng):
        for _ in range(300):
            b = random_bump(rng)
            k = int(rng.integers(1, 11))
            want = quad_bump_moment(b, k)
            assert bump_moment(b, k) == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_order_validated(self):
        with pytest.raises(ValidationError):
            bump_moment(REFERENCE_BUMP, 0)


class TestMomentKernel:
    """bump_law's contractions against the per-order libm-pow kernel."""

    ORDERS = np.arange(1, 41)
    ULP = 2.0**-52

    def test_agrees_with_per_order_reference(self, rng):
        # Powers by k-1 products differ from pow by about k ulps, and every
        # term of one moment has one sign, so the moment bound is relative.
        # Mass derivatives mix signs; their bound is relative to |h|^k.
        for _ in range(300):
            b = random_bump(rng, eps_lo=1e-14, eps_hi=0.3)
            moments = bump_moment(b, self.ORDERS)
            deps = bump_moment_deps(b, self.ORDERS)
            for k, mu, dmu in zip(self.ORDERS.tolist(), moments, deps):
                want = reference_bump_moment(b, k)
                assert abs(mu - want) <= 4 * k * self.ULP * abs(want)
                want = reference_bump_moment_deps(b, k)
                assert abs(dmu - want) <= k * self.ULP * abs(b.height) ** k

    def test_order_array_matches_single_orders(self, rng):
        for _ in range(30):
            b = random_bump(rng, eps_lo=1e-14, eps_hi=0.3)
            for fn in (bump_moment, bump_moment_deps):
                single = [fn(b, k) for k in self.ORDERS.tolist()]
                assert np.array_equal(fn(b, self.ORDERS), single)
                assert all(type(v) is float for v in single)

    @pytest.mark.parametrize("fn", [bump_moment, bump_moment_deps])
    def test_order_below_one_in_array_rejected(self, fn):
        with pytest.raises(ValidationError):
            fn(REFERENCE_BUMP, np.array([2, 0, 4]))

    def test_law_atoms(self):
        b = REFERENCE_BUMP
        values, masses, mass_deps = bump_law(b)
        assert values.shape == masses.shape == mass_deps.shape == (65,)
        assert values[0] == b.height and masses[0] == b.plateau_mass
        assert mass_deps[0] == 0.0
        # The ramps hold the Gaussian mass of both ramp intervals.
        lo, hi = b.support
        ramps = gaussian_interval_mass(lo, hi) - b.plateau_mass
        assert masses[1:].sum() == pytest.approx(ramps, rel=1e-13)

    @pytest.mark.parametrize("m", sorted(EPS0_FOR_ORDER))
    def test_instance_law_matches_bump_moments(self, m):
        inst = layout(reduce_rule(hermite_rule(m)), EPS0_FOR_ORDER[m], 1e-4)
        orders = np.arange(1, 2 * m + 1)
        want = np.sum([bump_moment(b, orders) for b in inst.bumps], axis=0)
        values, masses = instance_value_law(inst)
        # Same products, summed in another order: each sum is within its
        # length's rounding of the sum of absolute terms.
        scale = law_moment(np.abs(values), masses, orders)
        tol = (2 * np.log2(values.size) + m) * self.ULP * scale
        got = instance_pushforward_moment(inst, orders)
        assert np.array_equal(got, law_moment(values, masses, orders))
        assert np.all(np.abs(got - want) <= tol)


class TestBumpMomentClosed:
    def test_agreement_with_quadrature_path(self):
        b = Bump(center=2.0, half_width=0.3, height=1.5, ramp=0.2)
        closed = bump_moment_closed(b, 2)
        assert closed.reliable
        assert closed.value == pytest.approx(bump_moment(b, 2), rel=1e-6)

    def test_k4_against_oracle(self):
        b = Bump(center=3.0, half_width=0.5, height=1.0, ramp=0.5)
        closed = bump_moment_closed(b, 4)
        assert closed.reliable
        assert closed.value == pytest.approx(quad_bump_moment(b, 4), rel=1e-6)

    def test_zero_height(self):
        b = Bump(center=2.0, half_width=0.3, height=0.0, ramp=0.2)
        assert bump_moment_closed(b, 2).value == 0.0

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            bump_moment_closed(Bump(0.5, 0.3, 1.0, 0.3), 2)  # support crosses 0
        with pytest.raises(ValidationError):
            bump_moment_closed(REFERENCE_BUMP, 3)  # odd order
        with pytest.raises(ValidationError):
            bump_moment_closed(Bump(2.0, 0.3, 1.5, 0.0), 2)  # no ramp

    def test_cancellation_flagged_unreliable(self):
        # (h/eps)^k is astronomically large: the printed form must flag itself.
        b = Bump(center=2.0, half_width=0.3, height=1.5, ramp=1e-6)
        closed = bump_moment_closed(b, 10)
        assert not closed.reliable
        assert closed.predicted_error > 1e-3


class TestBumpMomentDerivatives:
    def test_dh_identity(self):
        for k in (1, 2, 5):
            assert bump_moment_dh(REFERENCE_BUMP, k) == pytest.approx(
                (k / REFERENCE_BUMP.height) * bump_moment(REFERENCE_BUMP, k), rel=1e-14
            )

    def test_dh_finite_difference(self):
        step = 1e-6
        up = Bump(2.0, 0.3, 1.5 + step, 0.1)
        dn = Bump(2.0, 0.3, 1.5 - step, 0.1)
        fd = (bump_moment(up, 2) - bump_moment(dn, 2)) / (2 * step)
        assert bump_moment_dh(REFERENCE_BUMP, 2) == pytest.approx(fd, rel=1e-6)

    def test_dh_requires_nonzero_height(self):
        with pytest.raises(ValidationError):
            bump_moment_dh(Bump(2.0, 0.3, 0.0, 0.1), 2)

    def test_dh_plateau_only_first_order(self):
        b = Bump(center=1.0, half_width=0.4, height=2.5, ramp=0.0)
        want = gaussian_interval_mass(0.6, 1.4)
        assert bump_moment_dh(b, 1) == pytest.approx(want, rel=1e-13)

    def test_deps_finite_difference_spec_bump(self):
        step = 1e-7
        up = Bump(2.0, 0.3, 1.5, 0.1 + step)
        dn = Bump(2.0, 0.3, 1.5, 0.1 - step)
        fd = (bump_moment(up, 2) - bump_moment(dn, 2)) / (2 * step)
        assert bump_moment_deps(REFERENCE_BUMP, 2) == pytest.approx(fd, rel=1e-5)

    def test_deps_randomized_finite_difference(self, rng):
        for _ in range(100):
            b = random_bump(rng, eps_lo=1e-4)
            k = int(rng.integers(1, 9))
            step = min(1e-7, b.ramp / 10)
            up = Bump(b.center, b.half_width, b.height, b.ramp + step)
            dn = Bump(b.center, b.half_width, b.height, b.ramp - step)
            fd = (bump_moment(up, k) - bump_moment(dn, k)) / (2 * step)
            assert bump_moment_deps(b, k) == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_deps_bounded_by_height_power(self, rng):
        # Stability bound: |dM/d(ramp)| <= |h|^k for even k.
        for _ in range(1000):
            b = random_bump(rng)
            k = int(rng.choice([2, 4, 6, 8]))
            assert abs(bump_moment_deps(b, k)) <= abs(b.height) ** k + 1e-15

    def test_deps_zero_height(self):
        assert bump_moment_deps(Bump(2.0, 0.3, 0.0, 0.1), 2) == 0.0

    def test_deps_requires_ramp(self):
        with pytest.raises(ValidationError):
            bump_moment_deps(Bump(2.0, 0.3, 1.5, 0.0), 2)

    def test_moment_stability_inequality(self, rng):
        # |M(w,h',e') - M(w,h,e)| <= h^k (|(h'/h)^k - 1| + e' - e),
        # for same-sign heights and e' >= e, even k.
        for _ in range(300):
            b = random_bump(rng, eps_lo=1e-4)
            h = abs(b.height) + 0.1
            hp = h * float(rng.uniform(0.5, 1.5))
            ep = b.ramp * float(rng.uniform(1.0, 2.0))
            k = int(rng.choice([2, 4, 6]))
            base = Bump(b.center, b.half_width, h, b.ramp)
            moved = Bump(b.center, b.half_width, hp, ep)
            lhs = abs(bump_moment(moved, k) - bump_moment(base, k))
            rhs = h**k * (abs((hp / h) ** k - 1.0) + (ep - b.ramp))
            assert lhs <= rhs + 1e-12


class TestLayout:
    def test_m3_interval_bookkeeping(self):
        reduced = reduce_rule(hermite_rule(3))
        inst = layout(reduced, 1e-6, 1e-4)
        # gap mass 2/3: first interval starts at quantile(2/9) and carries
        # plateau mass 1/6.
        a1 = gaussian_quantile(2.0 / 9.0)
        b1 = gaussian_quantile(2.0 / 9.0 + 1.0 / 6.0)
        assert a1 == pytest.approx(-0.7647, abs=2e-4)
        assert b1 == pytest.approx(-0.2823, abs=2e-4)
        assert inst.intervals[0][0] == pytest.approx(a1, abs=1e-12)
        assert inst.intervals[0][1] == pytest.approx(b1, abs=1e-12)
        assert inst.bumps[0].center == pytest.approx((a1 + b1) / 2, abs=1e-12)
        assert inst.bumps[0].height == pytest.approx(-math.sqrt(3.0), abs=1e-12)
        # mirror image
        assert inst.intervals[1] == (-inst.intervals[0][1], -inst.intervals[0][0])

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_plateau_masses_match_weights(self, m):
        reduced = reduce_rule(hermite_rule(m))
        inst = layout(reduced, EPS0_FOR_ORDER[m], 1e-4)
        for b, lam in zip(inst.bumps, reduced.weights):
            mass = gaussian_interval_mass(
                b.center - b.half_width, b.center + b.half_width
            )
            assert mass == pytest.approx(lam, abs=1e-10)
        total = sum(
            gaussian_interval_mass(b.center - b.half_width, b.center + b.half_width)
            for b in inst.bumps
        )
        assert total == pytest.approx(1.0 - reduced.gap_mass, abs=1e-10)

    def test_plateau_mass_once_per_plateau(self, reduced5, monkeypatch):
        # The flow keeps every plateau, so a build computes m - 1 masses.
        calls = []
        real = bumps.gaussian_interval_mass

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(bumps, "gaussian_interval_mass", counted)
        bumps._plateau_mass.cache_clear()
        inst = layout(reduced5, 1e-6, 1e-4)
        evolved, _ = evolve(inst, SlopeTarget(eps_target=1e-3))
        assert len(calls) == inst.m - 1
        for b in evolved.bumps:
            c, w = b.center, b.half_width
            assert bump_law(b)[1][0] == real(c - w, c + w)

    def test_m3_ramp_free_moments_exact(self):
        reduced = reduce_rule(hermite_rule(3))
        inst = layout(reduced, 1e-6, 1e-4).with_state(
            np.array([-math.sqrt(3.0)]), 0.0
        )
        assert instance_pushforward_moment(inst, 2) == pytest.approx(1.0, abs=1e-13)
        assert instance_pushforward_moment(inst, 4) == pytest.approx(3.0, abs=1e-13)

    def test_collision_raises_with_pair(self):
        reduced = reduce_rule(hermite_rule(5))
        with pytest.raises(SupportCollisionError):
            layout(reduced, 0.5, 1e-4)

    def test_excess_initial_moment_error_rejected(self):
        reduced = reduce_rule(hermite_rule(5))
        with pytest.raises(ValidationError):
            layout(reduced, 5e-3, 1e-4)

    @pytest.mark.parametrize("m", [7, 9, 11, 13])
    def test_moment_error_names_a_feasible_eps0(self, m):
        # The default eps0 = 1e-6 is too wide for these orders; the error
        # names a width that layout accepts.
        reduced = reduce_rule(hermite_rule(m))
        with pytest.raises(ValidationError) as excinfo:
            layout(reduced, 1e-6, 1e-4)
        named = re.search(r"eps0=(\S+) is feasible", str(excinfo.value))
        assert named is not None
        inst = layout(reduced, float(named.group(1)), 1e-4)
        assert inst.eps < 1e-6

    @pytest.mark.parametrize("m, floor", [(17, 5.7e-4), (19, 0.21)])
    def test_moment_error_names_the_ramp_free_floor(self, m, floor):
        # From m=17 on the rounded plateau masses alone miss the moments by
        # more than nu/2, so no eps0 passes and the error says so.
        reduced = reduce_rule(hermite_rule(m))
        with pytest.raises(ValidationError) as excinfo:
            layout(reduced, 1e-6, 1e-4)
        named = re.search(
            r"ramp-free moment error is (\S+), so no eps0 passes", str(excinfo.value)
        )
        assert named is not None
        assert float(named.group(1)) == pytest.approx(floor, rel=0.01)

    @pytest.mark.parametrize("m, eps0", [(3, 1e-300), (5, 1e-200), (5, 1e-17)])
    def test_eps0_that_moves_no_edge_rejected(self, m, eps0):
        # A ramp narrower than the spacing of the floats at a plateau edge
        # leaves the edge where it is, so the build would claim a slope of
        # |h| / eps0 that its breakpoints do not have.
        reduced = reduce_rule(hermite_rule(m))
        with pytest.raises(ValidationError, match="leaves a plateau edge unmoved"):
            layout(reduced, eps0, 1e-4)

    def test_feasible_hint_names_no_refused_eps0(self, monkeypatch):
        # With a moment error linear in eps0 and no ramp-free floor, the
        # scaled-down eps0 would pass the moments but move no edge; the hint
        # must not name it.
        monkeypatch.setattr(bumps, "_moment_error", lambda inst, eps: 1e10 * eps)
        reduced = reduce_rule(hermite_rule(5))
        with pytest.raises(ValidationError) as excinfo:
            layout(reduced, 1e-15, 1e-12)
        message = str(excinfo.value)
        assert "is feasible" not in message
        assert "ramp-free moment error is 0.000e+00" in message

    def test_eps0_must_be_positive(self):
        reduced = reduce_rule(hermite_rule(3))
        with pytest.raises(ValidationError):
            layout(reduced, 0.0, 1e-4)

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_endpoints_bounded(self, m):
        # Supports reach only as far as the gap-mass tail quantile.
        reduced = reduce_rule(hermite_rule(m))
        inst = layout(reduced, EPS0_FOR_ORDER[m], 1e-4)
        tail = -gaussian_quantile(reduced.gap_mass / m)
        reach = max(abs(b.center) + b.half_width + b.ramp for b in inst.bumps)
        assert reach <= tail + 2 * inst.eps + 1e-12


class TestInstanceEval:
    def test_outside_supports_zero(self, instance5):
        gaps = []
        for left, right in zip(instance5.bumps[:-1], instance5.bumps[1:]):
            gaps.append(0.5 * (left.support[1] + right.support[0]))
        for z in gaps + [-10.0, 10.0]:
            assert instance_eval(instance5, z) == 0.0

    def test_plateau_center_values(self, instance5):
        for b in instance5.bumps:
            assert instance_eval(instance5, b.center) == pytest.approx(
                b.height, rel=1e-12
            )

    def test_odd_symmetry(self, instance5, rng):
        z = rng.uniform(-4.0, 4.0, size=1000)
        left = instance_eval(instance5, -z)
        right = -instance_eval(instance5, z)
        assert np.allclose(left, right, atol=1e-12)

    def test_disjoint_support_additivity(self, instance5, rng):
        z = rng.uniform(-4.0, 4.0, size=10_000)
        per_bump = np.stack([bump_eval(b, z) for b in instance5.bumps])
        nonzero = np.count_nonzero(per_bump, axis=0)
        assert nonzero.max() <= 1
        assert np.array_equal(instance_eval(instance5, z), per_bump.sum(axis=0))


class TestPushforwardMoments:
    def test_odd_moments_vanish(self, instance5):
        for k in (1, 3, 5, 7):
            assert abs(instance_pushforward_moment(instance5, k)) <= 1e-12

    def test_even_moments_close_to_gaussian(self, instance5):
        for k in (2, 4):
            err = abs(instance_pushforward_moment(instance5, k) - gaussian_moment(k))
            assert err < 1e-4

    def test_monte_carlo_agreement(self, instance5):
        n = 10_000_000
        g = np.random.default_rng(7).standard_normal(n)
        x = instance_eval(instance5, g)
        for k in (2, 3, 4):
            estimate = float(np.mean(x**k))
            se = float(np.std(x**k)) / math.sqrt(n)
            want = instance_pushforward_moment(instance5, k)
            assert abs(estimate - want) <= 4.0 * se
