"""The marginal's Hermite spectrum and the sums that read it: pairwise
correlation, adversarial SQ projection answers, and chi^2 as a cross-check
of its exact-density integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from oracles import chi_squared_series

from momentforge import (
    HiddenDirectionDist,
    PlantedTarget,
    ProjectionQuery,
    PushforwardDist,
    SeriesTruncationError,
    SlopeTarget,
    SqOracle,
    chi_squared_vs_gaussian,
    evolve,
    hermite_rule,
    layout,
    pairwise_correlation,
    reduce_rule,
)
from momentforge import verify as verify_module
from momentforge.bumps import instance_pushforward_moment
from momentforge.gaussian import gaussian_density, gaussian_moment
from momentforge.integrate import panel_integrate_1d
from momentforge.sq import _clipped_power

property_settings = settings(max_examples=30, deadline=None, derandomize=True)


class TestSpectrum:
    def test_mass_and_mirror_symmetry(self, dist5):
        coeffs = dist5.hermite_spectrum(2000)
        assert abs(coeffs[0] - 1.0) <= 1e-15
        assert np.max(np.abs(coeffs[1::2])) <= 1e-15

    def test_low_orders_at_moment_residual_level(self, dist5):
        # a_k = sum_j c_kj E[f^j] and sum_j c_kj E[g^j] = 0, so a_k is the
        # same combination of the moment residuals E[f^j] - E[g^j].
        inst = dist5.inst
        coeffs = dist5.hermite_spectrum(inst.m)
        residuals = np.array(
            [0.0]
            + [
                instance_pushforward_moment(inst, j) - gaussian_moment(j)
                for j in range(1, inst.m + 1)
            ]
        )
        for k in range(1, inst.m + 1):
            poly = hermite_e.herme2poly(np.eye(k + 1)[k]) / math.sqrt(math.factorial(k))
            assert abs(coeffs[k] - poly @ residuals[: k + 1]) <= 1e-15
            assert abs(coeffs[k]) <= np.abs(poly) @ np.abs(residuals[: k + 1]) + 1e-15
        # The first coefficient the layout does not match is large.
        assert abs(dist5.hermite_spectrum(inst.m + 1)[inst.m + 1]) > 1e-4

    def test_grows_on_demand_with_the_same_bits(self, build5):
        _, evolved, _ = build5
        grown = PushforwardDist.from_instance(evolved, 0.05)
        grown.hermite_spectrum(7)
        grown.hermite_spectrum(40)
        fresh = PushforwardDist.from_instance(evolved, 0.05).hermite_spectrum(60)
        assert np.array_equal(grown.hermite_spectrum(60), fresh)

    def test_coefficients_obey_the_cramer_bound(self, dist5):
        coeffs = dist5.hermite_spectrum(3000)
        assert np.max(np.abs(coeffs[1:])) <= dist5.hermite_bound()


class TestSpectralSums:
    @pytest.mark.parametrize("m, eps0", [(5, 1e-6), (9, 1e-10), (13, 1e-12)])
    def test_chi_squared_matches_spectral_sum(self, m, eps0):
        # The exact-density integral against the Hermite series at
        # rho = scale^2, on the CLI's builds (ramps widened to 1000 eps0).
        tol = 1e-8
        initial = layout(reduce_rule(hermite_rule(m)), eps0, 1e-4)
        evolved, _ = evolve(initial, SlopeTarget(eps_target=1000.0 * eps0))
        dist = PushforwardDist.from_instance(evolved, 0.05)
        result = chi_squared_vs_gaussian(dist, tol_abs=tol)
        series = chi_squared_series(dist, tol)
        assert series.tail_bound <= tol
        assert abs(result.value - series.value) <= series.error_estimate
        assert 0.0 < result.error_estimate <= tol

    def test_chi_squared_tail_bound_holds(self, dist5):
        # Past R + 3 sigma the tail is measurable; the closed form must
        # bound the integral there.  It puts all mass on the outermost atom,
        # so it is loose by about 1 / p^2, p ~ 0.011 that atom's mass.
        radius, sigma = dist5.support_radius(), dist5.sigma
        near, far = radius + 3.0 * sigma, radius + 20.0 * sigma

        def integrand(x):
            dens = dist5.density(x)
            return dens * dens / gaussian_density(x)

        right, _ = panel_integrate_1d(integrand, np.linspace(near, far, 9), 1e-20)
        left, _ = panel_integrate_1d(integrand, np.linspace(-far, -near, 9), 1e-20)
        bound = verify_module._chi_squared_tail(dist5, near)
        assert 0.0 < right + left <= bound <= 1e5 * (right + left)
        # At the default breaks the tail is negligible.
        edge = dist5.law.panel_breaks()[-1]
        assert verify_module._chi_squared_tail(dist5, edge) <= 1e-30

    def test_correlation_carries_its_error(self, dist5):
        value = pairwise_correlation(dist5, 0.1, tol_abs=2e-8)
        assert 0.0 <= value.error <= 2e-8
        series = chi_squared_series(dist5, 2e-8, cosine=0.1)
        assert float(value) == series.value
        assert value.error == series.error_estimate

    def test_guard_names_the_term_count(self, build5):
        # At sigma = 1e-3 and cosine 0.999999, 1 - rho is about 2e-6 and the
        # certified correlation sum needs about 1.8e7 terms, beyond the 1e6
        # ceiling.
        _, evolved, _ = build5
        narrow = PushforwardDist.from_instance(evolved, 1e-3)
        with pytest.raises(SeriesTruncationError) as info:
            pairwise_correlation(narrow, 0.999999, 1e-8)
        assert info.value.terms > verify_module.SERIES_TERM_CEILING
        assert "K = " in str(info.value)


def planted_oracle(dist, cosine):
    d = 4
    v = np.zeros(d)
    v[0] = 1.0
    hidden = HiddenDirectionDist(d=d, v=v, marginal=dist)
    oracle = SqOracle(PlantedTarget(hidden), "adversarial", tau=0.01)
    u = np.zeros(d)
    u[0], u[1] = cosine, math.sqrt(1.0 - cosine * cosine)
    return oracle, hidden, u


@property_settings
@given(cosine=st.floats(-0.9, 0.9), j=st.integers(1, 5))
def test_series_answers_match_projected_quadrature(dist5, cosine, j):
    oracle, hidden, u = planted_oracle(dist5, cosine)
    fn = _clipped_power(j)
    query = ProjectionQuery(direction=u, fn=fn, label=f"t^{j}")
    value, path = oracle._true_expectation(query, oracle._target)
    assert path == "series"
    cos_uv = float(u @ hidden.v)
    want = dist5.projected(cos_uv).expectation(fn)
    assert value == pytest.approx(want, abs=1e-10)


# The ids name the oracle, STAT(tau), and the cosine.
@pytest.mark.parametrize("cosine", [0.5, 0.8, 0.9, -0.9], ids=lambda c: f"stat-{c}")
def test_series_answers_match_tight_quadrature(dist5, cosine):
    # The dot product of the spectrum with the query's Hermite projections
    # agrees with the exact projected density to rounding.
    oracle, hidden, u = planted_oracle(dist5, cosine)
    law = dist5.projected(float(u @ hidden.v))
    for j in range(1, 6):
        fn = _clipped_power(j)
        query = ProjectionQuery(direction=u, fn=fn, label=f"t^{j}")
        value, path = oracle._true_expectation(query, oracle._target)
        assert path == "series"
        want = law.expectation(fn, tol_abs=1e-13)
        assert abs(value - want) <= 1e-15
        assert abs(value - want) <= value.error
