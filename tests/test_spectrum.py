"""The marginal's Hermite spectrum and the three sums that read it: chi^2,
pairwise correlation and adversarial SQ projection answers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e
from oracles import quadrature_chi_squared

from momentforge import (
    HiddenDirectionDist,
    PlantedTarget,
    ProjectionQuery,
    PushforwardDist,
    SeriesTruncationError,
    SqOracle,
    chi_squared_vs_gaussian,
    pairwise_correlation,
)
from momentforge import verify as verify_module
from momentforge.bumps import instance_pushforward_moment
from momentforge.gaussian import gaussian_moment
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

    def test_identity_marginal(self):
        coeffs = PushforwardDist.gaussian(0.05).hermite_spectrum(5)
        assert coeffs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_coefficients_obey_the_cramer_bound(self, dist5):
        coeffs = dist5.hermite_spectrum(3000)
        assert np.max(np.abs(coeffs[1:])) <= dist5.hermite_bound()


class TestSpectralSums:
    def test_chi_squared_matches_quadrature_oracle(self, dist5):
        tol = 1e-8
        want = quadrature_chi_squared(dist5, verify_module._plane_breaks(dist5, 8.0), tol)
        result = chi_squared_vs_gaussian(dist5, tol_abs=tol)
        assert result.value == pytest.approx(want, abs=tol)
        assert result.series.tail_bound <= tol
        assert result.series.tail_bound <= result.series.error_estimate <= 2 * tol

    def test_correlation_carries_its_error(self, dist5):
        value = pairwise_correlation(dist5, 0.1, tol_abs=2e-8)
        assert 0.0 <= value.error <= 2e-8
        assert float(value) == pytest.approx(
            verify_module.spectral_sum(dist5, 0.1 * dist5.scale**2, 2e-8).value, abs=0.0
        )

    def test_guard_names_the_term_count(self, build5):
        # At sigma = 1e-3, 1 - scale^2 = 1e-6 and the certified chi^2 sum
        # needs about 3.6e7 terms, beyond the 1e6 ceiling.
        _, evolved, _ = build5
        narrow = PushforwardDist.from_instance(evolved, 1e-3)
        with pytest.raises(SeriesTruncationError) as info:
            chi_squared_vs_gaussian(narrow)
        assert info.value.terms > verify_module.SERIES_TERM_CEILING
        assert "K = " in str(info.value)


def planted_oracle(dist, cosine, variant):
    d = 4
    v = np.zeros(d)
    v[0] = 1.0
    hidden = HiddenDirectionDist(d=d, v=v, marginal=dist)
    if variant == "stat":
        oracle = SqOracle(PlantedTarget(hidden), "adversarial", tau=0.01)
    else:
        oracle = SqOracle(PlantedTarget(hidden), "adversarial", t=1000.0)
    u = np.zeros(d)
    u[0], u[1] = cosine, math.sqrt(1.0 - cosine * cosine)
    return oracle, hidden, u


@property_settings
@given(
    cosine=st.floats(-0.9, 0.9),
    j=st.integers(1, 5),
    variant=st.sampled_from(["stat", "vstat-squared"]),
)
def test_series_answers_match_projected_quadrature(dist5, cosine, j, variant):
    oracle, hidden, u = planted_oracle(dist5, cosine, variant)
    fn = _clipped_power(j)
    squared = variant == "vstat-squared"
    query = ProjectionQuery(direction=u, fn=fn, label=f"t^{j}")
    value, path = oracle._true_expectation(query, oracle._target, squared=squared)
    assert path == "series"
    lo = 0.0 if squared else -1.0

    def clipped(t):
        out = np.clip(fn(t), lo, 1.0)
        return out * out if squared else out

    cos_uv = float(u @ hidden.v)
    want = dist5.projected(cos_uv).expectation(clipped)
    assert value == pytest.approx(want, abs=1e-10)
