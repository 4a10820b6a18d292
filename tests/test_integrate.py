"""Adaptive panel integrators: closed forms and the 2-D axis-node contract."""

import math

import numpy as np
import pytest

from momentforge import QuadratureError, ValidationError
from momentforge.integrate import panel_integrate_1d, panel_integrate_2d


def correlated_gaussian_kernel(rho):
    """exp(-(x^2 - 2 rho x y + y^2) / (2 (1 - rho^2))) on the panel grid;
    its integral over the plane is 2 pi sqrt(1 - rho^2)."""

    def kernel(gx, gy):
        x, y = gx[:, None], gy[None, :]
        return np.exp(-(x * x - 2.0 * rho * x * y + y * y) / (2.0 * (1.0 - rho * rho)))

    return kernel


class TestPanelIntegrate2D:
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.3, 0.9])
    def test_non_separable_closed_form(self, rho):
        # A wide box holds all but ~1e-40 of the mass, even at rho = 0.9.
        tol = 1e-10
        breaks = np.linspace(-15.0, 15.0, 4)
        value, err = panel_integrate_2d(
            correlated_gaussian_kernel(rho), breaks, breaks, tol
        )
        assert err <= tol
        assert value == pytest.approx(2.0 * math.pi * math.sqrt(1.0 - rho * rho), abs=tol)

    def test_integrand_receives_axis_vectors(self):
        seen = []

        def integrand(gx, gy):
            seen.append((gx.shape, gy.shape))
            return np.outer(np.cos(gx), 1.0 + gy * gy)

        value, _ = panel_integrate_2d(integrand, [0.0, 1.0], [-1.0, 0.5, 2.0], 1e-12)
        want = math.sin(1.0) * (3.0 + (8.0 + 1.0) / 3.0)
        assert value == pytest.approx(want, abs=1e-12)
        order = 16
        assert set(seen) <= {((order,), (order,)), ((2 * order,), (2 * order,))}

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            panel_integrate_2d(
                correlated_gaussian_kernel(0.5), [-15.0, 15.0], [-15.0, 15.0],
                1e-12, max_panels=2,
            )

    def test_needs_one_panel_per_axis(self):
        with pytest.raises(ValidationError):
            panel_integrate_2d(correlated_gaussian_kernel(0.0), [0.0], [0.0, 1.0], 1e-8)

    @pytest.mark.parametrize(
        "x_breaks, y_breaks",
        [([0.0, 1.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.5, 0.5])],
    )
    def test_unordered_breaks_rejected_on_every_axis(self, x_breaks, y_breaks):
        # Unchecked, a descending axis flips the sign of the integral.
        with pytest.raises(ValidationError):
            panel_integrate_2d(
                lambda gx, gy: np.ones((gx.size, gy.size)), x_breaks, y_breaks, 1e-8
            )


class TestPanelIntegrate1D:
    def test_initial_panels_share_one_call_per_order(self):
        seen = []

        def integrand(x):
            seen.append(x.shape)
            return np.exp(-x * x / 2.0)

        breaks = np.linspace(-12.0, 12.0, 9)
        value, err = panel_integrate_1d(integrand, breaks, 1e-12)
        assert value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-12)
        assert err <= 1e-12
        order = 24
        assert seen[:2] == [(8 * order,), (8 * 2 * order,)]
        assert set(seen[2:]) <= {(order,), (2 * order,)}

    def test_refines_past_the_initial_panels(self):
        # A kink off the panel edges forces refinement after the batched pass.
        value, _ = panel_integrate_1d(lambda x: np.abs(x - 0.3), [-1.0, 1.0], 1e-9)
        assert value == pytest.approx((1.3**2 + 0.7**2) / 2.0, abs=1e-9)
