"""Adaptive panel integrators: closed forms and the integrand row contract."""

import math

import numpy as np
import pytest

from momentforge import QuadratureError, ValidationError
from momentforge.integrate import (
    feature_breakpoints,
    panel_integrate_1d,
    panel_integrate_2d,
)


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
        # Per order, the initial pass makes one call per row: one x panel's
        # nodes against the joined nodes of every y panel.
        seen = []

        def integrand(gx, gy):
            seen.append((gx.shape, gy.shape))
            return np.outer(np.cos(gx), 1.0 + gy * gy)

        value, _ = panel_integrate_2d(integrand, [0.0, 1.0], [-1.0, 0.5, 2.0], 1e-12)
        want = math.sin(1.0) * (3.0 + (8.0 + 1.0) / 3.0)
        assert value == pytest.approx(want, abs=1e-12)
        order = 16
        assert seen[:2] == [((order,), (2 * order,)), ((2 * order,), (4 * order,))]
        row_shapes = {((n,), (k * n,)) for n in (order, 2 * order) for k in (1, 2)}
        assert set(seen[2:]) <= row_shapes

    def test_refinement_sweeps_the_split_box(self):
        # Refinement lists one box with its split side halved: two rows of
        # one y panel after an x split, one row of both y halves after a y
        # split.  Kinks off the panel edges force both kinds of split.
        seen = []

        def integrand(gx, gy):
            seen.append((gx.shape, gy.shape))
            return np.outer(np.abs(gx - 0.3), np.abs(gy - 0.2))

        value, _ = panel_integrate_2d(integrand, [0.0, 1.0], [-1.0, 0.5, 2.0], 1e-8)
        want = (0.3**2 + 0.7**2) / 2.0 * (1.2**2 + 1.8**2) / 2.0
        assert value == pytest.approx(want, abs=1e-8)
        order = 16
        row_shapes = {((n,), (k * n,)) for n in (order, 2 * order) for k in (1, 2)}
        assert set(seen[2:]) == row_shapes

    def test_rows_match_scalar_integrals(self):
        # A trailing output axis survives the contraction of both node axes.
        kernels = [correlated_gaussian_kernel(rho) for rho in (0.0, 0.5)]
        breaks = np.linspace(-15.0, 15.0, 4)

        def rows(gx, gy):
            return np.stack([kernel(gx, gy) for kernel in kernels], axis=-1)

        values, _ = panel_integrate_2d(rows, breaks, breaks, 1e-10)
        assert values.shape == (2,)
        for kernel, value in zip(kernels, values):
            want, _ = panel_integrate_2d(kernel, breaks, breaks, 1e-10)
            assert value == pytest.approx(want, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            panel_integrate_2d(
                correlated_gaussian_kernel(0.5), [-15.0, 15.0], [-15.0, 15.0],
                1e-12, max_panels=2,
            )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("fill", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, fill):
        # A NaN estimate compares false against the tolerance; it must not
        # pass for a converged one.
        with pytest.raises(QuadratureError, match="reached nan"):
            panel_integrate_2d(
                lambda gx, gy: np.full((gx.size, gy.size), fill), [0.0, 1.0], [0.0, 1.0], 1e-8
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
        assert set(seen[2:]) <= {(2 * order,), (4 * order,)}

    def test_refines_past_the_initial_panels(self):
        # A kink off the panel edges forces refinement after the batched pass;
        # each refinement call joins the nodes of both halves.
        seen = []

        def integrand(x):
            seen.append(x.shape)
            return np.abs(x - 0.3)

        value, _ = panel_integrate_1d(integrand, [-1.0, 1.0], 1e-9)
        assert value == pytest.approx((1.3**2 + 0.7**2) / 2.0, abs=1e-9)
        order = 24
        assert set(seen[2:]) == {(2 * order,), (4 * order,)}

    def test_rows_match_scalar_integrals(self):
        # A trailing output axis integrates each row; a panel's error is its
        # largest row gap, so the returned error bounds every row's error.
        tol = 1e-9
        rows = [
            lambda x: np.abs(x - 0.3),
            lambda x: np.exp(-x * x / 2.0),
            lambda x: np.cos(5.0 * x),
        ]
        exact = [
            (1.3**2 + 0.7**2) / 2.0,
            math.sqrt(2.0 * math.pi) * math.erf(1.0 / math.sqrt(2.0)),
            2.0 * math.sin(5.0) / 5.0,
        ]
        values, err = panel_integrate_1d(
            lambda x: np.stack([row(x) for row in rows], axis=-1), [-1.0, 1.0], tol
        )
        assert values.shape == (3,)
        assert err <= tol
        for row, value, want in zip(rows, values, exact):
            scalar, _ = panel_integrate_1d(row, [-1.0, 1.0], tol)
            assert abs(value - scalar) <= tol
            assert abs(value - want) <= err

    def test_one_row_is_the_scalar_integral(self):
        def kinked(x):
            return np.abs(x - 0.3)

        breaks = [-1.0, 1.0]
        (value,), err = panel_integrate_1d(lambda x: kinked(x)[:, None], breaks, 1e-9)
        assert (value, err) == panel_integrate_1d(kinked, breaks, 1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("fill", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, fill):
        with pytest.raises(QuadratureError, match="reached nan"):
            panel_integrate_1d(lambda x: np.full_like(x, fill), [0.0, 1.0], 1e-8)

    def test_one_nan_node_raises(self):
        def spiked(x):
            return np.where(x == x.max(), math.nan, x)

        with pytest.raises(QuadratureError):
            panel_integrate_1d(spiked, [-1.0, 0.0, 1.0], 1e-8)

    def test_jumps_become_breaks(self):
        breaks = feature_breakpoints(-1.0, 1.0, [], 1.0, jumps=(0.25, -3.0, 1.0))
        assert breaks.tolist() == [-1.0, 0.25, 1.0]
        # Breaks at the jumps of an indicator leave nothing to refine.
        calls = []

        def indicator(x):
            calls.append(x.size)
            return ((x >= 0.25) & (x <= 0.5)).astype(float)

        value, err = panel_integrate_1d(
            indicator, feature_breakpoints(-1.0, 1.0, [], 1.0, jumps=(0.25, 0.5)), 1e-12
        )
        assert value == pytest.approx(0.25, abs=1e-15)
        assert err <= 1e-15
        assert len(calls) == 2
