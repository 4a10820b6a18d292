"""Gaussian primitives and the discrete moment-matching rules."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from oracles import (
    double_fact_falling,
    p_poly,
    shifted_truncated_moment,
    truncated_moment,
)
from scipy import integrate
from scipy.special import ndtr

import momentforge
from momentforge import (
    QuadratureRule,
    ValidationError,
    gaussian_density,
    gaussian_quantile,
    hermite_rule,
    reduce_rule,
)
from momentforge.gaussian import (
    double_factorial,
    gaussian_cdf,
    gaussian_interval_mass,
    gaussian_moment,
)

SUPPORTED_ORDERS = (3, 5, 7, 9, 11, 17, 25, 41)


def quad_moment(k, a, b):
    """Independent adaptive-quadrature oracle for E[g^k 1{a<=g<=b}].

    For odd k on intervals straddling zero the symmetric part is removed
    analytically first, so the quadrature itself never has to cancel huge
    opposite-sign mass.
    """
    lo, hi = max(a, -40.0), min(b, 40.0)
    sign = 1.0
    if k % 2 == 1 and lo < 0.0 < hi:
        lo, hi = sorted((min(-lo, hi), max(-lo, hi)))
        sign = 1.0 if b >= -a else -1.0
        if lo == hi:
            return 0.0
    points = [0.0] if lo < 0.0 < hi else None
    val, _ = integrate.quad(
        lambda x: x**k * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
        lo,
        hi,
        points=points,
        epsabs=1e-300,
        epsrel=1e-13,
        limit=500,
    )
    return sign * val


class TestDensityCdfQuantile:
    def test_density_values(self):
        assert gaussian_density(0.0, 1.0) == pytest.approx(0.3989422804, abs=1e-10)
        assert gaussian_density(1.0, 1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12
        )
        assert gaussian_density(0.0, 0.25) == pytest.approx(0.7978845608, abs=1e-10)

    def test_density_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            gaussian_density(math.nan)
        with pytest.raises(ValidationError):
            gaussian_density(1.0, variance=0.0)

    def test_cdf_symmetry_and_value(self):
        assert ndtr(0.0) == 0.5
        assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert ndtr(1.96) == pytest.approx(0.9750021, abs=1e-7)

    def test_cdf_quantile_mutual_inverse(self):
        # Below p ~ 0.5 the CDF value retains full relative precision, so the
        # round trip must recover x to 1e-12 everywhere in [-8, 3.5].
        for x in np.linspace(-8.0, 3.5, 161):
            p = float(ndtr(x))
            assert abs(gaussian_quantile(p) - x) <= 1e-12

    def test_cdf_quantile_upper_tail_quantization(self):
        # For x beyond ~3.7 the value 1 - cdf(x) is smaller than a few ulps of
        # 1.0, so the round trip is limited by the quantization of p itself;
        # the recovered x must sit within that information bound.
        eps = np.finfo(float).eps
        for x in np.linspace(3.5, 8.0, 46):
            p = float(ndtr(x))
            bound = 1e-12 + eps / gaussian_density(x)
            assert abs(gaussian_quantile(p) - x) <= bound

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_quantile_domain(self, p):
        with pytest.raises(ValidationError):
            gaussian_quantile(p)


def bits(x):
    """The IEEE bit patterns of x, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).view(np.int64)


class TestIntervalMass:
    @staticmethod
    def ends(n=4000):
        """Ordered ends in both tails, across 0, and with lower end exactly 0."""
        x = np.random.default_rng(31).uniform(-40.0, 40.0, (2, n))
        a, b = np.minimum(*x), np.maximum(*x)
        a[::7], b[::7] = 0.0, np.abs(b[::7])
        a[1::7], b[1::7] = -0.0, np.abs(b[1::7])
        b[2::7] = a[2::7]
        return a, b

    def test_array_is_the_scalar_kernel_bit_for_bit(self):
        a, b = self.ends()
        assert np.any(a > 0.0) and np.any(b < 0.0) and np.any(a == 0.0)
        scalar = [gaussian_interval_mass(float(lo), float(hi)) for lo, hi in zip(a, b)]
        assert np.array_equal(bits(gaussian_interval_mass(a, b)), bits(np.array(scalar)))

    def test_upper_tail_from_a_lower_end_of_zero(self):
        # The tie rule: a >= 0 (so -0.0 and 0.0 too) takes the upper tail.
        # Equal ends give +0.0, never -0.0.
        a, b = self.ends()
        mass = gaussian_interval_mass(a, b)
        upper = a >= 0.0
        assert np.array_equal(bits(mass[upper]), bits((ndtr(-a) - ndtr(-b))[upper]))
        assert np.array_equal(bits(mass[~upper]), bits((ndtr(b) - ndtr(a))[~upper]))
        assert not np.any(np.signbit(mass))

    def test_broadcasts_and_returns_float_for_scalars(self):
        mass = gaussian_interval_mass(0.5, np.array([[0.5, 1.0], [2.0, 3.0]]))
        assert mass.shape == (2, 2) and mass[0, 0] == 0.0
        assert type(gaussian_interval_mass(-1.0, 1.0)) is float
        assert gaussian_cdf(0.0) == 0.5 and type(gaussian_cdf(0.3)) is float

    def test_within_two_ulps_of_the_cdf_difference(self):
        # The kernel and ndtr(b) - ndtr(a) are the same quantity written
        # through different tails; they differ by at most the rounding of
        # the larger CDF value, twice.
        a, b = self.ends()
        gap = np.abs(gaussian_interval_mass(a, b) - (ndtr(b) - ndtr(a)))
        assert np.all(gap <= 2.0 * np.spacing(np.maximum(ndtr(a), ndtr(b))))

    def test_out_of_order_rejected(self):
        with pytest.raises(ValidationError, match="2.0 > 1.0"):
            gaussian_interval_mass(2.0, 1.0)
        with pytest.raises(ValidationError, match="3.0 > 2.5"):
            gaussian_interval_mass(np.array([0.0, 3.0]), np.array([1.0, 2.5]))


SRC = Path(momentforge.__file__).resolve().parent


class TestScipyBoundary:
    """gaussian.py is the one module that touches scipy, so a replacement
    for scipy.special's ndtr and ndtri has one place to go."""

    def test_only_gaussian_imports_scipy_and_only_special(self):
        seen = {}
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    if name == "scipy" or name.startswith("scipy."):
                        seen.setdefault(path.name, set()).add(name)
        assert seen == {"gaussian.py": {"scipy.special"}}

    def test_import_loads_no_scipy_linalg(self):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import momentforge\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy.linalg' or m.startswith('scipy.linalg.')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestDoubleFactorials:
    def test_examples(self):
        assert double_fact_falling(5, 2) == 15
        assert double_fact_falling(4, 2) == 8
        for k in (0, 1, 4, 9):
            assert double_fact_falling(k, 0) == 1

    def test_negative_run_rejected(self):
        with pytest.raises(ValidationError):
            double_fact_falling(3, 3)

    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(7) == 105
        assert gaussian_moment(4) == 3.0
        assert gaussian_moment(5) == 0.0


class TestPPoly:
    def test_small_orders(self):
        for x in (-2.0, 0.0, 1.7):
            assert p_poly(1, x) == 1.0
        assert p_poly(2, 3.0) == 3.0
        assert p_poly(3, 2.0) == 6.0  # x^2 + 2

    def test_antiderivative_identity(self, rng):
        # d/dx[-p_k(x) gaussian(x)] = (x^k - E g^k) gaussian(x), checked by
        # central differences at random points.
        xs = rng.uniform(-3.0, 3.0, size=100)
        h = 1e-5
        for k in range(1, 11):
            for x in xs:
                lhs = -(
                    p_poly(k, x + h) * gaussian_density(x + h)
                    - p_poly(k, x - h) * gaussian_density(x - h)
                ) / (2 * h)
                rhs = (x**k - gaussian_moment(k)) * gaussian_density(x)
                assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


class TestTruncatedMoment:
    def test_examples(self):
        assert truncated_moment(2, -math.inf, math.inf) == pytest.approx(1.0, rel=1e-12)
        assert truncated_moment(2, -1.0, 1.0) == pytest.approx(
            0.1987480431, abs=1e-9
        )
        assert truncated_moment(3, 0.0, math.inf) == pytest.approx(
            0.7978845608, abs=1e-9
        )

    def test_order_rejected(self):
        with pytest.raises(ValidationError):
            truncated_moment(2, 1.0, -1.0)

    def test_against_quadrature(self, rng):
        for _ in range(200):
            k = int(rng.integers(0, 21))
            a, b = np.sort(rng.uniform(-10.0, 10.0, size=2))
            got = truncated_moment(k, a, b)
            want = quad_moment(k, a, b)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-30)

    def test_central_interval_high_order(self):
        # The worst cancellation regime for the antiderivative form.
        for k in (14, 16, 18, 20):
            got = truncated_moment(k, -1.0, 1.0)
            want = quad_moment(k, -1.0, 1.0)
            assert got == pytest.approx(want, rel=1e-9)

    def test_quadrature_fallback_above_order_20(self):
        got = truncated_moment(24, -2.0, 3.0)
        want = quad_moment(24, -2.0, 3.0)
        assert got == pytest.approx(want, rel=1e-9)


class TestShiftedTruncatedMoment:
    def test_examples(self):
        assert shifted_truncated_moment(1.0, 0.0, 2, -math.inf, math.inf) == (
            pytest.approx(1.0, rel=1e-12)
        )
        mass = float(ndtr(1.0) - ndtr(-1.0))
        assert shifted_truncated_moment(0.0, 2.0, 2, -1.0, 1.0) == pytest.approx(
            4.0 * mass, rel=1e-12
        )
        assert shifted_truncated_moment(2.0, 1.0, 2, -math.inf, math.inf) == (
            pytest.approx(5.0, rel=1e-12)
        )

    def test_odd_order_rejected(self):
        with pytest.raises(ValidationError):
            shifted_truncated_moment(1.0, 0.0, 3, -1.0, 1.0)

    def test_against_quadrature(self, rng):
        for _ in range(50):
            k = int(rng.choice([2, 4, 6]))
            c, d = rng.uniform(-2.0, 2.0, size=2)
            a, b = np.sort(rng.uniform(-5.0, 5.0, size=2))
            val, _ = integrate.quad(
                lambda x: (c * x + d) ** k * gaussian_density(x),
                a,
                b,
                epsabs=1e-300,
                epsrel=1e-13,
                limit=300,
            )
            assert shifted_truncated_moment(c, d, k, a, b) == pytest.approx(
                val, rel=1e-9, abs=1e-25
            )


class TestHermiteRule:
    def test_m3_closed_form(self):
        rule = hermite_rule(3)
        root = math.sqrt(3.0)
        assert np.allclose(rule.nodes, [-root, 0.0, root], atol=1e-12)
        assert np.allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)
        assert rule.moment(2) == pytest.approx(1.0, abs=1e-12)
        assert rule.moment(4) == pytest.approx(3.0, abs=1e-12)

    def test_m5_exactness_to_degree_9(self):
        rule = hermite_rule(5)
        for k in range(10):
            assert abs(rule.moment(k) - gaussian_moment(k)) <= 1e-10 * max(
                1.0, gaussian_moment(k)
            )

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_moment_matching_all_orders(self, m):
        # Tolerance scales with (k-1)!! for every k (the even-moment value),
        # which also bounds the intrinsic summation noise at odd k.
        rule = hermite_rule(m)
        for k in range(2 * m):
            tol = 1e-9 * max(1.0, float(double_factorial(k - 1)))
            assert abs(rule.moment(k) - gaussian_moment(k)) <= tol

    @pytest.mark.parametrize("m", range(3, 42, 2))
    def test_weights_relatively_accurate(self, m):
        # hermegauss takes weights proportional to 1/He_{m-1}(x)^2, independent
        # of the Jacobi eigenvectors and of the Christoffel sum.  The outer
        # weights are as small as 1e-30 at m=41, so only a relative check sees
        # their error.
        ref_nodes, ref_weights = hermegauss(m)
        ref_weights = ref_weights / ref_weights.sum()
        rule = hermite_rule(m)
        assert np.max(np.abs(np.array(rule.nodes) - ref_nodes)) <= 1e-13
        rel = np.abs(np.array(rule.weights) - ref_weights) / ref_weights
        assert np.max(rel) <= 1e-13

    @pytest.mark.parametrize("m", SUPPORTED_ORDERS)
    def test_structure(self, m):
        rule = hermite_rule(m)
        nodes = np.array(rule.nodes)
        assert nodes[(m - 1) // 2] == 0.0
        assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-12
        assert np.min(np.diff(nodes)) > 0.0
        assert min(rule.weights) > 0.0

    @pytest.mark.parametrize("m", [2, 4, 1, 43, -3])
    def test_invalid_orders(self, m):
        with pytest.raises(ValidationError):
            hermite_rule(m)


class TestReduceRule:
    def test_m3(self):
        reduced = reduce_rule(hermite_rule(3))
        root = math.sqrt(3.0)
        assert np.allclose(reduced.nodes, [-root, root], atol=1e-12)
        assert np.allclose(reduced.weights, [1 / 6, 1 / 6], atol=1e-12)
        assert reduced.gap_mass == pytest.approx(2 / 3, abs=1e-12)

    def test_m5_gap_mass(self):
        reduced = reduce_rule(hermite_rule(5))
        assert reduced.gap_mass == pytest.approx(8 / 15, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 7, 11])
    def test_moments_unchanged(self, m):
        rule = hermite_rule(m)
        reduced = reduce_rule(rule)
        for k in range(1, 2 * m):
            tol = 1e-12 * max(1.0, float(double_factorial(k - 1)))
            # The reduced rule's discrete moment, summed in mirror pairs.
            vals = np.array(reduced.weights) * np.array(reduced.nodes) ** k
            moment = float(0.5 * np.sum(vals + vals[::-1]))
            assert abs(moment - rule.moment(k)) <= tol

    def test_even_rule_rejected(self):
        nodes, weights = np.polynomial.hermite_e.hermegauss(4)
        weights = weights / weights.sum()
        rule = QuadratureRule(m=4, nodes=tuple(nodes), weights=tuple(weights))
        with pytest.raises(ValidationError):
            reduce_rule(rule)
