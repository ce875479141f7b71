"""Fibonacci polynomial recurrence, determinant identity, and factorization."""

import re

import numpy as np
import pytest

from tripow.families import FAMILY_A, FamilySpec
from tripow.fibpoly import fib_det_check, fib_factor_eval, fib_poly_eval
from tripow.spectral import eigenvalues_a


class TestRecurrence:
    def test_integer_point(self):
        assert fib_poly_eval(5, 1.0) == pytest.approx(5.0)

    def test_quadratic(self):
        # x**2 + 1 at x = 2
        assert fib_poly_eval(3, 2.0) == pytest.approx(5.0)

    def test_order_zero(self):
        for x in (0.0, 1.5, 2j, -3 + 1j):
            assert fib_poly_eval(0, x) == 0.0

    def test_order_one(self):
        assert fib_poly_eval(1, 7j) == 1.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fib_poly_eval(-1, 1.0)

    def test_fibonacci_numbers_exact(self):
        prev, cur = 0, 1
        for n in range(41):
            assert fib_poly_eval(n, 1.0) == prev
            prev, cur = cur, prev + cur


class TestDeterminantIdentity:
    def test_hand_case(self):
        lhs, rhs = fib_det_check(3, 2.0)
        assert lhs == pytest.approx(16.0)
        assert rhs == pytest.approx(16.0)

    def test_zero_argument(self):
        lhs, rhs = fib_det_check(3, 0.0)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_order_six(self):
        lhs, rhs = fib_det_check(6, 1.0)
        assert rhs == pytest.approx(25.0)
        assert abs(lhs - rhs) < 1e-9

    def test_requires_order_three(self):
        with pytest.raises(ValueError):
            fib_det_check(2, 1.0)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_identity_over_complex_samples(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lhs, rhs = fib_det_check(n, x)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


class TestFactorization:
    def test_single_interior_factor(self):
        assert fib_factor_eval(3, 1.0) == pytest.approx(1.0)

    def test_integer_point(self):
        assert fib_factor_eval(5, 1.0) == pytest.approx(3.0)

    def test_survives_the_poles(self):
        for n in (5, 6, 9):
            for x in (2j, -2j):
                expected = fib_poly_eval(n - 1, x)
                assert abs(fib_factor_eval(n, x) - expected) < 1e-9 * (1 + abs(expected))

    def test_requires_order_three(self):
        with pytest.raises(ValueError):
            fib_factor_eval(2, 1.0)

    def test_vanishes_exactly_at_zero_for_odd_order(self):
        # F_{n-1}(0) = 0 for even n - 1: the middle node is exactly 0.0.
        for n in range(3, 100, 2):
            assert fib_factor_eval(n, 0) == 0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_recurrence_over_complex_samples(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            expected = fib_poly_eval(n - 1, x)
            assert abs(fib_factor_eval(n, x) - expected) < 1e-8 * (1 + abs(expected))


class TestEigenvalueProduct:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_product_equals_determinant(self, n):
        rng = np.random.default_rng(70 + n)
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = eigenvalues_a(FamilySpec(FAMILY_A, n, x, 1j))
        product = complex(np.prod(lam))
        det, _ = fib_det_check(n, x)
        assert abs(product - det) < 1e-8 * (1 + abs(det))


@pytest.mark.parametrize("evaluate", [fib_poly_eval, fib_factor_eval, fib_det_check])
@pytest.mark.parametrize(
    "x", [complex("inf"), complex("-inf"), complex("nan"), complex(0.5, float("inf"))]
)
def test_non_finite_x_is_refused(evaluate, x):
    with pytest.raises(ValueError, match=f"^{re.escape(f'x must be finite, got {x}')}$"):
        evaluate(5, x)


def test_the_order_is_checked_before_x():
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        fib_poly_eval(-1, complex("inf"))
    with pytest.raises(ValueError, match="^n must be at least 3$"):
        fib_factor_eval(2, complex("nan"))
    with pytest.raises(ValueError, match="^x must be finite, got"):
        fib_poly_eval(0, complex("nan"))
