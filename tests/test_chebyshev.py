"""The three-term Chebyshev recurrence as the reference for the angle-grid code.

The package evaluates T_i(cos t) = cos(i t) and U_i(cos t) = sin((i+1) t) /
sin(t) directly on each family's angle grid.  The recurrence below is how
the paper defines the polynomials: it is checked against those
trigonometric forms, and the transforms, the nodes and the characteristic
values are checked against it.
"""

import math

import numpy as np
import pytest

from tripow.families import FAMILY_A, FAMILY_ADAGGER, FamilySpec, _second_kind
from tripow.spectral import nodes_a, nodes_adagger, sign_r, transform_k, transform_t


def _recurrence(first: float, k: int, x):
    """Order k of p_0 = 1, p_1 = first * x, p_k = 2x p_{k-1} - p_{k-2}."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), first * x
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def cheb_t(k, x):
    return _recurrence(1.0, k, x)


def cheb_u(k, x):
    return _recurrence(2.0, k, x)


def assert_rows_follow_the_recurrence(table, first, x):
    """Rows 0 and 1 are 1 and first * x; later rows obey the recurrence."""
    np.testing.assert_array_equal(table[0], np.ones(x.size))
    np.testing.assert_allclose(table[1], first * x, rtol=0, atol=1e-15)
    residual = table[2:] - (2.0 * x * table[1:-1] - table[:-2])
    assert np.abs(residual).max(initial=0.0) <= 1e-12 * np.abs(table).max()


class TestFirstKind:
    def test_order_zero_is_one(self):
        for x in (-3.0, -1.0, 0.0, 0.7, 5.0):
            assert cheb_t(0, x) == 1.0

    def test_value_at_one(self):
        assert cheb_t(3, 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        # 2 * 0.25 - 1
        assert cheb_t(2, 0.5) == pytest.approx(-0.5)

    def test_cosine_identity(self):
        # T_k(cos t) = cos(k t)
        thetas = np.linspace(0.0, math.pi, 200)
        for k in range(13):
            values = cheb_t(k, np.cos(thetas))
            assert np.abs(values - np.cos(k * thetas)).max() < 1e-10


class TestSecondKind:
    def test_order_zero_is_one(self):
        for x in (-2.0, 0.0, 0.3):
            assert cheb_u(0, x) == 1.0

    def test_root_value(self):
        assert cheb_u(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_one(self):
        # U_k(1) = k + 1
        assert cheb_u(3, 1.0) == pytest.approx(4.0)

    def test_sine_identity(self):
        # U_k(cos t) = sin((k+1) t) / sin t
        thetas = np.linspace(0.0, math.pi, 202)[1:-1]
        for k in range(13):
            values = cheb_u(k, np.cos(thetas))
            expected = np.sin((k + 1) * thetas) / np.sin(thetas)
            assert np.abs(values - expected).max() < 1e-9


class TestTables:
    def test_t_table_matches_scalar(self):
        # transform_k, last-row halving undone, is the T table at the half-nodes.
        for n in range(2, 65):
            table = transform_k(FamilySpec(FAMILY_A, n, 0.0, 1.0))
            table[-1] *= 2.0
            assert_rows_follow_the_recurrence(table, 1.0, nodes_a(n) / 2.0)

    def test_u_table_matches_scalar(self):
        # transform_t, sign_r undone, is the U table at the half-nodes.
        for n in range(2, 65):
            table = transform_t(FamilySpec(FAMILY_ADAGGER, n, 0.0, 1.0))
            table *= np.array([sign_r(i) for i in range(n)])[:, None]
            assert_rows_follow_the_recurrence(table, 2.0, nodes_adagger(n) / 2.0)


class TestNodeSets:
    """The "adagger" half-nodes are the roots of U_n; the "a" ones are the
    extreme points of T_{n-1}."""

    def test_single_root(self):
        np.testing.assert_allclose(nodes_adagger(1) / 2.0, [0.0], atol=1e-15)

    def test_two_roots(self):
        np.testing.assert_allclose(nodes_adagger(2) / 2.0, [-0.5, 0.5])

    def test_three_roots(self):
        expected = [-math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2]
        roots = nodes_adagger(3) / 2.0
        np.testing.assert_allclose(roots, expected, atol=1e-15)
        assert np.abs(cheb_u(3, roots)).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 13))
    def test_roots_annihilate_and_lie_inside(self, n):
        roots = nodes_adagger(n) / 2.0
        assert np.all(np.abs(roots) < 1.0)
        assert np.all(np.diff(roots) > 0)
        assert np.abs(cheb_u(n, roots)).max() < 1e-10

    def test_extrema(self):
        np.testing.assert_allclose(nodes_a(3) / 2.0, [1.0, 0.0, -1.0], atol=1e-15)
        assert nodes_a(5)[0] == 2.0
        assert nodes_a(5)[-1] == -2.0

    def test_extrema_requires_two_points(self):
        with pytest.raises(ValueError):
            nodes_a(1)


class TestNormalizedRecurrence:
    """families._second_kind(n, alpha) = U_n(alpha / 2), behind char_value_*."""

    def test_hand_value(self):
        # alpha**2 - 1 at alpha = 3
        assert _second_kind(2, 3.0) == pytest.approx(8.0)

    def test_order_zero(self):
        assert _second_kind(0, 123.0) == 1.0

    def test_matches_second_kind(self):
        assert _second_kind(5, 1.2) == pytest.approx(cheb_u(5, 0.6), abs=1e-12)

    def test_identity_over_grid(self):
        for n in range(13):
            for alpha in np.linspace(-4.0, 4.0, 33):
                assert abs(_second_kind(n, alpha) - cheb_u(n, alpha / 2)) < 1e-10
