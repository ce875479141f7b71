"""Closed-form decompositions: known instances, closure, and eigen-residuals."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tripow.families import (
    FAMILIES,
    FAMILY_A,
    FAMILY_ADAGGER,
    FAMILY_ANTI,
    FamilySpec,
    build_matrix,
)
from tripow.linalg import mat_identity, mat_inverse, mat_norm_maxabs
from tripow.spectral import (
    _SIGN4,
    ClosureError,
    _angle_grid,
    _cos_pi,
    _identity_generator,
    _row_weights,
    _sin_pi,
    decompose,
    eigenvalues,
    eigenvalues_a,
    eigenvalues_adagger,
    inv_transform_k,
    inv_transform_t,
    nodes_a,
    nodes_adagger,
    power_generator,
    sign_r,
    transform_k,
    transform_t,
)

from helpers import random_params

SQRT2 = math.sqrt(2)
SQRT5 = math.sqrt(5)


def valid_orders(family, orders):
    """The orders n that family admits: n >= 2 for "a", even n for "anti"."""
    return [
        n for n in orders
        if (family != FAMILY_A or n >= 2) and (family != FAMILY_ANTI or n % 2 == 0)
    ]


# Each family's eigenvector pair written out by hand, with its own weights:
# the bit-for-bit reference for the tables that one rule builds.
def grid_multiples(spec, first):
    """(i * q_k) mod 2L for rows i = first..first+n-1, and L."""
    q, period = _angle_grid(spec.family, spec.n)
    return np.outer(np.arange(first, first + spec.n), q) % (2 * period), period


def cosine_table(spec):
    """table[i, k] = T_i(cos theta_k) = cos(i * theta_k) for i = 0..n-1."""
    multiples, period = grid_multiples(spec, 0)
    return _cos_pi(np.arange(2 * period), period)[multiples]


def beta_weights(n):
    beta = np.full(n, 1.0 / (n - 1))
    beta[0] = beta[-1] = 1.0 / (2 * n - 2)
    return beta


def gamma_scales(n):
    gamma = np.full(n, 2.0)
    gamma[0] = 1.0
    return gamma


def sines(n):
    """sin(k*pi/(n+1)) for k = 1..n."""
    return _sin_pi(np.arange(1, n + 1), n + 1)


def reference_tables(spec):
    """(V, V^-1) of spec by its family's hand-written pair.

    "a": the cosine table with its last row halved, and beta_k * gamma_j
    times the unhalved table transposed.  "adagger" and "anti":
    sign_r(i) * sin((i+1) theta_k) / sin(theta_k), and the row weights
    2 sin(theta_k)**2 / (n+1) times it transposed.
    """
    n = spec.n
    if spec.family == FAMILY_A:
        vec = cosine_table(spec)
        vec[-1] *= 0.5
        return vec, (beta_weights(n)[:, None] * cosine_table(spec).T) * gamma_scales(n)
    multiples, period = grid_multiples(spec, 1)
    vec = _sin_pi(np.arange(2 * period), period)[multiples]
    vec /= sines(n)
    vec *= _SIGN4[np.arange(n) % 4, None]
    return vec, (2.0 * sines(n) ** 2 / (n + 1))[:, None] * vec.T


def table_functions(spec):
    """(V, V^-1) of spec by the public table functions of its family."""
    if spec.family == FAMILY_A:
        return transform_k(spec), inv_transform_k(spec)
    return transform_t(spec), inv_transform_t(spec)


def all_specs(rng, max_n=12):
    """One random spec per family and admissible dimension."""
    specs = []
    for n in range(2, max_n + 1):
        specs.append(FamilySpec(FAMILY_A, n, *random_params(rng)))
    for n in range(1, max_n + 1):
        specs.append(FamilySpec(FAMILY_ADAGGER, n, *random_params(rng)))
    for n in range(2, max_n + 1, 2):
        specs.append(FamilySpec(FAMILY_ANTI, n, *random_params(rng)))
    return specs


class TestSignPattern:
    def test_stated_values(self):
        assert sign_r(0) == 1
        assert sign_r(2) == -1
        assert sign_r(5) == 1

    def test_period_four(self):
        expected = [1, 1, -1, -1]
        for i in range(16):
            assert sign_r(i) == expected[i % 4]


class TestEigenvalues:
    def test_family_a_three(self):
        a, b = 0.3 + 1j, -1.5 + 0.25j
        lam = eigenvalues_a(FamilySpec(FAMILY_A, 3, a, b))
        np.testing.assert_allclose(lam, [a + 2 * b, a, a - 2 * b], atol=1e-14)

    def test_family_a_integer_case(self):
        lam = eigenvalues_a(FamilySpec(FAMILY_A, 4, 1.0, 2.0))
        np.testing.assert_allclose(lam, [5, 3, -1, -3], atol=1e-13)

    def test_family_a_two(self):
        a, b = 2.0, 0.5j
        lam = eigenvalues_a(FamilySpec(FAMILY_A, 2, a, b))
        np.testing.assert_allclose(lam, [a + 2 * b, a - 2 * b])

    def test_family_a_rejects_other_families(self):
        with pytest.raises(ValueError, match="family"):
            eigenvalues_a(FamilySpec(FAMILY_ADAGGER, 3, 1.0, 1.0))

    def test_adagger_three(self):
        a, b = 1.0 - 1j, 2.0
        lam = eigenvalues_adagger(FamilySpec(FAMILY_ADAGGER, 3, a, b))
        np.testing.assert_allclose(lam, [a - SQRT2 * b, a, a + SQRT2 * b], atol=1e-13)

    def test_adagger_four_surds(self):
        lam = eigenvalues_adagger(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 4.0))
        expected = [-1 - 2 * SQRT5, 3 - 2 * SQRT5, -1 + 2 * SQRT5, 3 + 2 * SQRT5]
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_adagger_single(self):
        lam = eigenvalues_adagger(FamilySpec(FAMILY_ADAGGER, 1, 5.0, 9.0))
        np.testing.assert_allclose(lam, [5.0], atol=1e-15)

    def test_adagger_accepts_anti(self):
        lam = eigenvalues_adagger(FamilySpec(FAMILY_ANTI, 4, 1.0, 4.0))
        np.testing.assert_allclose(lam, eigenvalues_adagger(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 4.0)))

    def test_adagger_rejects_family_a(self):
        with pytest.raises(ValueError):
            eigenvalues_adagger(FamilySpec(FAMILY_A, 3, 1.0, 1.0))

    @pytest.mark.parametrize("family", [FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI])
    def test_one_formula_for_every_family(self, family):
        spec = FamilySpec(family, 6, 0.3 + 1j, -1.5 + 0.25j)
        by_family = eigenvalues_a(spec) if family == FAMILY_A else eigenvalues_adagger(spec)
        assert np.array_equal(by_family.view(np.uint64), eigenvalues(spec).view(np.uint64))

    def test_eigenvalues_beyond_float_come_back_without_a_warning(self):
        # a + b*node overflows where node > 0.8; the callers refuse it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = eigenvalues(FamilySpec(FAMILY_ANTI, 4, 1e308, 1e308))
        assert not np.isfinite(lam).all()


class TestTransforms:
    def test_transform_k_three(self):
        k = transform_k(FamilySpec(FAMILY_A, 3, 0.0, 1.0))
        np.testing.assert_allclose(
            k, [[1, 1, 1], [1, 0, -1], [0.5, -0.5, 0.5]], atol=1e-15
        )

    def test_transform_k_first_row_ones(self):
        rng = np.random.default_rng(31)
        for n in range(2, 13):
            k = transform_k(FamilySpec(FAMILY_A, n, *random_params(rng)))
            np.testing.assert_array_equal(k[0], np.ones(n))

    def test_transform_k_columns_are_eigenvectors(self):
        rng = np.random.default_rng(32)
        spec = FamilySpec(FAMILY_A, 5, *random_params(rng))
        m = build_matrix(spec)
        lam = eigenvalues_a(spec)
        k = transform_k(spec)
        for j in range(5):
            residual = mat_norm_maxabs((m @ k[:, j] - lam[j] * k[:, j])[:, None])
            assert residual < 1e-9

    def test_transform_t_three(self):
        t = transform_t(FamilySpec(FAMILY_ADAGGER, 3, 0.0, 1.0))
        np.testing.assert_allclose(
            t, [[1, 1, 1], [-SQRT2, 0, SQRT2], [-1, 1, -1]], atol=1e-14
        )

    def test_transform_t_first_row_ones(self):
        rng = np.random.default_rng(33)
        for n in range(1, 13):
            t = transform_t(FamilySpec(FAMILY_ADAGGER, n, *random_params(rng)))
            np.testing.assert_array_equal(t[0], np.ones(n))

    def test_transform_t_columns_are_eigenvectors(self):
        rng = np.random.default_rng(34)
        spec = FamilySpec(FAMILY_ADAGGER, 6, *random_params(rng))
        m = build_matrix(spec)
        lam = eigenvalues_adagger(spec)
        t = transform_t(spec)
        for j in range(6):
            residual = mat_norm_maxabs((m @ t[:, j] - lam[j] * t[:, j])[:, None])
            assert residual < 1e-9


TABLE_ORDERS = list(range(1, 201)) + [1023, 1024, 2048]


class TestOneRule:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tables_are_the_hand_written_pair_bit_for_bit(self, family):
        for n in valid_orders(family, TABLE_ORDERS):
            spec = FamilySpec(family, n, 0.0, 1.0)
            for got, want in zip(table_functions(spec), reference_tables(spec)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (family, n)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_decompose_stores_the_table_functions_bit_for_bit(self, family):
        for n in valid_orders(family, range(1, 65)):
            spec = FamilySpec(family, n, 0.5 + 0.25j, 1.0 - 0.5j)
            data = decompose(spec)
            for got, want in zip((data.vec_matrix, data.inv_matrix), table_functions(spec)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (family, n)


class TestAnalyticInverses:
    def test_inv_transform_k_three(self):
        kinv = inv_transform_k(FamilySpec(FAMILY_A, 3, 0.0, 1.0))
        np.testing.assert_allclose(
            kinv, [[0.25, 0.5, 0.5], [0.5, 0.0, -1.0], [0.25, -0.5, 0.5]], atol=1e-15
        )

    def test_inv_transform_k_two(self):
        kinv = inv_transform_k(FamilySpec(FAMILY_A, 2, 0.0, 1.0))
        np.testing.assert_allclose(kinv, [[0.5, 1.0], [0.5, -1.0]], atol=1e-15)

    def test_closure_against_elimination_oracle(self):
        rng = np.random.default_rng(35)
        for n in (2, 3, 5, 8):
            spec = FamilySpec(FAMILY_A, n, *random_params(rng))
            k = transform_k(spec)
            np.testing.assert_allclose(
                inv_transform_k(spec), mat_inverse(k), atol=1e-10
            )
        for n in (1, 2, 3, 4, 7, 8):
            spec = FamilySpec(FAMILY_ADAGGER, n, *random_params(rng))
            t = transform_t(spec)
            np.testing.assert_allclose(
                inv_transform_t(spec), mat_inverse(t), atol=1e-10
            )

    def test_mu_weights_three(self):
        # first column of the analytic inverse carries the row weights
        tinv = inv_transform_t(FamilySpec(FAMILY_ADAGGER, 3, 0.0, 1.0))
        np.testing.assert_allclose(tinv[:, 0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_eta_weights_two(self):
        tinv = inv_transform_t(FamilySpec(FAMILY_ADAGGER, 2, 0.0, 1.0))
        np.testing.assert_allclose(tinv[:, 0], [0.5, 0.5], atol=1e-15)

    def test_eta_weights_four(self):
        tinv = inv_transform_t(FamilySpec(FAMILY_ADAGGER, 4, 0.0, 1.0))
        psi = -2.0 * np.cos(np.arange(1, 5) * np.pi / 5)
        np.testing.assert_allclose(tinv[:, 0], (4 - psi**2) / 10, atol=1e-15)
        t = transform_t(FamilySpec(FAMILY_ADAGGER, 4, 0.0, 1.0))
        assert mat_norm_maxabs(t @ tinv - mat_identity(4)) < 1e-12

    def test_paper_mu_and_eta_forms_equal_the_sine_form(self):
        # The paper writes the "adagger" row weights as mu (odd n), from
        # squared nodes of the opposite half of the spectrum, and as eta
        # (even n); both equal 2 sin(k pi/(n+1))**2 / (n+1).
        for n in range(1, 65):
            psi = -2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
            if n % 2 == 1:
                half = (n + 1) // 2
                paper = np.empty(n)
                for k in range(1, n + 1):
                    if k == half:
                        paper[k - 1] = 2.0 / (n + 1)
                    elif k <= (n - 1) // 2:
                        paper[k - 1] = psi[half + k - 1] ** 2 / (2 * n + 2)
                    else:
                        paper[k - 1] = psi[3 * (n + 1) // 2 - k - 1] ** 2 / (2 * n + 2)
            else:
                paper = (4.0 - psi**2) / (2 * n + 2)
            np.testing.assert_allclose(_row_weights(FAMILY_ADAGGER, n), paper, rtol=1e-12, atol=0)

    def test_row_weights_keep_relative_accuracy_at_the_edge_rows(self):
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("needs an extended-precision long double")
        pi = np.arccos(np.longdouble(-1))
        for n in (1023, 2048):
            k = np.arange(1, n + 1, dtype=np.longdouble)
            exact = 2 * np.sin(k * pi / (n + 1)) ** 2 / (n + 1)
            np.testing.assert_allclose(_row_weights(FAMILY_ADAGGER, n), exact, rtol=2e-15, atol=0)

    def test_closure_tight_for_small_cases(self):
        spec3 = FamilySpec(FAMILY_ADAGGER, 3, 0.0, 1.0)
        residual = mat_norm_maxabs(
            transform_t(spec3) @ inv_transform_t(spec3) - mat_identity(3)
        )
        assert residual < 1e-12


NODE_ORDERS = list(range(1, 65)) + [1023, 1024, 2048]


def node_cases():
    """(family, n, nodes, q, L) for both node families over NODE_ORDERS."""
    for n in NODE_ORDERS:
        if n >= 2:
            yield FAMILY_A, n, nodes_a(n), np.arange(n), n - 1
        yield FAMILY_ADAGGER, n, nodes_adagger(n), np.arange(n, 0, -1), n + 1


def rounded_angle_nodes(family, n):
    """The nodes as 2*cos of the rounded angle, the formula before the grid."""
    if family == FAMILY_A:
        return 2.0 * np.cos(np.arange(n) * np.pi / (n - 1))
    return -2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def weighted_generator(q, period, values):
    """sum_k values_k * cos(m * pi * q_k / L), m = 0..2L, by FFT of the even extension.

    values carry the inverse's weights; the end samples q = 0 and q = L are
    doubled and the sum halved, the form of the generator before the uniform
    weights 1/L.
    """
    grid = np.zeros(period + 1, dtype=np.complex128)
    grid[q] = values
    grid[0] *= 2.0
    grid[period] *= 2.0
    sums = np.fft.fft(np.concatenate((grid, grid[period - 1:0:-1]))) / 2.0
    return np.concatenate((sums[:period + 1], sums[period - 1::-1]))


def hand_identity_generator(family, n, size):
    """The identity's generator by hand, h_m for m = 0..size-1: the reference.

    Family "a": 1 where m is a multiple of 2(n-1), else 0.  Otherwise
    [n, 0, -1, 0, -1, ...] / (n+1), with n again where m is a multiple of
    2(n+1).
    """
    m = np.arange(size)
    if family == FAMILY_A:
        return (m % (2 * n - 2) == 0).astype(float)
    unit = np.where(m % 2 == 0, -1.0, 0.0)
    unit[m % (2 * n + 2) == 0] = n
    return unit / (n + 1)


class TestAngleGrid:
    def test_nodes_are_exactly_antisymmetric_with_an_exact_middle_zero(self):
        for family, n, nodes, _, _ in node_cases():
            np.testing.assert_array_equal(nodes, -nodes[::-1], err_msg=f"{family} n={n}")
            if n % 2 == 1:
                assert nodes[n // 2] == 0.0

    def test_nodes_are_twice_the_cosine_table_bit_for_bit(self):
        for family, n, nodes, _, _ in node_cases():
            if n >= 2:
                table = cosine_table(FamilySpec(family, n, 0.0, 1.0))
                np.testing.assert_array_equal(nodes, 2.0 * table[1], err_msg=f"{family} n={n}")

    def test_node_error_is_no_larger_than_the_rounded_angle_formula(self):
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("needs an extended-precision long double")
        pi = np.arccos(np.longdouble(-1))
        for family, n, nodes, q, period in node_cases():
            # 2*cos(pi*q/L) = 2*sin(pi*(L - 2q)/(2L)), exact at the middle.
            exact = 2 * np.sin((period - 2 * q).astype(np.longdouble) * pi / (2 * period))
            error = np.abs(nodes - exact)
            old_error = np.abs(rounded_angle_nodes(family, n) - exact)
            assert error.max() <= old_error.max(), f"{family} n={n}"
            # Full relative accuracy, also at the nodes nearest zero.
            assert np.all(error <= 4 * np.finfo(float).epsneg * np.abs(exact)), f"{family} n={n}"

    def test_inverse_weights_cancel_to_one_over_the_period(self):
        # w_k / (2 norm_k**2), with the grid ends doubled back, is 1/L: exactly
        # for the cosine rule, whose norms are 1, and within an ulp for the sine
        # rule's rounded 2 sin**2 / L / (2 sin**2).
        for n in NODE_ORDERS:
            if n >= 2:
                weights = _row_weights(FAMILY_A, n)
                weights[[0, -1]] *= 2.0
                np.testing.assert_array_equal(weights / 2.0, 1.0 / (n - 1))
            uniform = _row_weights(FAMILY_ADAGGER, n) / (2.0 * sines(n) ** 2)
            ulp = np.spacing(1.0 / (n + 1))
            assert np.abs(uniform - 1.0 / (n + 1)).max() <= ulp

    def test_generator_is_the_weighted_one_with_the_weights_one_over_the_period(self):
        # Family "a" keeps the beta-weighted generator bit for bit; the
        # "adagger" and "anti" ones take the exact 1/L for the rounded
        # 2 sin**2/(n+1) / (2 sin**2).
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 7, 32, 33, 256):
            lam = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            spec = FamilySpec(FAMILY_A, n, 0.0, 1.0)
            expected = weighted_generator(np.arange(n), n - 1, lam * beta_weights(n))
            np.testing.assert_array_equal(power_generator(spec, lam), expected)
            for family in (FAMILY_ADAGGER, FAMILY_ANTI):
                if family == FAMILY_ANTI and n % 2 == 1:
                    continue
                spec = FamilySpec(family, n, 0.0, 1.0)
                expected = weighted_generator(np.arange(n, 0, -1), n + 1, lam * (1.0 / (n + 1)))
                np.testing.assert_array_equal(power_generator(spec, lam), expected)

    def test_identity_generator_is_the_hand_formula_bit_for_bit(self):
        # 2L + 1 entries, as the closure check reads them, and over four periods.
        for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI):
            for n in range(1, 201):
                if (family == FAMILY_A and n < 2) or (family == FAMILY_ANTI and n % 2):
                    continue
                period = n - 1 if family == FAMILY_A else n + 1
                spec = FamilySpec(family, n, 0.0, 1.0)
                for size in (2 * period + 1, 8 * period + 3):
                    got = _identity_generator(spec, size)
                    want = hand_identity_generator(family, n, size)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (family, n)


class TestDecompose:
    def test_family_a_instance(self):
        data = decompose(FamilySpec(FAMILY_A, 3, 0.0, 1.0))
        np.testing.assert_allclose(data.eigenvalues, [2, 0, -2], atol=1e-15)
        np.testing.assert_allclose(data.vec_matrix, transform_k(data.spec))
        np.testing.assert_allclose(data.inv_matrix, inv_transform_k(data.spec))

    def test_adagger_instance_matches_surd_diagonal(self):
        data = decompose(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 4.0))
        expected = [-1 - 2 * SQRT5, 3 - 2 * SQRT5, -1 + 2 * SQRT5, 3 + 2 * SQRT5]
        np.testing.assert_allclose(data.eigenvalues, expected, atol=1e-12)

    def test_anti_uses_tridiagonal_twin(self):
        spec = FamilySpec(FAMILY_ANTI, 6, 1.0 + 1j, 2.0)
        twin = FamilySpec(FAMILY_ADAGGER, 6, 1.0 + 1j, 2.0)
        data = decompose(spec)
        assert data.spec == spec
        np.testing.assert_array_equal(transform_t(spec), transform_t(twin))
        np.testing.assert_array_equal(inv_transform_t(spec), inv_transform_t(twin))
        np.testing.assert_array_equal(data.vec_matrix, transform_t(twin))
        np.testing.assert_array_equal(data.eigenvalues, eigenvalues_adagger(twin))

    def test_eigenvalue_node_relation_is_exact(self):
        rng = np.random.default_rng(36)
        for spec in all_specs(rng, max_n=8):
            data = decompose(spec)
            np.testing.assert_array_equal(data.eigenvalues, spec.a + spec.b * data.nodes)

    def test_nodes_real_and_bounded(self):
        rng = np.random.default_rng(37)
        for spec in all_specs(rng):
            nodes = decompose(spec).nodes
            assert nodes.dtype.kind == "f"
            assert np.all(np.abs(nodes) <= 2.0 + 1e-15)

    def test_closure_everywhere(self):
        rng = np.random.default_rng(38)
        for spec in all_specs(rng):
            data = decompose(spec)
            residual = mat_norm_maxabs(
                data.vec_matrix @ data.inv_matrix - mat_identity(spec.n)
            )
            assert residual < 1e-9

    def test_closure_is_tight_at_n_1024(self):
        # Entries of V are single sines and cosines of exactly reduced
        # angles, so the closure error does not grow with the order.
        for family in (FAMILY_A, FAMILY_ADAGGER):
            data = decompose(FamilySpec(family, 1024, 0.5, 1.0))
            residual = mat_norm_maxabs(data.vec_matrix @ data.inv_matrix - mat_identity(1024))
            assert residual < 1e-14

    def test_reconstruction(self):
        rng = np.random.default_rng(39)
        count = 0
        for spec in all_specs(rng):
            data = decompose(spec)
            target_spec = (
                spec
                if spec.family != FAMILY_ANTI
                else FamilySpec(FAMILY_ADAGGER, spec.n, spec.a, spec.b)
            )
            m = build_matrix(target_spec)
            rebuilt = (data.vec_matrix * data.eigenvalues[None, :]) @ data.inv_matrix
            assert mat_norm_maxabs(rebuilt - m) < 1e-8 * mat_norm_maxabs(m)
            count += 1
        assert count >= 20

    def test_eigen_residuals_all_dimensions(self):
        rng = np.random.default_rng(40)
        for spec in all_specs(rng):
            data = decompose(spec)
            target_spec = (
                spec
                if spec.family != FAMILY_ANTI
                else FamilySpec(FAMILY_ADAGGER, spec.n, spec.a, spec.b)
            )
            m = build_matrix(target_spec)
            bound = 1e-8 * (1 + mat_norm_maxabs(m))
            for j in range(spec.n):
                v = data.vec_matrix[:, j]
                assert np.abs(m @ v - data.eigenvalues[j] * v).max() < bound

    @pytest.mark.parametrize("n", range(3, 9))
    def test_eigenvalues_match_characteristic_roots(self, n):
        from tripow.families import char_value_a, char_value_adagger

        rng = np.random.default_rng(41)
        a, b = random_params(rng)
        data_a = decompose(FamilySpec(FAMILY_A, n, a, b))
        for node in data_a.nodes:
            assert abs(char_value_a(n, node)) < 1e-9
        data_d = decompose(FamilySpec(FAMILY_ADAGGER, n, a, b))
        for node in data_d.nodes:
            assert abs(char_value_adagger(n, node)) < 1e-9

    def test_closure_error_is_raised_on_corruption(self, monkeypatch):
        # Force a bad row weight, and then a gather whose row offset is off by
        # one, through the dense validation in decompose, and a grid on the
        # wrong period through the generator's validation in power_matrix,
        # which reads the angle grid and no row weight.
        import tripow.spectral as spectral_mod
        from tripow.powers import power_matrix

        specs = (
            FamilySpec(FAMILY_A, 4, 1.0, 1.0),
            FamilySpec(FAMILY_ADAGGER, 5, 1.0, 1.0),
            FamilySpec(FAMILY_ANTI, 4, 1.0, 1.0),
        )
        weights = spectral_mod._row_weights

        def corrupted(family, n):
            bad = weights(family, n)
            bad[0] *= 1.5
            return bad

        with monkeypatch.context() as patch:
            patch.setattr(spectral_mod, "_row_weights", corrupted)
            for spec in specs:
                with pytest.raises(ClosureError):
                    decompose(spec)

        for spec in specs:
            with monkeypatch.context() as patch:
                rule = spectral_mod._RULES[spec.family]
                shifted_rows = replace(rule, hankel_shift=rule.hankel_shift + 2)
                patch.setitem(spectral_mod._RULES, spec.family, shifted_rows)
                with pytest.raises(ClosureError):
                    decompose(spec)

        grid = spectral_mod._angle_grid

        def shifted(family, n):
            q, period = grid(family, n)
            return q, period + 1

        monkeypatch.setattr(spectral_mod, "_angle_grid", shifted)
        for spec in specs:
            with pytest.raises(ClosureError):
                power_matrix(spec, 2)
