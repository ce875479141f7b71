"""Construction of the structured families and their characteristic values."""

import numpy as np
import pytest

from tripow.families import (
    FAMILY_A,
    FAMILY_ADAGGER,
    FAMILY_ANTI,
    FamilySpec,
    build_exchange,
    build_matrix,
    char_value_a,
    char_value_adagger,
)
from tripow.fibpoly import fib_det_check, fib_factor_eval, fib_poly_eval
from tripow.linalg import mat_det, mat_identity, mat_norm_maxabs
from tripow.spectral import nodes_a, nodes_adagger, sign_r

from helpers import random_params, same_bits


def loop_build(family, n, a, b):
    """The per-index loops build_matrix replaced, kept as its reference."""
    m = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(m, a)
    for k in range(1, n):
        value = b if family == FAMILY_A else (1.0 if k % 2 == 1 else -1.0) * b
        m[k - 1, k] = value
        m[k, k - 1] = value
    if family == FAMILY_A:
        m[0, 1] *= 2.0
        m[n - 2, n - 1] *= 2.0
    return m[::-1].copy() if family == FAMILY_ANTI else m


class TestFamilySpecValidation:
    def test_zero_b_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            FamilySpec(FAMILY_A, 3, 1.0, 0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            FamilySpec("bogus", 3, 1.0, 1.0)

    def test_non_positive_n(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            FamilySpec(FAMILY_ADAGGER, 0, 1.0, 1.0)

    def test_family_a_needs_two(self):
        with pytest.raises(ValueError, match="n >= 2"):
            FamilySpec(FAMILY_A, 1, 1.0, 1.0)

    def test_anti_needs_even(self):
        with pytest.raises(ValueError, match="even"):
            FamilySpec(FAMILY_ANTI, 3, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FamilySpec(FAMILY_A, 3, complex(float("nan"), 0), 1.0)

    def test_numpy_integer_n_accepted(self):
        spec = FamilySpec(FAMILY_ADAGGER, np.int64(4), 1, 1)
        assert spec.n == 4 and type(spec.n) is int
        assert spec == FamilySpec(FAMILY_ADAGGER, 4, 1, 1)

    def test_non_integral_n_rejected(self):
        for n in (1.5, 4.0, "4", None):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                FamilySpec(FAMILY_ADAGGER, n, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["n", "a", "b"])
    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_booleans_rejected(self, field, flag):
        values = {"n": 2, "a": 1.0, "b": 1.0, field: flag}
        with pytest.raises(ValueError, match="booleans"):
            FamilySpec(FAMILY_ADAGGER, **values)

    def test_coerces_to_complex(self):
        spec = FamilySpec(FAMILY_A, 3, 1, 2)
        assert isinstance(spec.a, complex) and isinstance(spec.b, complex)


# Every public function that takes a bare n (sign_r an index), with its
# other arguments fixed.
BARE_N_CALLS = {
    "sign_r": sign_r,
    "nodes_a": nodes_a,
    "nodes_adagger": nodes_adagger,
    "build_exchange": build_exchange,
    "char_value_a": lambda n: char_value_a(n, 0.7),
    "char_value_adagger": lambda n: char_value_adagger(n, 0.7),
    "fib_poly_eval": lambda n: fib_poly_eval(n, 0.3 + 1j),
    "fib_det_check": lambda n: fib_det_check(n, 0.3 + 1j),
    "fib_factor_eval": lambda n: fib_factor_eval(n, 0.3 + 1j),
}


@pytest.mark.parametrize("name", BARE_N_CALLS)
def test_bare_n_is_an_integer_of_any_type(name):
    # Refused the way FamilySpec refuses n: a float, even an integral one,
    # and a boolean, which is an int to Python, are ValueErrors.
    call = BARE_N_CALLS[name]
    label = "index" if name == "sign_r" else "n"
    for n in (2.5, 4.5, 4.0, True, np.bool_(True), "4", None):
        with pytest.raises(ValueError, match=rf"^{label} must be an integer, got "):
            call(n)
    # Every numpy integer type gives the int's result, bit for bit.
    for n in (4, 5, 7):
        want = np.asarray(call(n))
        for kind in (np.int8, np.int32, np.int64, np.uint16, np.uint64):
            got = np.asarray(call(kind(n)))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (kind, n)


class TestBuildMatrix:
    def test_family_a_three(self):
        a, b = 1.5 - 0.5j, 2.0 + 1.0j
        expected = [[a, 2 * b, 0], [b, a, 2 * b], [0, b, a]]
        np.testing.assert_array_equal(build_matrix(FamilySpec(FAMILY_A, 3, a, b)), expected)

    def test_family_a_two_composes_corners(self):
        # Both doubled-corner rules land on entry (1, 2); the composed 4b
        # entry is what makes the closed-form eigenvalues a +- 2b exact.
        a, b = 1.0 + 1.0j, 0.5 - 2.0j
        m = build_matrix(FamilySpec(FAMILY_A, 2, a, b))
        np.testing.assert_array_equal(m, [[a, 4 * b], [b, a]])
        eigs = sorted(np.linalg.eigvals(m), key=lambda z: z.real)
        expected = sorted([a + 2 * b, a - 2 * b], key=lambda z: z.real)
        np.testing.assert_allclose(eigs, expected)

    def test_family_a_interior_pattern(self):
        m = build_matrix(FamilySpec(FAMILY_A, 6, 0.0, 1.0)).real
        assert m[0, 1] == 2 and m[4, 5] == 2
        assert all(m[i, i + 1] == 1 for i in range(1, 4))
        assert all(m[i + 1, i] == 1 for i in range(5))

    def test_family_adagger_three(self):
        a, b = 2.0, 1.0 + 1.0j
        expected = [[a, b, 0], [b, a, -b], [0, -b, a]]
        np.testing.assert_array_equal(
            build_matrix(FamilySpec(FAMILY_ADAGGER, 3, a, b)), expected
        )

    def test_family_adagger_alternation(self):
        m = build_matrix(FamilySpec(FAMILY_ADAGGER, 6, 0.0, 1.0)).real
        signs = [m[k, k + 1] for k in range(5)]
        assert signs == [1, -1, 1, -1, 1]

    def test_family_adagger_symmetric(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 8):
            a, b = random_params(rng)
            m = build_matrix(FamilySpec(FAMILY_ADAGGER, n, a, b))
            np.testing.assert_array_equal(m, m.T)

    def test_anti_two(self):
        m = build_matrix(FamilySpec(FAMILY_ANTI, 2, 1.0, 2.0))
        np.testing.assert_array_equal(m.real, [[2, 1], [1, 2]])

    def test_anti_is_exact_exchange_product(self):
        rng = np.random.default_rng(22)
        for n in range(2, 13, 2):
            a, b = random_params(rng)
            anti = build_matrix(FamilySpec(FAMILY_ANTI, n, a, b))
            twin = build_matrix(FamilySpec(FAMILY_ADAGGER, n, a, b))
            np.testing.assert_array_equal(anti, build_exchange(n) @ twin)


class TestBuildMatrixReference:
    @pytest.mark.parametrize("family", [FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI])
    def test_entries_and_zero_signs_match_the_loops(self, family):
        # Signed zeros in a and b, where sign * b can make -0.0.
        params = [(0j, 1j), (complex(-0.0, -0.0), complex(-0.0, -2.0)), (1 + 2j, complex(0.5, -0.0))]
        params += [random_params(np.random.default_rng(seed)) for seed in range(3)]
        for n in range(1 if family == FAMILY_ADAGGER else 2, 40):
            if family == FAMILY_ANTI and n % 2:
                continue
            for a, b in params:
                built = build_matrix(FamilySpec(family, n, a, b))
                assert same_bits(built, loop_build(family, n, a, b)), (n, a, b)


class TestExchange:
    def test_small_cases(self):
        np.testing.assert_array_equal(build_exchange(1).real, [[1]])
        np.testing.assert_array_equal(build_exchange(2).real, [[0, 1], [1, 0]])

    def test_involution(self):
        j = build_exchange(4)
        np.testing.assert_array_equal(j @ j, mat_identity(4))

    def test_commutes_with_adagger_exactly(self):
        rng = np.random.default_rng(23)
        for n in range(2, 13, 2):
            a, b = random_params(rng)
            twin = build_matrix(FamilySpec(FAMILY_ADAGGER, n, a, b))
            j = build_exchange(n)
            assert mat_norm_maxabs(j @ twin - twin @ j) == 0.0


class TestCharValues:
    def test_family_a_boundary_root(self):
        assert char_value_a(3, 2.0) == pytest.approx(0.0)

    def test_family_a_interior_root(self):
        # alpha = 1 is 2*cos(pi/3), a node for n = 4
        assert char_value_a(4, 1.0) == pytest.approx(0.0)

    def test_family_a_hand_value(self):
        # (9 - 4) * (27 - 6)... the order-3 recurrence value at 3 is 21
        assert char_value_a(5, 3.0) == pytest.approx(105.0)

    def test_family_a_needs_three(self):
        with pytest.raises(ValueError):
            char_value_a(2, 1.0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_family_a_vanishes_on_nodes(self, n):
        for k in range(1, n + 1):
            alpha = 2.0 * np.cos((k - 1) * np.pi / (n - 1))
            assert abs(char_value_a(n, alpha)) < 1e-9

    def test_adagger_basis_steps(self):
        for theta in (0.3, -1.7, 2.0):
            assert char_value_adagger(1, theta) == pytest.approx(theta)
        assert char_value_adagger(3, 2.0) == pytest.approx(4.0)  # theta**3 - 2 theta

    def test_adagger_matches_band_determinant(self):
        # The alternating-sign band with theta on the diagonal is exactly the
        # "adagger" matrix at a = theta, b = 1.
        for theta in (0.3, 1.1, 1.9):
            for n in (2, 3, 4, 5):
                band = build_matrix(FamilySpec(FAMILY_ADAGGER, n, theta, 1.0))
                det = mat_det(band)
                assert abs(det - char_value_adagger(n, theta)) < 1e-10
