"""Closed-form powers against hand values and the brute-force oracle."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tripow.families import (
    FAMILY_A,
    FAMILY_ADAGGER,
    FAMILY_ANTI,
    FamilySpec,
    build_exchange,
    build_matrix,
)
from tripow.linalg import (
    SingularMatrixError,
    mat_identity,
    mat_norm_maxabs,
    mat_pow_binary,
    oracle_power,
)
from tripow.powers import (
    ExtendedDomainWarning,
    PowerOverflowError,
    VerificationError,
    _assemble,
    _binary_powers,
    _generator,
    power_entry_a,
    power_entry_adagger,
    power_entry_anti,
    power_matrix,
    power_verify,
)
from tripow.spectral import (
    decompose,
    eigenvalues,
    eigenvalues_a,
    eigenvalues_adagger,
    power_generator,
    sign_r,
)

import tripow.powers
from helpers import assert_positive_zeros_outside_band, outside_band, random_params


def draw_invertible(rng, family, n, min_eig=0.35):
    """A spec whose eigenvalues stay away from zero, for negative powers."""
    while True:
        spec = FamilySpec(family, n, *random_params(rng))
        if np.abs(decompose(spec).eigenvalues).min() >= min_eig:
            return spec


def int_pow(z: complex, s: int) -> complex:
    """z**s by scalar square-and-multiply; negative s inverts first."""
    if s < 0:
        z = 1.0 / z
        s = -s
    result = 1.0 + 0.0j
    while s:
        if s & 1:
            result *= z
        z *= z
        s >>= 1
    return result


def dense_oracle(spec, s):
    """The brute-force power that power_verify compares with."""
    return oracle_power(build_matrix(spec), s)


def unit_radius_spec(rng, family, n, min_ratio=0.3):
    """Unit spectral radius, smallest eigenvalue modulus >= min_ratio."""
    while True:
        spec = FamilySpec(family, n, *random_params(rng))
        lam = eigenvalues_a(spec) if family == FAMILY_A else eigenvalues_adagger(spec)
        moduli = np.abs(lam)
        if moduli.min() >= min_ratio * moduli.max():
            radius = float(moduli.max())
            return FamilySpec(family, n, spec.a / radius, spec.b / radius)


def three_pass_assemble(spec, h, s):
    """The power from h in three passes: the reference.

    Family "a" adds the Hankel view h[i+j] to the Toeplitz view, then
    halves the first column and then the last row.  "adagger"/"anti"
    subtract the Hankel view h[i+j+2] from the Toeplitz view, then multiply
    by the row signs and by the column signs, flipping the rows for odd
    anti powers; the library writes each entry once instead.
    """
    n = spec.n
    period = h.size - 1
    window = sliding_window_view(np.concatenate((h, h[1:n])), n)
    toeplitz = window[period - n + 1:period + 1][::-1]
    if spec.family == FAMILY_A:
        matrix = toeplitz + window[:n]
        matrix[:, 0] *= 0.5
        matrix[-1] *= 0.5
        return matrix
    hankel = window[2:n + 2]
    signs = row_signs = np.array([sign_r(i) for i in range(n)], dtype=float)
    if spec.family == FAMILY_ANTI and s % 2 == 1:
        toeplitz, hankel, row_signs = toeplitz[::-1], hankel[::-1], signs[::-1]
    matrix = toeplitz - hankel
    matrix *= row_signs[:, None]
    matrix *= signs
    return matrix


BAND_PARAMS = [
    (family, n)
    for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
    for n in (*range(2, 18), 64, 65, 1024)
    if not (family == FAMILY_ANTI and n % 2)
]


def band_exponents(n):
    """Small exponents and the two largest below n - 1."""
    return sorted({1, 2, 3, 8, n - 3, n - 2})


REFERENCE_CASES = [
    (family, n)
    for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
    for n in (1, 2, 3, 4, 5, 64, 257, 1024)
    if not (family == FAMILY_A and n < 2) and not (family == FAMILY_ANTI and n % 2)
]


@pytest.mark.parametrize("family,n", REFERENCE_CASES)
def test_power_matrix_matches_dense_reference(family, n):
    # The reference is the dense product V diag(lambda**s) V^-1 of the
    # validated decomposition, with scalar eigenvalue powers.
    rng = np.random.default_rng(1000 * n + len(family))
    spec = unit_radius_spec(rng, family, n)
    data = decompose(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        for s in (0, 1, 2, 3, 8, 4096, -3):
            lam_pows = np.array([int_pow(z, s) for z in data.eigenvalues])
            reference = (data.vec_matrix * lam_pows) @ data.inv_matrix
            if family == FAMILY_ANTI and s % 2 == 1:
                reference = reference[::-1]
            got = power_matrix(spec, s).matrix
            error = mat_norm_maxabs(got - reference) / mat_norm_maxabs(reference)
            assert error <= 1e-11, (s, error)


class TestEntryFormulas:
    def test_family_a_cube_entrywise(self):
        data = decompose(FamilySpec(FAMILY_A, 3, 1.0, 1.0))
        expected = np.array([[7, 14, 12], [7, 13, 14], [3, 7, 7]], dtype=complex)
        for i in range(1, 4):
            for j in range(1, 4):
                assert power_entry_a(data, 3, i, j) == pytest.approx(expected[i - 1, j - 1])

    def test_family_a_entries_match_assembly(self):
        rng = np.random.default_rng(50)
        spec = FamilySpec(FAMILY_A, 5, *random_params(rng))
        data = decompose(spec)
        full = power_matrix(spec, 4).matrix
        for i in range(1, 6):
            for j in range(1, 6):
                assert abs(power_entry_a(data, 4, i, j) - full[i - 1, j - 1]) < 1e-9 * (
                    1 + abs(full[i - 1, j - 1])
                )

    @pytest.mark.parametrize(
        "family,n",
        [
            (FAMILY_ADAGGER, 1),
            *(
                (family, n)
                for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
                for n in (*range(2, 10), 16)
                if not (family == FAMILY_ANTI and n % 2)
            ),
        ],
    )
    def test_entries_equal_the_assembled_power(self, family, n):
        # Every eigenvalue of this spec is nonzero, so s = -2 is defined.
        spec = FamilySpec(family, n, 0.6j, 0.4)
        data = decompose(spec)
        entry = {
            FAMILY_A: power_entry_a,
            FAMILY_ADAGGER: power_entry_adagger,
            FAMILY_ANTI: power_entry_anti,
        }[family]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            for s in (*range(0, n + 2), -2):
                got = np.array(
                    [[entry(data, s, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
                )
                # Bit for bit, so the signs of zeros count too.
                want = power_matrix(spec, s).matrix
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), s
                assert np.all(got[outside_band(family, n, s)] == 0), s

    def test_adagger_known_corner_entry(self):
        # fourth power at a=2, b=1: a**4 + 6 a**2 b**2 + 2 b**4 = 42
        data = decompose(FamilySpec(FAMILY_ADAGGER, 3, 2.0, 1.0))
        assert power_entry_adagger(data, 4, 1, 1) == pytest.approx(42.0)

    def test_adagger_entries_match_oracle(self):
        rng = np.random.default_rng(51)
        for n in (3, 4):
            spec = FamilySpec(FAMILY_ADAGGER, n, *random_params(rng))
            data = decompose(spec)
            oracle = mat_pow_binary(build_matrix(spec), 4)
            bound = 1e-8 * (1 + mat_norm_maxabs(oracle))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert abs(power_entry_adagger(data, 4, i, j) - oracle[i - 1, j - 1]) < bound

    def test_entry_index_bounds(self):
        data = decompose(FamilySpec(FAMILY_A, 3, 1.0, 1.0))
        with pytest.raises(ValueError, match="indices"):
            power_entry_a(data, 2, 0, 1)
        with pytest.raises(ValueError, match="indices"):
            power_entry_a(data, 2, 1, 4)

    def test_entry_family_guards(self):
        data_a = decompose(FamilySpec(FAMILY_A, 3, 1.0, 1.0))
        data_d = decompose(FamilySpec(FAMILY_ADAGGER, 3, 1.0, 1.0))
        with pytest.raises(ValueError):
            power_entry_adagger(data_a, 2, 1, 1)
        with pytest.raises(ValueError):
            power_entry_a(data_d, 2, 1, 1)

    def test_anti_rejects_odd_dimension(self):
        data = decompose(FamilySpec(FAMILY_ADAGGER, 3, 1.0, 1.0))
        with pytest.raises(ValueError, match="even"):
            power_entry_anti(data, 2, 1, 1)


class TestAntiParity:
    def test_square_equals_twin_square(self):
        spec = FamilySpec(FAMILY_ANTI, 2, 1.0, 2.0)
        data = decompose(spec)
        # (a**2 + b**2, 2ab) pattern of the twin's square
        expected = np.array([[5, 4], [4, 5]], dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                assert power_entry_anti(data, 2, i, j) == pytest.approx(expected[i - 1, j - 1])

    def test_first_power_is_the_matrix(self):
        spec = FamilySpec(FAMILY_ANTI, 2, 1.0, 2.0)
        result = power_matrix(spec, 1)
        assert mat_norm_maxabs(result.matrix - build_matrix(spec)) < 1e-10

    def test_odd_power_is_exchange_times_twin_power(self):
        spec = FamilySpec(FAMILY_ANTI, 4, 1.0, 1.0)
        twin = build_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 1.0))
        expected = build_exchange(4) @ mat_pow_binary(twin, 3)
        got = power_matrix(spec, 3).matrix
        assert mat_norm_maxabs(got - expected) < 1e-10

    def test_parity_law_entrywise(self):
        rng = np.random.default_rng(52)
        for n in (2, 4, 6):
            a, b = random_params(rng, scale=2.0)
            anti = FamilySpec(FAMILY_ANTI, n, a, b)
            twin = FamilySpec(FAMILY_ADAGGER, n, a, b)
            data = decompose(anti)
            j = build_exchange(n)
            for s in range(0, 6):
                twin_power = power_matrix(twin, s).matrix
                expected = twin_power if s % 2 == 0 else j @ twin_power
                got = np.array(
                    [
                        [power_entry_anti(data, s, i, jj) for jj in range(1, n + 1)]
                        for i in range(1, n + 1)
                    ]
                )
                assert mat_norm_maxabs(got - expected) < 1e-9

    @pytest.mark.parametrize("n", [8, 66, 130, 1024])
    def test_odd_power_is_the_twin_power_with_rows_reversed(self, n):
        # J A**s, bit for bit, in the band (2s + 2 <= n), overlap and full
        # layouts and for s < 0.
        anti = FamilySpec(FAMILY_ANTI, n, 0.6j, 0.4)
        twin = FamilySpec(FAMILY_ADAGGER, n, 0.6j, 0.4)
        band = n // 2 - 1 - (n // 2) % 2
        for s in (1, 3, band, band + 2, n - 3, n - 1, n + 1, -1, -3):
            got = power_matrix(anti, s).matrix
            want = power_matrix(twin, s).matrix[::-1]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), s

    def test_adagger_entries_of_anti_data_are_the_twin_entries(self):
        # power_entry_adagger reads "anti" data as its "adagger" twin, also
        # for odd s, where the anti power itself has its rows reversed.
        data = decompose(FamilySpec(FAMILY_ANTI, 6, 0.6j, 0.4))
        for s in (1, 3, 5, 7, -1, -3):
            twin = power_matrix(FamilySpec(FAMILY_ADAGGER, 6, 0.6j, 0.4), s).matrix
            got = np.array(
                [[power_entry_adagger(data, s, i, j) for j in range(1, 7)] for i in range(1, 7)]
            )
            assert np.array_equal(got.view(np.uint64), twin.view(np.uint64)), s


class TestPowerMatrix:
    def test_zero_exponent_identity(self):
        for spec in (
            FamilySpec(FAMILY_A, 4, 2.0, 1.0),
            FamilySpec(FAMILY_ADAGGER, 5, 2.0, 1.0),
            FamilySpec(FAMILY_ANTI, 4, 2.0, 1.0),
        ):
            result = power_matrix(spec, 0)
            np.testing.assert_array_equal(result.matrix, mat_identity(spec.n))

    def test_first_power_matches_build(self):
        rng = np.random.default_rng(53)
        for family, n in ((FAMILY_A, 5), (FAMILY_ADAGGER, 6), (FAMILY_ANTI, 6)):
            spec = FamilySpec(family, n, *random_params(rng))
            result = power_matrix(spec, 1)
            assert mat_norm_maxabs(result.matrix - build_matrix(spec)) < 1e-10

    def test_paths_are_labelled(self):
        # The strings are the JSON "path" values.
        assert power_matrix(FamilySpec(FAMILY_A, 3, 1.0, 1.0), 2).path == "closed-form-A"
        assert power_matrix(FamilySpec(FAMILY_A, 4, 1.0, 1.0), 3).path == "closed-form-A"
        assert power_matrix(FamilySpec(FAMILY_ADAGGER, 3, 1.0, 1.0), 2).path == "closed-form-ADagger-odd"
        assert power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 1.0), 2).path == "closed-form-ADagger-even"
        assert power_matrix(FamilySpec(FAMILY_ANTI, 4, 1.0, 1.0), 3).path == "closed-form-anti-odd-s"
        assert power_matrix(FamilySpec(FAMILY_ANTI, 4, 1.0, 1.0), 2).path == "closed-form-anti-even-s"
        assert power_matrix(FamilySpec(FAMILY_ANTI, 4, 1.0, 1.0), -3).path == "closed-form-anti-odd-s"

    def test_negative_cube_regression(self):
        # 1/1000-scaled reference, rounded to three decimals
        reference = (
            np.array(
                [
                    [-326, 361, 311, -676],
                    [180, -170, -158, 311],
                    [156, -158, -170, 361],
                    [-169, 156, 180, -326],
                ],
                dtype=float,
            )
            / 1000.0
        )
        result = power_matrix(FamilySpec(FAMILY_A, 4, 1.0, 2.0), -3)
        assert mat_norm_maxabs(result.matrix - reference) < 5e-4

    def test_fourth_power_integer_regression(self):
        expected = np.array(
            [
                [609, 528, -864, -256],
                [528, 1473, -784, -864],
                [-864, -784, 1473, 528],
                [-256, -864, 528, 609],
            ],
            dtype=float,
        )
        result = power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 4.0), 4)
        assert mat_norm_maxabs(result.matrix - expected) < 1e-6

    def test_negative_fifth_power_regression(self):
        # 1/1000-scaled reference with purely imaginary diagonal blocks
        reference = (
            np.array(
                [
                    [296j, 56, 192j, 128],
                    [56, 104j, 72, 192j],
                    [192j, 72, 104j, 56],
                    [128, 192j, 56, 296j],
                ]
            )
            / 1000.0
        )
        result = power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1j, 1.0), -5)
        assert mat_norm_maxabs(result.matrix - reference) < 5e-4

    def test_singular_negative_power(self):
        # a = 0 puts the middle eigenvalue at zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            with pytest.raises(SingularMatrixError, match="k=2"):
                power_matrix(FamilySpec(FAMILY_A, 3, 0.0, 1.0), -1)

    def test_singularity_is_checked_before_the_domain_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                power_matrix(FamilySpec(FAMILY_ADAGGER, 3, 0.0, 1.0), -1)

    @pytest.mark.parametrize("s", [2.7, 2.0])
    def test_non_integral_exponent_is_rejected(self, s):
        spec = FamilySpec(FAMILY_A, 3, 1.0, 1.0)
        with pytest.raises(TypeError):
            power_matrix(spec, s)
        with pytest.raises(TypeError):
            power_verify(spec, s)

    def test_numpy_integer_exponent(self):
        spec = FamilySpec(FAMILY_A, 3, 1.0, 1.0)
        result = power_matrix(spec, np.int64(3))
        assert result.exponent == 3 and type(result.exponent) is int
        np.testing.assert_allclose(result.matrix, [[7, 14, 12], [7, 13, 14], [3, 7, 7]], atol=1e-12)

    @pytest.mark.parametrize(
        "spec,s",
        [
            (FamilySpec(FAMILY_A, 3, 2.0, 1.0), 2000),
            (FamilySpec(FAMILY_ADAGGER, 4, 3.0, 1.0), 700),
            (FamilySpec(FAMILY_ANTI, 4, 0.01, 0.1), -400),
        ],
    )
    def test_overflow_raises(self, spec, s):
        with pytest.raises(PowerOverflowError):
            power_matrix(spec, s)

    @pytest.mark.parametrize(
        "spec,s",
        [
            # The eigenvalue powers flush to zero: an all-zero matrix.
            (FamilySpec(FAMILY_A, 4, 0.01, 0.001), 400),
            (FamilySpec(FAMILY_ADAGGER, 4, 1000.0, 100.0), -120),
            # The largest entry, 1.56e-308, is subnormal.
            (FamilySpec(FAMILY_A, 4, 0.01, 0.001), 160),
        ],
    )
    def test_underflow_raises(self, spec, s):
        with pytest.raises(PowerOverflowError, match="underflows below"):
            power_matrix(spec, s)
        entry = power_entry_a if spec.family == FAMILY_A else power_entry_adagger
        with pytest.raises(PowerOverflowError, match="underflows below"):
            entry(decompose(spec), s, 1, 1)

    @pytest.mark.parametrize("s", [10**20, -(10**20)])
    @pytest.mark.parametrize("a, b", [(4.0, 1.0), (0.1, 0.01)])
    def test_exponent_beyond_a_c_long_is_refused(self, a, b, s):
        # The nodes are 2, 1, -1 and -2, so the eigenvalues a + b*node are 2
        # to 6 for a = 4, a growing spectrum, and 0.08 to 0.12 for a = 0.1, a
        # decaying one.  The exponent E of 2**E is about 10**20, past a C long.
        spec = FamilySpec(FAMILY_A, 4, a, b)
        fault = "is not finite or exceeds" if (a > 1) == (s > 0) else "underflows below"
        pattern = rf"^power s={s} is not representable .* \* 2\*\*-?\d{{20,}} {fault}"
        for call in (
            lambda: power_matrix(spec, s),
            lambda: power_entry_a(decompose(spec), s, 1, 1),
            lambda: power_verify(spec, s),
        ):
            with pytest.raises(PowerOverflowError, match=pattern):
                call()

    def test_smallest_powers_above_the_underflow_are_served(self):
        spec = FamilySpec(FAMILY_A, 4, 0.01, 0.001)
        got = power_matrix(spec, 150).matrix
        oracle = oracle_power(build_matrix(spec), 150)
        scale = mat_norm_maxabs(oracle)
        assert 2.5e-289 < scale < 2.6e-289
        assert mat_norm_maxabs(got - oracle) / scale <= 1e-12

    @pytest.mark.parametrize("s", [1, 2, 5, -1, -3])
    def test_eigenvalue_beyond_float_is_named_in_the_refusal(self, s):
        # a + b*node overflows for the nodes above 0.8: inf, not a NaN
        # generator, and numpy warns about none of it.
        spec = FamilySpec(FAMILY_ANTI, 4, 1e308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerOverflowError, match=r"eigenvalue inf\+0j at k=\d is not finite"):
                power_matrix(spec, s)
            with pytest.raises(PowerOverflowError, match="eigenvalue inf"):
                power_entry_anti(decompose(spec), s, 1, 1)
            # The zeroth power is still the exact identity.
            assert np.array_equal(power_matrix(spec, 0).matrix, mat_identity(4))

    def test_power_of_a_zero_spectrum_is_served(self):
        # The 1x1 "adagger" matrix is [a]: 0**3 is an exact zero, not an
        # underflow.
        assert power_matrix(FamilySpec(FAMILY_ADAGGER, 1, 0.0, 1.0), 3).matrix[0, 0] == 0

    def test_domain_warning_for_odd_n_negative_s(self):
        with pytest.warns(ExtendedDomainWarning):
            power_matrix(FamilySpec(FAMILY_ADAGGER, 3, 3.0, 1.0), -1)

    def test_domain_warning_names_the_caller(self):
        # power_entry_anti never warns: the anti family refuses odd n first.
        spec = FamilySpec(FAMILY_ADAGGER, 5, 3.0, 1.0)
        data_a = decompose(FamilySpec(FAMILY_A, 5, 3.0, 1.0))
        calls = {
            "power_matrix": lambda: power_matrix(spec, -2),
            "power_verify": lambda: power_verify(spec, -2),
            "power_entry_a": lambda: power_entry_a(data_a, -2, 1, 2),
            "power_entry_adagger": lambda: power_entry_adagger(decompose(spec), -2, 1, 2),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [ExtendedDomainWarning], name
            assert caught[0].filename == __file__, name

    def test_no_warning_for_even_n_negative_s(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 3.0, 1.0), -1)


class TestAssembly:
    @pytest.mark.parametrize(
        "family,n",
        [
            (family, n)
            for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
            for n in (*range(1, 18), 64, 1024)
            if not (family == FAMILY_ANTI and n % 2) and not (family == FAMILY_A and n < 2)
        ],
    )
    def test_single_pass_matches_three_pass_reference(self, family, n):
        # Any h of the generator's length (2n - 1 for "a", 2n + 3 otherwise)
        # will do, and a random one has no symmetry to hide a misplaced index
        # or sign.  It is no power's generator, so where _assemble keeps only
        # the band (0 <= s < n - 1) the reference is cut to the band too.
        rng = np.random.default_rng(n)
        size = 2 * n - 1 if family == FAMILY_A else 2 * n + 3
        h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        spec = FamilySpec(family, n, 1.0, 1.0)
        for s in (1, 2, 3, 8, -3, 4096, n - 3, n - 2, n // 2 - 1, n // 2, n // 2 + 1):
            reference = three_pass_assemble(spec, h, s)
            reference[outside_band(family, n, s)] = 0.0
            assert np.array_equal(_assemble(spec, h, s), reference), s

    @pytest.mark.parametrize("family,n", BAND_PARAMS)
    def test_band_is_the_full_assembly_bit_for_bit(self, family, n):
        # The full assembly (s >= n - 1, of the same parity) cut to the
        # band, compared by bits so that the signs of zeros count too.
        # Every band exponent for small n, and for large n those around the
        # switch 2s + 2 = n between the band and the full layout, so the
        # clearing step's corner size k = min(s + 1, n - 1 - s) is tested
        # on both sides of it.
        rng = np.random.default_rng(n)
        size = 2 * n - 1 if family == FAMILY_A else 2 * n + 3
        h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        spec = FamilySpec(family, n, 1.0, 1.0)
        middle = (n // 4, *range(n // 2 - 2, n // 2 + 2), n - 3)
        for s in range(n - 1) if n <= 17 else sorted({0, *band_exponents(n), *middle}):
            full = _assemble(spec, h, 2 * n + s % 2)
            full[outside_band(family, n, s)] = 0.0
            got = _assemble(spec, h, s)
            assert np.array_equal(got.view(np.uint64), full.view(np.uint64)), s
            assert_positive_zeros_outside_band(got, family, s)


def assert_exact_structure(spec, s):
    """The generator is even and the power keeps its structure bit for bit.

    For s >= 0 the power is +0.0 outside its band.  Every "adagger" power
    is symmetric; even-n "adagger" and "anti" powers are centrosymmetric
    (P[n-1-i, n-1-j] == P[i, j]); an "a" power is centrosymmetric once its
    halved first column and last row are doubled back.  == compares exact
    values, with -0.0 equal to +0.0.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        h = _generator(spec, eigenvalues(spec), s)
        p = power_matrix(spec, s).matrix
    assert np.array_equal(h, h[::-1])
    assert_positive_zeros_outside_band(p, spec.family, s)
    if spec.family == FAMILY_A:
        p = p.copy()
        p[:, 0] *= 2.0
        p[-1] *= 2.0
        assert np.array_equal(p, p[::-1, ::-1])
        return
    if spec.family == FAMILY_ADAGGER:
        assert np.array_equal(p, p.T)
    if spec.n % 2 == 0:
        assert np.array_equal(p, p[::-1, ::-1])


UNDERFLOW_AT_4096 = {(FAMILY_ADAGGER, 2), (FAMILY_ADAGGER, 3), (FAMILY_ANTI, 2)}


class TestExactStructure:
    @pytest.mark.parametrize("family,n", BAND_PARAMS)
    def test_powers_keep_their_symmetries_exactly(self, family, n):
        # Spectral radius at most 1, so s=4096 cannot overflow.  s = n//2 - 1
        # and n//2 lie on both sides of the band path's switch to the full
        # assembly at 2s + 2 > n.  At the smallest n the radius is 0.72 to
        # 0.82, so the 4096th power underflows and is refused.
        spec = FamilySpec(family, n, 0.6j, 0.4)
        for s in sorted({1, 2, 3, 8, 4096, -3, *band_exponents(n), n // 2 - 1, n // 2}):
            if s == 4096 and (family, n) in UNDERFLOW_AT_4096:
                with pytest.raises(PowerOverflowError, match="underflows"):
                    assert_exact_structure(spec, s)
            else:
                assert_exact_structure(spec, s)

    def test_scaled_power_keeps_its_symmetry(self):
        # The eigenvalue powers overflow, so h is scaled by 2**E after the FFT.
        assert_exact_structure(FamilySpec(FAMILY_A, 16, 3.0, 1.0), 442)


class TestBand:
    @pytest.mark.parametrize("family,n", BAND_PARAMS)
    def test_entries_outside_the_band_are_positive_zero(self, family, n):
        spec = FamilySpec(family, n, 0.6j, 0.4)
        for s in band_exponents(n):
            assert_positive_zeros_outside_band(power_matrix(spec, s).matrix, family, s)

    @pytest.mark.parametrize("family,n", [(f, n) for f, n in BAND_PARAMS if n <= 64])
    def test_oracle_has_its_zeros_at_the_same_positions(self, family, n):
        spec = FamilySpec(family, n, 0.6j, 0.4)
        for s in band_exponents(n):
            if s < 0:
                continue
            oracle = oracle_power(build_matrix(spec), s)
            assert np.all(oracle[outside_band(family, n, s)] == 0), s
            assert np.array_equal(power_matrix(spec, s).matrix == 0, oracle == 0), s


def plain_powers(base, e):
    """base**e by vectorized square-and-multiply with no rescaling."""
    result = np.ones_like(base)
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


UNIT_RADIUS_PARAMS = [
    (family, n)
    for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
    for n in (1, 2, 3, 8, 16, 17, 64, 65)
    if n >= (2 if family == FAMILY_A else 1) and (family != FAMILY_ANTI or n % 2 == 0)
]


class TestScaledPowers:
    def test_renormalized_powers_are_the_plain_ones_scaled(self):
        # Rescaling by powers of two is exact while nothing overflows or
        # goes subnormal, so the mantissas times 2**E are the plain powers
        # bit for bit; the base itself is left as it was.
        rng = np.random.default_rng(55)
        base = rng.uniform(0.5, 3.0, 16) * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        before = base.copy()
        for e in (1, 2, 7, 64, 300):
            mantissas, exponent = _binary_powers(base, e)
            assert float(np.abs(mantissas).max()) < 1.0
            parts = np.ldexp(mantissas.view(np.float64), exponent)
            assert np.array_equal(parts.view(np.uint64), plain_powers(base, e).view(np.uint64)), e
        assert np.array_equal(base.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("family,n", UNIT_RADIUS_PARAMS)
    def test_generator_is_the_plain_one_at_unit_radius(self, family, n):
        # With the spectral radius 1 no plain power overflows, so the one
        # scaled path gives the generator of the plain powers byte for byte.
        spec = unit_radius_spec(np.random.default_rng(n), family, n)
        lam = eigenvalues(spec)
        for s in (-3, 8, 64, 4096):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtendedDomainWarning)
                h = _generator(spec, lam, s)
            plain = plain_powers(1.0 / lam if s < 0 else lam, abs(s))
            assert np.array_equal(h.view(np.uint64), power_generator(spec, plain).view(np.uint64)), s

    @pytest.mark.parametrize(
        "spec,s",
        [
            (FamilySpec(FAMILY_ADAGGER, 8, 0.6j, 0.4), 64),
            # The eigenvalue powers overflow float64, and the power fits.
            (FamilySpec(FAMILY_A, 16, 3.0, 1.0), 442),
            # Refused: the power underflows, and the power overflows.
            (FamilySpec(FAMILY_A, 4, 0.01, 0.001), 400),
            (FamilySpec(FAMILY_A, 3, 2.0, 1.0), 2000),
        ],
    )
    def test_generator_runs_one_fft(self, monkeypatch, spec, s):
        calls = []

        def counted(*args):
            calls.append(args)
            return power_generator(*args)

        monkeypatch.setattr(tripow.powers, "power_generator", counted)
        try:
            _generator(spec, eigenvalues(spec), s)
        except PowerOverflowError:
            pass
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "a, peak, fault",
        [
            # The 1x1 "adagger" matrix [a] has the one eigenvalue a.  At
            # a = 1 the power's scale is 2**1 (mantissa 1/2), so these
            # peaks scale to OVERFLOW_LIMIT, the float after it, the smallest
            # normal float and the subnormal below it.
            (1.0, tripow.powers.OVERFLOW_LIMIT / 2, None),
            (1.0, np.nextafter(tripow.powers.OVERFLOW_LIMIT / 2, np.inf), "is not finite or exceeds"),
            (1.0, 2.0**-1023, None),
            (1.0, np.nextafter(2.0**-1023, 0.0), "underflows below"),
            (1.0, 0.0, "underflows below"),
            # At a = 2**-600 the scale is 2**-599, and this peak scales to
            # (1 - 2**-53) * 2**-1022, below the smallest normal float,
            # although ldexp would round it up to that float.
            (2.0**-600, (1 - 2.0**-53) * 2.0**-423, "underflows below"),
        ],
    )
    def test_refusal_boundaries_are_exact(self, monkeypatch, a, peak, fault):
        spec = FamilySpec(FAMILY_ADAGGER, 1, a, 1.0)
        monkeypatch.setattr(tripow.powers, "power_generator", lambda *_: np.array([peak + 0j]))
        if fault is None:
            assert _generator(spec, eigenvalues(spec), 1)[0] == 2 * peak
        else:
            with pytest.raises(PowerOverflowError, match=fault):
                _generator(spec, eigenvalues(spec), 1)

    def test_refusal_gives_a_finite_magnitude(self):
        # The eigenvalues are 3e200, 2e200, 0 and -1e200, whose squares
        # overflow float64, so the base is scaled before it is squared.  The
        # largest generator entry is h_0 = (9/2 + 4 + 1/2) * 1e400 / 3 = 3e400.
        with pytest.raises(PowerOverflowError) as err:
            power_matrix(FamilySpec(FAMILY_A, 4, 1e200, 1e200), 2)
        mantissa, exponent = re.search(
            r"modulus (\S+) \* 2\*\*(-?\d+) is not finite or exceeds", str(err.value)
        ).groups()
        assert 0.0 < float(mantissa) < np.inf
        log2_modulus = math.log2(float(mantissa)) + int(exponent)
        assert abs(log2_modulus - math.log2(3) - 400 * math.log2(10)) < 0.01

    def test_power_beyond_float_eigenvalue_powers(self):
        # 5**442 overflows float64, but the weights bring the entries back
        # under it: the largest is about 6.1e307.
        spec = FamilySpec(FAMILY_A, 16, 3.0, 1.0)
        got = power_matrix(spec, 442).matrix
        oracle = oracle_power(build_matrix(spec), 442)
        scale = mat_norm_maxabs(oracle)
        assert 1e307 < scale < np.inf
        assert mat_norm_maxabs(got - oracle) / scale <= 1e-12


class TestPowerVerify:
    def test_family_a_case(self):
        spec = FamilySpec(FAMILY_A, 5, 2 + 1j, 1 - 1j)
        result = power_verify(spec, 4, tol=1e-8)
        assert result.residual_vs_oracle is not None
        assert mat_norm_maxabs(result.matrix - dense_oracle(spec, 4)) < 1e-8

    def test_odd_mu_path_case(self):
        spec = FamilySpec(FAMILY_ADAGGER, 7, 1j, 2.0)
        result = power_verify(spec, 3, tol=1e-8)
        assert mat_norm_maxabs(result.matrix - dense_oracle(spec, 3)) < 1e-8

    def test_anti_case(self):
        spec = FamilySpec(FAMILY_ANTI, 6, 1.0, 1j)
        result = power_verify(spec, 5, tol=1e-8)
        assert mat_norm_maxabs(result.matrix - dense_oracle(spec, 5)) < 1e-8

    def test_failure_carries_both_matrices(self):
        with pytest.raises(VerificationError) as err:
            power_verify(FamilySpec(FAMILY_A, 4, 1.5, 0.5), 3, tol=0.0)
        assert err.value.closed_form is not None
        assert err.value.oracle is not None
        assert err.value.closed_form.shape == err.value.oracle.shape
        oracle_scale = max(1.0, mat_norm_maxabs(err.value.oracle))
        assert err.value.residual == (
            mat_norm_maxabs(err.value.closed_form - err.value.oracle) / oracle_scale
        )

    def test_residual_is_relative_to_the_oracle(self):
        # Entries near 1e27: the absolute residual is about 1e12.
        result = power_verify(FamilySpec(FAMILY_A, 16, 3.0, 1.0), 40, tol=1e-8)
        assert mat_norm_maxabs(result.matrix) > 1e26
        assert result.residual_vs_oracle < 1e-8

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8, -np.inf])
    def test_tolerance_that_no_residual_can_fail_is_refused(self, tol):
        # residual > nan is False, so a NaN tol would pass every power.
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            power_verify(FamilySpec(FAMILY_A, 4, 1.0, 1.0), 3, tol=tol)

    def test_oracle_that_overflows_is_refused_not_passed(self):
        # The closed form fits, but the oracle's products overflow to inf and
        # NaN, and residual > tol is False for a NaN residual.
        spec = FamilySpec(FAMILY_ADAGGER, 4, 25391.511504189668, 25391.511504189668)
        assert np.isfinite(power_matrix(spec, 64).matrix).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerOverflowError, match="oracle power overflows"):
                power_verify(spec, 64)

    def test_scaled_split_oracle_that_overflows_is_refused(self):
        # Even-n family "a" at a dense s > 0 takes the scaled centrosymmetric
        # split, whose halves overflow although the closed form fits.
        spec = FamilySpec(FAMILY_A, 4, 21984.718602842782, 21984.718602842782)
        assert np.isfinite(power_matrix(spec, 64).matrix).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerOverflowError, match="oracle power overflows"):
                power_verify(spec, 64)

    def test_oracle_is_called_through_the_powers_global(self, monkeypatch):
        # A tracer that wraps tripow.powers.oracle_power sees every oracle call.
        calls = []

        def traced(matrix, s):
            calls.append(s)
            return oracle_power(matrix, s)

        monkeypatch.setattr(tripow.powers, "oracle_power", traced)
        power_verify(FamilySpec(FAMILY_ANTI, 6, 1.0, 1j), -3)
        assert calls == [-3]

    def test_small_results_report_the_absolute_residual(self):
        spec = FamilySpec(FAMILY_ADAGGER, 9, 0.1 + 0.2j, 0.15 - 0.1j)
        result = power_verify(spec, 5, tol=1e-8)
        oracle = dense_oracle(spec, 5)
        assert mat_norm_maxabs(oracle) <= 1.0
        assert result.residual_vs_oracle == mat_norm_maxabs(result.matrix - oracle)
        assert result.residual_vs_oracle > 0.0


class TestOracleEquivalence:
    def test_fifty_random_specs(self):
        rng = np.random.default_rng(54)
        families = [FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI]
        for case in range(50):
            family = families[case % 3]
            if family == FAMILY_A:
                n = int(rng.integers(2, 13))
            elif family == FAMILY_ANTI:
                n = 2 * int(rng.integers(1, 7))
            else:
                n = int(rng.integers(1, 13))
            spec = FamilySpec(family, n, *random_params(rng))
            s = int(rng.integers(0, 7))
            m = build_matrix(spec)
            tol = 1e-8 * (1 + mat_norm_maxabs(m) ** s)
            # an absolute bound, as power_verify divides by max(1, max|O|)
            scale = max(1.0, mat_norm_maxabs(dense_oracle(spec, s)))
            power_verify(spec, s, tol=tol / scale)

    def test_negative_power_inverse_law(self):
        rng = np.random.default_rng(55)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            for family, n in ((FAMILY_A, 4), (FAMILY_A, 9), (FAMILY_ADAGGER, 5), (FAMILY_ADAGGER, 10), (FAMILY_ANTI, 8)):
                spec = draw_invertible(rng, family, n)
                for s in (1, 2, 4):
                    forward = power_matrix(spec, s).matrix
                    backward = power_matrix(spec, -s).matrix
                    assert mat_norm_maxabs(backward @ forward - mat_identity(n)) < 1e-7

    def test_semigroup_property(self):
        rng = np.random.default_rng(56)
        for _ in range(8):
            family = (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)[int(rng.integers(0, 3))]
            n = 2 * int(rng.integers(1, 5)) if family == FAMILY_ANTI else int(rng.integers(2, 9))
            spec = FamilySpec(family, n, *random_params(rng, scale=2.0))
            s1, s2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            combined = power_matrix(spec, s1 + s2).matrix
            product = power_matrix(spec, s1).matrix @ power_matrix(spec, s2).matrix
            assert mat_norm_maxabs(combined - product) < 1e-7

    def test_last_row_as_tight_as_the_rest(self):
        # guards the extra 1/2 on the last row of the family-"a" transform
        rng = np.random.default_rng(57)
        for _ in range(6):
            n = int(rng.integers(2, 13))
            spec = FamilySpec(FAMILY_A, n, *random_params(rng))
            s = int(rng.integers(1, 6))
            m = build_matrix(spec)
            closed = power_matrix(spec, s).matrix
            oracle = mat_pow_binary(m, s)
            bound = 1e-8 * (1 + mat_norm_maxabs(m) ** s)
            last_row_residual = np.abs(closed[-1] - oracle[-1]).max()
            assert last_row_residual < bound
