"""Dense kernel tests: these are the oracles, so they get hand-checked values."""

import re
import sys
import warnings

import numpy as np
import pytest

from tripow.families import FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI, FamilySpec, build_matrix
from tripow.linalg import (
    _BLOCK,
    _PANEL,
    SINGULAR_RTOL,
    SingularMatrixError,
    _banded_lu,
    _centro_join,
    _centro_split,
    _invert,
    _inverse_power,
    _solve,
    _spans,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_norm_maxabs,
    mat_pow_binary,
    oracle_power,
)
from tripow.powers import ExtendedDomainWarning, power_matrix
from tripow.spectral import eigenvalues

EPS = sys.float_info.epsilon


def random_matrix(rng, n, scale=2.0):
    return (
        rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    )


def unblocked_inverse(m):
    """Column-by-column Gauss-Jordan with partial pivoting: the reference.

    Each column takes the largest-modulus pivot at or below the diagonal
    and is cleared by a rank-1 update of the whole augmented matrix.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    scale = float(np.abs(m).max())
    aug = np.hstack([m.copy(), mat_identity(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = abs(aug[pivot_row, col])
        if pivot < SINGULAR_RTOL * scale:
            raise SingularMatrixError(
                f"singular matrix: pivot modulus {pivot:.3e} at column {col + 1} "
                f"is below {SINGULAR_RTOL:g} of the matrix scale {scale:.3e}"
            )
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col])
    return np.ascontiguousarray(aug[:, n:])


def relative_error(x, ref):
    return mat_norm_maxabs(x - ref) / mat_norm_maxabs(ref)


# Sizes on both sides of one and two block edges.
BLOCK_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 256)
# The same, and both sides of the inverse's first panel edge.
INVERSE_SIZES = tuple(sorted({*BLOCK_SIZES, _PANEL - 1, _PANEL, _PANEL + 1}))


class TestMatMul:
    """The oracle multiplies with numpy's @; hand values pin it on complex128."""

    def test_identity_times_matrix(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 3)
        np.testing.assert_array_equal(mat_identity(3) @ m, m)

    def test_hand_product(self):
        m = np.array([[1, 2], [1, 1]], dtype=complex)
        np.testing.assert_array_equal(m @ m, [[3, 4], [2, 3]])

    def test_family_a_square(self):
        a = build_matrix(FamilySpec(FAMILY_A, 3, 1, 1))
        np.testing.assert_allclose(a @ a, [[3, 4, 4], [2, 5, 4], [1, 2, 3]])

    def test_associativity_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            x, y, z = (random_matrix(rng, n) for _ in range(3))
            left = (x @ y) @ z
            right = x @ (y @ z)
            scale = max(1.0, mat_norm_maxabs(left))
            assert mat_norm_maxabs(left - right) <= 1e-9 * scale


class TestMatPowBinary:
    def test_zeroth_power_is_identity(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 4)
        np.testing.assert_array_equal(mat_pow_binary(m, 0), mat_identity(4))

    def test_first_power_is_matrix(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 4)
        np.testing.assert_allclose(mat_pow_binary(m, 1), m)

    def test_cube_of_family_a(self):
        a = build_matrix(FamilySpec(FAMILY_A, 3, 1, 1))
        np.testing.assert_allclose(
            mat_pow_binary(a, 3), [[7, 14, 12], [7, 13, 14], [3, 7, 7]]
        )

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mat_pow_binary(mat_identity(2), -1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            mat_pow_binary(np.ones((2, 3)), 2)

    def test_exponent_must_be_integral(self):
        m = np.array([[1, 1], [1, 0]], dtype=complex)
        for s in (2.7, 2.0):
            with pytest.raises(TypeError):
                mat_pow_binary(m, s)
        np.testing.assert_array_equal(mat_pow_binary(m, np.int64(5)), [[8, 5], [5, 3]])

    def test_first_power_is_a_copy(self):
        m = mat_identity(3)
        result = mat_pow_binary(m, 1)
        result[0, 0] = 7.0
        assert m[0, 0] == 1.0

    def test_equals_chained_products_around_powers_of_two(self):
        rng = np.random.default_rng(31)
        m = random_matrix(rng, 6)
        m /= np.abs(np.linalg.eigvals(m)).max()
        chained = [mat_identity(6)]
        for _ in range(65):
            chained.append(chained[-1] @ m)
        for s in (0, 1, 2, 3, 63, 64, 65):
            assert relative_error(mat_pow_binary(m, s), chained[s]) <= 1e-12

    def test_matches_chained_multiplication(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(1, 9))
            s = int(rng.integers(0, 7))
            m = random_matrix(rng, n)
            chained = mat_identity(n)
            for _ in range(s):
                chained = chained @ m
            scale = max(1.0, mat_norm_maxabs(chained))
            assert mat_norm_maxabs(mat_pow_binary(m, s) - chained) <= 1e-9 * scale


def _tridiagonal(rng, n):
    m = np.diag(random_matrix(rng, 1, 1.0)[0, 0] + random_matrix(rng, n, 0.2)[0])
    off = random_matrix(rng, 2, 1.0)[0]
    return m + np.diag(np.full(n - 1, off[0]), 1) + np.diag(np.full(n - 1, off[1]), -1)


def _zero_middle(rng, n):
    m = _tridiagonal(rng, n)
    m[n // 2] = 0.0
    m[:, n // 2] = 0.0
    return m


ENVELOPE_MATRICES = {
    "tridiagonal": _tridiagonal,
    "anti-tridiagonal": lambda rng, n: _tridiagonal(rng, n)[::-1],
    "diagonal": lambda rng, n: np.diag(random_matrix(rng, n)[0]),
    "zero": lambda rng, n: np.zeros((n, n), dtype=complex),
    "zero-row-and-column": _zero_middle,
    "lower-bidiagonal": lambda rng, n: np.tril(np.triu(random_matrix(rng, n), -1)),
    "upper-bidiagonal": lambda rng, n: np.triu(np.tril(random_matrix(rng, n), 1)),
    # Row spans that are not monotone in the row index.
    "permuted-tridiagonal": lambda rng, n: _tridiagonal(rng, n)[rng.permutation(n)],
    "dense": random_matrix,
}


class TestEnvelopePowers:
    """mat_pow_binary skips exact zeros; a chain of plain products is the reference."""

    def test_spans_are_exact(self):
        rows = np.zeros((4, 6), dtype=complex)
        rows[0, [0, 2]] = 1.0
        rows[1] = 1.0
        rows[3, 2], rows[3, 4] = np.nan, np.inf
        first, stop = _spans(rows)
        np.testing.assert_array_equal(first, [0, 0, 6, 2])
        np.testing.assert_array_equal(stop, [3, 6, 0, 5])
        first, stop = _spans(np.array([[1, 0], [1, 1]], dtype=complex))
        np.testing.assert_array_equal(first, [0, 0])
        np.testing.assert_array_equal(stop, [1, 2])

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ENVELOPE_MATRICES)
    def test_matches_chained_products_and_keeps_zeros(self, kind, n):
        m = np.ascontiguousarray(ENVELOPE_MATRICES[kind](np.random.default_rng(n), n))
        radius = np.abs(np.linalg.eigvals(m)).max()
        if radius > 0:
            m /= radius
        pattern = (m != 0).astype(float)
        chained, reach = [mat_identity(n)], [np.eye(n)]
        for _ in range(65):
            chained.append(chained[-1] @ m)
            reach.append(np.minimum(reach[-1] @ pattern, 1.0))
        for s in (0, 1, 2, 3, 63, 64, 65):
            power = mat_pow_binary(m, s)
            # Entries that no path of length s reaches are exactly zero.
            assert not power[reach[s] == 0].any(), (kind, n, s)
            scale = mat_norm_maxabs(chained[s])
            assert mat_norm_maxabs(power - chained[s]) <= 1e-12 * scale, (kind, n, s)


def reference_pow_binary(m, s, syrk=False):
    """Binary powering with banded products, written out block by block.

    The reference for mat_pow_binary's bits.  Each product's row spans come
    from its operands' (row i reaches the rows a_first[i]:a_stop[i] of b),
    and each block of _BLOCK rows writes a[rows, k0:k1] @ b[k0:k1, j0:j1]
    into a zero matrix, k0:k1 being the columns its rows span and j0:j1
    those that b's rows k0:k1 span.  Two operands with full spans take a
    plain product, or a @ a.T for a square when syrk is set.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]

    def product(a, a_spans, b, b_spans):
        (a_first, a_stop), (b_first, b_stop) = a_spans, b_spans
        first, stop = np.full(n, n), np.zeros(n, dtype=int)
        for i in range(n):
            if a_first[i] < a_stop[i]:
                first[i] = b_first[a_first[i]:a_stop[i]].min()
                stop[i] = b_stop[a_first[i]:a_stop[i]].max()
        if max(a_first.max(), b_first.max()) == 0 and min(a_stop.min(), b_stop.min()) == n:
            return (a @ a.T if syrk and a is b else a @ b), (first, stop)
        c = np.zeros((n, n), dtype=np.complex128)
        for start in range(0, n, _BLOCK):
            rows = slice(start, start + _BLOCK)
            k0, k1 = a_first[rows].min(), a_stop[rows].max()
            if k0 < k1:
                j0, j1 = b_first[k0:k1].min(), b_stop[k0:k1].max()
                if j0 < j1:
                    c[rows, j0:j1] = a[rows, k0:k1] @ b[k0:k1, j0:j1]
        return c, (first, stop)

    base = m, _spans(m)
    while not s & 1:
        base = product(*base, *base)
        s >>= 1
    result = base
    s >>= 1
    while s:
        base = product(*base, *base)
        if s & 1:
            result = product(*result, *base)
        s >>= 1
    return result[0]


def _symmetric(rng, n):
    m = random_matrix(rng, n)
    m = m + m.T
    return m / np.abs(np.linalg.eigvals(m)).max()


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


# (family, n, s) with 2**k = s and 2**(k-1) >= n - 1, so the last product
# is the square of a power whose rows span every column.
FULL_SQUARES = [
    (family, n, s)
    for family in (FAMILY_ADAGGER, FAMILY_ANTI)
    for n, s in ((2, 4), (8, 16), (8, 4096), (18, 64), (64, 4096), (130, 4096))
] + [(FAMILY_ADAGGER, n, s) for n, s in ((3, 8), (17, 64), (129, 4096))]


class TestSymmetricSquares:
    """Full squares of an exactly symmetric input are a @ a.T (BLAS syrk)."""

    @pytest.mark.parametrize("family, n, s", FULL_SQUARES)
    def test_symmetric_family_power_is_exactly_symmetric(self, family, n, s):
        m = build_matrix(FamilySpec(family, n, 0.6j, 0.4))
        power = mat_pow_binary(m, s)
        assert np.array_equal(power, power.T)
        assert _same_bits(power, reference_pow_binary(m, s, syrk=True))

    @pytest.mark.parametrize("n", [3, 33, 70])
    def test_symmetric_dense_power_is_exactly_symmetric(self, n):
        m = _symmetric(np.random.default_rng(n), n)
        for s in (2, 4, 64):
            power = mat_pow_binary(m, s)
            assert np.array_equal(power, power.T), s
            assert _same_bits(power, reference_pow_binary(m, s, syrk=True)), s

    @pytest.mark.parametrize("n", [2, 17, 32, 33, 130])
    def test_family_a_keeps_the_plain_products(self, n):
        m = build_matrix(FamilySpec(FAMILY_A, n, 0.6j, 0.4))
        assert not np.array_equal(m, m.T)
        for s in (1, 2, 3, 64, 4096, 4097):
            assert _same_bits(mat_pow_binary(m, s), reference_pow_binary(m, s)), s

    @pytest.mark.parametrize("n", [1, 3, 33, 70])
    @pytest.mark.parametrize("kind", ["dense", "permuted-tridiagonal", "lower-bidiagonal"])
    def test_unsymmetric_inputs_keep_the_plain_products(self, kind, n):
        m = np.ascontiguousarray(ENVELOPE_MATRICES[kind](np.random.default_rng(n), n))
        m /= max(1.0, np.abs(np.linalg.eigvals(m)).max())
        for s in (1, 2, 3, 7, 64, 65):
            assert _same_bits(mat_pow_binary(m, s), reference_pow_binary(m, s)), s

    @pytest.mark.parametrize("n", [3, 33, 70])
    def test_one_ulp_from_symmetric_keeps_the_plain_products(self, n):
        m = _symmetric(np.random.default_rng(n), n)
        m[0, -1] = complex(np.nextafter(m[0, -1].real, np.inf), m[0, -1].imag)
        for s in (2, 64):
            power = mat_pow_binary(m, s)
            assert _same_bits(power, reference_pow_binary(m, s)), s
            assert not _same_bits(power, reference_pow_binary(m, s, syrk=True)), s

    def test_one_ulp_from_symmetric_family_keeps_the_plain_products(self):
        m = build_matrix(FamilySpec(FAMILY_ADAGGER, 17, 0.6j, 0.4))
        m[3, 4] = complex(m[3, 4].real, np.nextafter(m[3, 4].imag, np.inf))
        power = mat_pow_binary(m, 64)
        assert _same_bits(power, reference_pow_binary(m, 64))
        assert not _same_bits(power, reference_pow_binary(m, 64, syrk=True))


def _band(rng, n, lower, upper):
    """Random entries on the band, with a shifted diagonal; pivots still swap."""
    m = np.triu(np.tril(random_matrix(rng, n, 1.0), upper), -lower)
    return m + np.diag(np.full(n, 1.5))


BAND_MATRICES = {
    "tridiagonal": lambda rng, n: _band(rng, n, 1, 1),
    "anti-tridiagonal": lambda rng, n: _band(rng, n, 1, 1)[::-1],
    "lower-bidiagonal": lambda rng, n: _band(rng, n, 1, 0),
    "upper-bidiagonal": lambda rng, n: _band(rng, n, 0, 1),
    "pentadiagonal": lambda rng, n: _band(rng, n, 2, 2),
    "diagonal": lambda rng, n: _band(rng, n, 0, 0),
    # The row order has to come from the entries.
    "permuted-tridiagonal": lambda rng, n: _band(rng, n, 1, 1)[rng.permutation(n)],
}


class TestMatInverse:
    def test_identity(self):
        np.testing.assert_array_equal(mat_inverse(mat_identity(3)), mat_identity(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            mat_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_family_a_inverse_residual(self):
        # invertible: eigenvalue product 5*3*(-1)*(-3) = 45
        a = build_matrix(FamilySpec(FAMILY_A, 4, 1, 2))
        residual = mat_norm_maxabs(a @ mat_inverse(a) - mat_identity(4))
        assert residual < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            mat_inverse(np.array([[np.nan, 0], [0, 1]]))

    def test_random_diagonally_dominant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            m = random_matrix(rng, n)
            m += np.diag(np.full(n, 4.0 * n))
            residual = mat_norm_maxabs(m @ mat_inverse(m) - mat_identity(n))
            assert residual <= 1e-9


# Every route to an inverse: both routes of a negative power factor first.
INVERTERS = (
    unblocked_inverse,
    mat_inverse,
    lambda m: oracle_power(m, -3),
    lambda m: oracle_power(m, -1024),
)


def _singular_columns(m):
    """The column that each of INVERTERS names when it refuses m."""
    columns = []
    for invert in INVERTERS:
        with pytest.raises(SingularMatrixError) as err:
            invert(m)
        columns.append(re.search(r"at column (\d+) ", str(err.value)).group(1))
    return columns


def _check_inverse(m):
    """mat_inverse(m) is the factors' back-substitution, bit for bit, near the reference."""
    inverse = mat_inverse(m)
    assert _same_bits(inverse, _invert(_banded_lu(m, SINGULAR_RTOL)))
    assert relative_error(inverse, unblocked_inverse(m)) <= 1e-12


class TestBlockedInverse:
    @pytest.mark.parametrize("n", INVERSE_SIZES)
    def test_matches_unblocked_reference_on_dense(self, n):
        # The full band.
        _check_inverse(random_matrix(np.random.default_rng(n), n))

    @pytest.mark.parametrize(
        "family, n",
        [(FAMILY_A, n) for n in INVERSE_SIZES if n >= 2]
        + [(FAMILY_ADAGGER, n) for n in INVERSE_SIZES]
        + [(FAMILY_ANTI, n + n % 2) for n in INVERSE_SIZES],
    )
    def test_matches_unblocked_reference_on_families(self, family, n):
        # |a| > 2|b| keeps every eigenvalue a + b*node away from zero.
        _check_inverse(build_matrix(FamilySpec(family, n, 3.0 + 1.0j, 0.8 - 0.9j)))

    @pytest.mark.parametrize("n", INVERSE_SIZES)
    @pytest.mark.parametrize("kind", BAND_MATRICES)
    def test_matches_unblocked_reference_on_band_shapes(self, kind, n):
        _check_inverse(np.ascontiguousarray(BAND_MATRICES[kind](np.random.default_rng(n), n)))

    def test_singular_tridiagonal_column_past_the_first_block(self):
        n, bad = 2 * _BLOCK + 1, _BLOCK + 13
        m = _band(np.random.default_rng(46), n, 1, 1)
        # Columns bad - 1 and bad become parallel and stay tridiagonal.
        m[bad - 2, bad - 1] = m[bad + 1, bad] = 0.0
        m[bad - 1:bad + 1, bad] = 2.0 * m[bad - 1:bad + 1, bad - 1]
        assert _singular_columns(m) == [str(bad + 1)] * len(INVERTERS)

    def test_singular_column_past_the_first_block(self):
        rng = np.random.default_rng(46)
        n, bad = 2 * _BLOCK + 1, _BLOCK + 13
        m = random_matrix(rng, n)
        m[:, bad] = m[:, :bad] @ rng.uniform(-1, 1, bad)
        assert _singular_columns(m) == [str(bad + 1)] * len(INVERTERS)


def _chain(m, k, squares):
    """m**-k by the chain with this many squares, built from the factors.

    k >> squares solves from I, then each square followed by one solve
    where the next lower bit of k is set.
    """
    lu = _banded_lu(m, SINGULAR_RTOL)
    x = _invert(lu)
    for _ in range((k >> squares) - 1):
        x = _solve(lu, x)
    for bit in reversed(range(squares)):
        x = x @ x
        if k >> bit & 1:
            x = _solve(lu, x)
    return x


def _counted_chain(m, k):
    """The squares of the cheapest chain, by counting every chain's steps."""
    lu = _banded_lu(m, SINGULAR_RTOL)
    n, c = m.shape[0], lu[5]
    costs = []
    for squares in range(k.bit_length()):
        solves = (k >> squares) - 1 + sum(k >> bit & 1 for bit in range(squares))
        costs.append((solves * c + squares * n * n, -squares))
    return -min(costs)[1]


def _counted_route(m, k):
    """m**-k by the chain that the count picks, on m as a whole."""
    return _chain(m, k, _counted_chain(m, k))


def _unscaled(power, e):
    """D^-1 power D for D = diag(2**e): entry (i, j) times 2**(e_j - e_i)."""
    return power * np.ldexp(1.0, -e)[:, None] * np.ldexp(1.0, e)


def _joined(route, m, k):
    """The join of route(half, k) run on both halves of m's split, scaled back."""
    p, q, e = _centro_split(m)
    return _unscaled(_centro_join(route(p, k), route(q, k)), e)


# n on both sides of the first and the sixteenth panel edge.
ROUTE_CASES = [
    (family, n)
    for family in (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
    for n in (16, 17, 18, 257, 258)
    if family != FAMILY_ANTI or n % 2 == 0
]


class TestNegativePowers:
    """oracle_power(m, s < 0): the counted chain of banded solves and squares."""

    @pytest.mark.parametrize("family, n", ROUTE_CASES)
    def test_routes_agree_with_each_other_and_the_closed_form(self, family, n):
        # |a| > 2|b| keeps every eigenvalue a + b*node away from zero.
        for a, b in ((0.6j, 0.4), (3.0 + 1.0j, 0.8 - 0.9j)):
            spec = FamilySpec(family, n, a, b)
            m = build_matrix(spec)
            for k in (1, 2, 3, 5, 64):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ExtendedDomainWarning)
                    closed = power_matrix(spec, -k).matrix
                powered = mat_pow_binary(mat_inverse(m), k)
                chains = [_chain(m, k, squares) for squares in range(k.bit_length())]
                bound = 1e-13 + 8 * k * EPS
                for route in (powered, *chains):
                    assert relative_error(route, chains[0]) <= bound, (a, k)
                    assert relative_error(route, closed) <= bound, (a, k)
                oracle = oracle_power(m, -k)
                if _centro_split(m) is None:
                    routes = chains
                else:
                    # Even-n "adagger" and "anti" are centrosymmetric, and
                    # "a" is after a scaling: the oracle joins the same
                    # chains run on the two halves.
                    routes = [
                        _joined(lambda half, k: _chain(half, k, squares), m, k)
                        for squares in range(k.bit_length())
                    ]
                    assert relative_error(oracle, closed) <= bound, (a, k)
                assert any(_same_bits(oracle, route) for route in routes), (a, k)

    @pytest.mark.parametrize("family, n", ROUTE_CASES)
    def test_route_follows_the_operation_count(self, family, n):
        m = build_matrix(FamilySpec(family, n, 3.0 + 1.0j, 0.8 - 0.9j))
        c = _banded_lu(m, SINGULAR_RTOL)[5]
        # Up to n = 17 the factors span one panel and a column, and a solve
        # costs n**2 per column, as a product by the inverse does.  At
        # n = 18 and past it a tridiagonal solve costs under 20 n.
        assert c == n * n if n <= 17 else c < 20 * n
        for k in (2, 3, 4, 5, 16, 64):
            if c == n * n:
                # A solve costs a square, and ties go to more squares.
                assert _counted_chain(m, k) == k.bit_length() - 1, k
            if _centro_split(m) is None:
                expected = _counted_route(m, k)
            else:
                # Each half of a centrosymmetric m takes its own count.
                expected = _joined(_counted_route, m, k)
            assert _same_bits(oracle_power(m, -k), expected), k
        if n >= 257:
            # 64 solves cost 1200 n**2 or more against 6 n**3 for the
            # powered inverse; the count takes 15 solves and 2 squares.
            assert _counted_chain(m, 64) == 2
            assert _counted_chain(m, 5) == 0

    @pytest.mark.parametrize(
        "family, n",
        [(FAMILY_A, n) for n in range(2, 9)]
        + [(FAMILY_ADAGGER, n) for n in range(1, 9)]
        + [(FAMILY_ANTI, n) for n in range(2, 9, 2)],
    )
    def test_small_n_large_exponents_take_every_square(self, family, n):
        # The route of the n <= 8, |s| >= 2**10 property tests.  A solve
        # costs n**2 per column, so the count takes bit_length - 1 squares:
        # the operations of binary powering the inverse.
        spec = FamilySpec(family, n, 3.0 + 1.0j, 0.8 - 0.9j)
        radius = float(np.abs(eigenvalues(spec)).min())
        spec = FamilySpec(family, n, spec.a / radius, spec.b / radius)
        m = build_matrix(spec)
        assert _banded_lu(m, SINGULAR_RTOL)[5] == n * n
        for k in (1, 2**10, 2**20 - 1, 2**20):
            assert _counted_chain(m, k) == k.bit_length() - 1, k
            chain = _counted_route(m, k)
            assert _same_bits(_inverse_power(m, k), chain), k
            oracle = oracle_power(m, -k)
            if _centro_split(m) is not None:
                chain = _joined(_counted_route, m, k)
            assert _same_bits(oracle, chain), k
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtendedDomainWarning)
                closed = power_matrix(spec, -k).matrix
            bound = 1e-13 + 8 * k * EPS
            assert relative_error(oracle, closed) <= bound, k
            assert relative_error(oracle, mat_pow_binary(mat_inverse(m), k)) <= bound, k

    def test_dense_input_takes_every_square(self):
        m = random_matrix(np.random.default_rng(7), 40)
        assert _banded_lu(m, SINGULAR_RTOL)[5] == 40 * 40
        for k in (2, 3, 64):
            assert _counted_chain(m, k) == k.bit_length() - 1, k
            oracle = oracle_power(m, -k)
            assert _same_bits(oracle, _chain(m, k, k.bit_length() - 1)), k
            bound = 1e-13 + 8 * k * EPS
            assert relative_error(oracle, mat_pow_binary(mat_inverse(m), k)) <= bound, k
        solves = _chain(m, 64, 0)
        assert relative_error(solves, oracle_power(m, -64)) <= 1e-10

    def test_exponent_is_an_index(self):
        m = build_matrix(FamilySpec(FAMILY_A, 40, 3.0 + 1.0j, 0.8 - 0.9j))
        for s in (-3, -64):
            assert _same_bits(oracle_power(m, np.int64(s)), oracle_power(m, s)), s
        with pytest.raises(TypeError):
            oracle_power(m, -3.0)


def _plain_power(m, s):
    """The route of oracle_power on m as a whole, without the split."""
    return mat_pow_binary(m, s) if s >= 0 else _inverse_power(m, -s)


def _centrosymmetric(p, q):
    """[[B, C], [J C J, J B J]] with B + C J = p and B - C J = q.

    Entries that are small dyadic numbers keep every step exact, so the
    split gives p and q back bit for bit.
    """
    b, cj = (p + q) / 2, (p - q) / 2
    top = np.hstack((b, cj[:, ::-1]))
    return np.vstack((top, top[::-1, ::-1])).astype(np.complex128)


def _diagonally_dominant(h):
    """4 on the diagonal and 1 beside it: exact entries, pivots far from zero."""
    return 4.0 * np.eye(h) + np.eye(h, k=1) + np.eye(h, k=-1)


# Halves of 8, 9, 65 and 129 rows: within one panel, and one row past a
# panel and a block edge.
SPLIT_CASES = [(family, n) for family in (FAMILY_ADAGGER, FAMILY_ANTI) for n in (16, 18, 130, 258)]


class TestCentrosymmetricSplit:
    """An exactly centrosymmetric m of even n is powered as two halves where the power is dense."""

    def test_hand_values(self):
        # Eigenvalues 3 and 1: m**s = [[3**s + 1, 3**s - 1], [3**s - 1, 3**s + 1]] / 2.
        m = np.array([[2, 1], [1, 2]], dtype=np.complex128)
        assert [part.tolist() for part in _centro_split(m)] == [[[3]], [[1]], [0, 0]]
        assert oracle_power(m, 4).tolist() == [[41, 40], [40, 41]]
        assert relative_error(oracle_power(m, -1), np.array([[2, -1], [-1, 2]]) / 3) <= EPS

    def test_split_and_join_are_exact(self):
        rng = np.random.default_rng(21)
        p, q = (rng.integers(-8, 9, (5, 5)).astype(np.complex128) for _ in range(2))
        halves = _centro_split(_centrosymmetric(p, q))
        assert _same_bits(halves[0], p) and _same_bits(halves[1], q)
        assert _same_bits(_centro_join(p.copy(), q.copy()), _centrosymmetric(p, q))

    @pytest.mark.parametrize("family, n", SPLIT_CASES)
    def test_agrees_with_the_plain_route(self, family, n):
        # Spectral radii 1 and 0.85, every eigenvalue at least 0.57 in modulus.
        for a, b in ((0.6j, 0.4), (0.3 - 0.5j, 0.25 + 0.1j)):
            m = build_matrix(FamilySpec(family, n, a, b))
            assert _centro_split(m) is not None
            for s in (1, 2, 3, 64, n - 1, 4096, -1, -3, -64):
                oracle = oracle_power(m, s)
                bound = 1e-13 + 8 * abs(s) * EPS
                assert relative_error(oracle, _plain_power(m, s)) <= bound, (a, s)

    @pytest.mark.parametrize("family, n", SPLIT_CASES)
    def test_dense_powers_join_the_halves(self, family, n):
        m = build_matrix(FamilySpec(family, n, 0.6j, 0.4))
        # 2**k >= n squares past the first full square: n = 16 at s = 64.
        for s in (64, 4096, -1, -3, -64) if n <= 64 else (4096, -1, -3, -64):
            oracle = oracle_power(m, s)
            assert _same_bits(oracle, _joined(_plain_power, m, s)), s
            # Exactly centrosymmetric, signed zeros included.
            assert _same_bits(oracle, np.ascontiguousarray(oracle[::-1, ::-1])), s

    @pytest.mark.parametrize(
        "family, n, exponents",
        [
            # Odd n: "adagger" is not centrosymmetric.
            (FAMILY_ADAGGER, 17, (64, 4096, -1, -64)),
            (FAMILY_ADAGGER, 257, (4096, -3, -64)),
            # Powers that stay banded: no square spans every column.
            (FAMILY_ADAGGER, 258, (1, 2, 3, 64, 255, 256)),
            (FAMILY_ANTI, 258, (1, 2, 3, 63, 64, 255)),
        ],
    )
    def test_other_inputs_keep_the_plain_route(self, family, n, exponents):
        m = build_matrix(FamilySpec(family, n, 0.6j, 0.4))
        for s in exponents:
            assert _same_bits(oracle_power(m, s), _plain_power(m, s)), s

    def test_one_ulp_from_centrosymmetric_keeps_the_plain_route(self):
        m = build_matrix(FamilySpec(FAMILY_ADAGGER, 130, 0.6j, 0.4))
        m[127, 126] = complex(np.nextafter(m[127, 126].real, np.inf), m[127, 126].imag)
        assert _centro_split(m) is None
        for s in (64, 4096, -3):
            assert _same_bits(oracle_power(m, s), _plain_power(m, s)), s

    def test_halves_that_overflow_keep_the_plain_route(self):
        # B + C J overflows where m does not; the inverse is representable.
        m = build_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1e308, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _centro_split(m) is None
            for s in (-1, -3):
                assert _same_bits(oracle_power(m, s), _plain_power(m, s)), s

    @pytest.mark.parametrize("family, n", SPLIT_CASES)
    def test_zeroth_power_is_the_exact_identity(self, family, n):
        m = build_matrix(FamilySpec(family, n, 0.6j, 0.4))
        assert _same_bits(oracle_power(m, 0), mat_identity(n))

    @pytest.mark.parametrize("singular", ["P", "Q"])
    def test_a_singular_half_is_named(self, singular):
        h = 20
        good, bad = _diagonally_dominant(h), _diagonally_dominant(h)
        # Two parallel columns make the bad half singular, and so m.
        bad[:, 13] = 2.0 * bad[:, 12]
        m = _centrosymmetric(*((bad, good) if singular == "P" else (good, bad)))
        for invert in INVERTERS[2:]:
            with pytest.raises(SingularMatrixError, match=f"half {singular} ") as err:
                invert(m)
            assert "column" not in str(err.value)
        with pytest.raises(SingularMatrixError):
            mat_inverse(m)

    def test_zero_matrix_is_refused_as_such(self):
        for n in (2, 18):
            with pytest.raises(SingularMatrixError, match="zero matrix"):
                oracle_power(np.zeros((n, n)), -1)

    @pytest.mark.parametrize("small", ["P", "Q"])
    def test_pivots_compare_with_the_scale_of_the_whole_matrix(self, small):
        # The small half is well conditioned on its own scale, but its
        # pivots fall below SINGULAR_RTOL of the whole matrix's.
        h = 20
        halves = (_diagonally_dominant(h), 2.0 ** -50 * _diagonally_dominant(h))
        m = _centrosymmetric(*(halves[::-1] if small == "P" else halves))
        assert mat_norm_maxabs(m) >= 2.0
        with pytest.raises(SingularMatrixError, match=f"half {small} "):
            oracle_power(m, -1)
        with pytest.raises(SingularMatrixError):
            mat_inverse(m)
        assert mat_norm_maxabs(mat_inverse(halves[1]) @ halves[1] - mat_identity(h)) <= 1e-12


def _doubled_last_row(m):
    """D m D^-1 for D = diag(1, ..., 1, 2): the last row doubled, the last column halved."""
    scaled = m.copy()
    scaled[-1] *= 2.0
    scaled[:, -1] /= 2.0
    return scaled


def _scaled_route(m, s):
    """m**s as D^-1 S**s D with S = D m D^-1 joined from its halves, D as in _doubled_last_row."""
    power = _joined(_plain_power, _doubled_last_row(m), s)
    power[-1] /= 2.0
    power[:, -1] *= 2.0
    return power


def _plain_route_kept(m, exponents):
    """Assert that oracle_power(m, s) is the whole-matrix power, bit for bit, for each s."""
    for s in exponents:
        assert _same_bits(oracle_power(m, s), _plain_power(m, s)), s


# Even-n family "a": halves of 8, 9, 65 and 129 rows, as in SPLIT_CASES.
SCALED_SIZES = (16, 18, 130, 258)


class TestScaledCentrosymmetricSplit:
    """An m that a power-of-two diagonal scaling makes centrosymmetric splits where the power is dense."""

    @pytest.mark.parametrize("n", SCALED_SIZES)
    def test_family_a_scales_its_last_row(self, n):
        m = build_matrix(FamilySpec(FAMILY_A, n, 0.6j, 0.4))
        p, q, e = _centro_split(m)
        assert e.tolist() == [0] * (n - 1) + [1]
        # The halves of the scaled m, which needs no further scaling.
        *halves, e = _centro_split(_doubled_last_row(m))
        assert not e.any()
        assert _same_bits(p, halves[0]) and _same_bits(q, halves[1])

    @pytest.mark.parametrize("n", SCALED_SIZES)
    def test_dense_powers_join_the_scaled_halves(self, n):
        for a, b in ((0.6j, 0.4), (0.3 - 0.5j, 0.25 + 0.1j)):
            m = build_matrix(FamilySpec(FAMILY_A, n, a, b))
            for s in ((64, 4096) if n <= 64 else (4096,)) + (-1, -3, -64):
                assert _same_bits(oracle_power(m, s), _scaled_route(m, s)), (a, s)

    @pytest.mark.parametrize("n", SCALED_SIZES)
    def test_agrees_with_the_plain_route_and_the_closed_form(self, n):
        for a, b in ((0.6j, 0.4), (0.3 - 0.5j, 0.25 + 0.1j)):
            spec = FamilySpec(FAMILY_A, n, a, b)
            m = build_matrix(spec)
            for s in (64, n - 1, 1000, 4096, -1, -3, -64):
                oracle = oracle_power(m, s)
                bound = 1e-13 + 8 * abs(s) * EPS
                assert relative_error(oracle, _plain_power(m, s)) <= bound, (a, s)
                assert relative_error(oracle, power_matrix(spec, s).matrix) <= bound, (a, s)

    @pytest.mark.parametrize(
        "n, exponents",
        [
            # Odd n: no centrosymmetric split, scaled or not.
            (17, (64, 4096)),
            (129, (4096,)),
            # Powers that stay banded: no square spans every column.
            (258, (1, 2, 3, 64, 255, 256)),
        ],
    )
    def test_other_powers_of_a_keep_the_plain_route(self, n, exponents):
        m = build_matrix(FamilySpec(FAMILY_A, n, 0.6j, 0.4))
        _plain_route_kept(m, exponents)

    @pytest.mark.parametrize("edit", ["zero off-diagonal", "pentadiagonal"])
    def test_inputs_with_an_exact_scaling_split(self, edit):
        m = build_matrix(FamilySpec(FAMILY_A, 130, 0.6j, 0.4))
        if edit == "zero off-diagonal":
            # Mirrored, so that the scaled m stays centrosymmetric.
            m[60, 61] = m[69, 68] = 0.0
            exponents = (4096, -3)
        else:
            # D^-1 S D for S the scaled "a" with 0.1 added two places off
            # the diagonal, which keeps S centrosymmetric.
            scaled = _doubled_last_row(m) + 0.1 * (np.eye(130, k=2) + np.eye(130, k=-2))
            m = _unscaled(scaled, np.array([0] * 129 + [1]))
            # The spectral radius is above 1, so s = 4096 would overflow.
            exponents = (-3, -64)
        assert _centro_split(m)[2].tolist() == [0] * 129 + [1]
        for s in exponents:
            bound = 1e-13 + 8 * abs(s) * EPS
            assert relative_error(oracle_power(m, s), _plain_power(m, s)) <= bound, s

    @pytest.mark.parametrize("edit", ["ratio of 3", "off the band", "one ulp"])
    def test_inputs_without_an_exact_scaling_keep_the_plain_route(self, edit):
        m = build_matrix(FamilySpec(FAMILY_A, 130, 0.6j, 0.4))
        if edit == "ratio of 3":
            # 3b over b: a scaling by 3 would do, but it is not exact.
            m[0, 1] *= 1.5
        elif edit == "off the band":
            # Mirrored, but the scaling that the off-diagonals propose
            # doubles only the lower one.
            m[0, 2] = m[129, 127] = 0.1
        else:
            m[0, 1] = complex(np.nextafter(m[0, 1].real, np.inf), m[0, 1].imag)
        assert _centro_split(m) is None
        _plain_route_kept(m, (4096, -3))

    def test_scaled_copy_that_overflows_is_refused(self):
        # 4 above the diagonal and 1 below it propose k = 2 for every pair,
        # e = (0, 0, 0, 0, 1, 3, 5, 7), which takes entry (7, 0) past the
        # float maximum.
        m = np.triu(np.full((8, 8), 4.0 + 0j), 1) + np.tril(np.ones((8, 8)))
        m[7, 0] = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _centro_split(m) is None

    def test_centrosymmetric_input_needs_no_scaling(self):
        m = build_matrix(FamilySpec(FAMILY_ADAGGER, 130, 0.6j, 0.4))
        assert not _centro_split(m)[2].any()

    def test_exponents_are_read_from_every_pair(self):
        # Mirrored pairs with ratios 2**3, 2**-2 and, in the middle, 2**4.
        n = 8
        upper = np.ones(n - 1)
        upper[0], upper[6], upper[2], upper[4], upper[3] = 8.0, 8.0, 0.25, 0.25, 16.0
        m = (np.diag(upper, 1) + np.diag(np.ones(n - 1), -1) + np.eye(n)).astype(np.complex128)
        e = _centro_split(m)[2]
        # g = e[1:] - e[:-1] puts each pair's exponent on its later index.
        assert np.diff(e).tolist() == [0, 0, 0, 2, -2, 0, 3]
        scaled = m * np.ldexp(1.0, e)[:, None] / np.ldexp(1.0, e)
        assert _same_bits(scaled, np.ascontiguousarray(scaled[::-1, ::-1]))
        for s in (8, 64, -1, -3):
            expected = _unscaled(_joined(_plain_power, scaled, s), e)
            assert _same_bits(oracle_power(m, s), expected), s
        # An odd exponent in the middle pair needs a factor 2**(1/2).
        m[3, 4] = 8.0
        assert _centro_split(m) is None
        _plain_route_kept(m, (8, 64, -1, -3))


class TestSolveInPlace:
    @pytest.mark.parametrize("family, n", [(FAMILY_A, 17), (FAMILY_ADAGGER, 130), (FAMILY_A, 257)])
    def test_matches_the_copying_solve(self, family, n):
        # Rows already in order: the solve works on b itself.
        m = build_matrix(FamilySpec(family, n, 3.0 + 1.0j, 0.8 - 0.9j))
        lu = _banded_lu(m, SINGULAR_RTOL)
        work, rows, pivots, sort, panels, cost = lu
        assert sort is None
        b = random_matrix(np.random.default_rng(n), n)
        kept = b.copy()
        copying = _solve((work, rows, pivots, np.arange(n), panels, cost), b)
        assert _same_bits(b, kept)
        in_place = _solve(lu, b)
        assert in_place is b
        assert _same_bits(in_place, copying)

    def test_rows_out_of_order_are_copied(self):
        m = build_matrix(FamilySpec(FAMILY_ANTI, 130, 3.0 + 1.0j, 0.8 - 0.9j))
        lu = _banded_lu(m, SINGULAR_RTOL)
        assert lu[3] is not None
        b = random_matrix(np.random.default_rng(5), 130)
        kept = b.copy()
        x = _solve(lu, b)
        assert _same_bits(b, kept)
        assert relative_error(m @ x, kept) <= 1e-12


class TestMatDet:
    def test_hand_values(self):
        assert mat_det(np.array([[1, 2], [3, 4]], dtype=complex)) == pytest.approx(-2)
        assert mat_det(mat_identity(5)) == pytest.approx(1)
        assert mat_det(np.zeros((2, 2))) == 0

    def test_permutation_sign(self):
        assert mat_det(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1)

    def test_against_numpy_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            m = random_matrix(rng, n)
            expected = np.linalg.det(m)
            assert abs(mat_det(m) - expected) <= 1e-9 * (1 + abs(expected))

    @pytest.mark.parametrize(
        "family, n", [(FAMILY_A, 17), (FAMILY_ADAGGER, 130), (FAMILY_ANTI, 130), ("dense", 40)]
    )
    def test_factorization_without_solves_has_the_same_pivots(self, family, n):
        # The determinant skips the sweep of I and the back blocks, which
        # feed no pivot.
        if family == "dense":
            m = random_matrix(np.random.default_rng(8), n)
        else:
            m = build_matrix(FamilySpec(family, n, 3.0 + 1.0j, 0.8 - 0.9j))
        _, rows, pivots, sort, panels, cost = _banded_lu(m, 0.0, solves=False)
        full = _banded_lu(m, 0.0)
        assert _same_bits(pivots, full[2]) and (rows == full[1]).all()
        assert panels == [] and cost == full[5]
        assert (sort is None) == (full[3] is None)

    @pytest.mark.parametrize("a, b", [(0.6j, 0.4), (0.3 + 0.1j, -0.5 + 0.7j)])
    def test_anti_is_the_row_reversed_twin(self, a, b):
        # The row sort undoes the reversal, whose sign is (-1)**(n(n-1)/2).
        for n in range(2, 35, 2):
            anti = mat_det(build_matrix(FamilySpec(FAMILY_ANTI, n, a, b)))
            twin = mat_det(build_matrix(FamilySpec(FAMILY_ADAGGER, n, a, b)))
            assert anti != 0 and anti == (-1) ** (n * (n - 1) // 2) * twin, n

    @pytest.mark.parametrize("n", [15, 16, 17, 33, 130])
    @pytest.mark.parametrize("family", [FAMILY_A, FAMILY_ADAGGER])
    def test_equals_the_product_of_the_closed_form_eigenvalues(self, family, n):
        for a, b in ((0.6j, 0.4), (1.0 + 0.5j, 0.3 - 0.2j)):
            # Unit spectral radius, and no eigenvalue below 0.3 of it.
            radius = np.abs(eigenvalues(FamilySpec(family, n, a, b))).max()
            spec = FamilySpec(family, n, a / radius, b / radius)
            lam = eigenvalues(spec)
            assert np.abs(lam).min() >= 0.3 * np.abs(lam).max()
            expected = np.prod(lam)
            assert abs(mat_det(build_matrix(spec)) - expected) <= 1e-12 * abs(expected)

    def test_singular_column_past_the_first_panel(self):
        n, bad = 2 * _BLOCK + 1, _BLOCK + 13
        m = _band(np.random.default_rng(46), n, 1, 1)
        m[:, bad] = 0.0
        det = mat_det(m)
        assert det == 0 and isinstance(det, complex)
        # A pivot that mat_inverse refuses is still used.
        rng = np.random.default_rng(46)
        m = random_matrix(rng, n)
        m[:, bad] = m[:, :bad] @ rng.uniform(-1, 1, bad)
        assert np.isfinite(mat_det(m))


class TestNormAndCompare:
    def test_norm_zero(self):
        assert mat_norm_maxabs(np.zeros((3, 3))) == 0.0

    def test_norm_identity(self):
        assert mat_norm_maxabs(mat_identity(4)) == 1.0

    def test_norm_modulus(self):
        assert mat_norm_maxabs(np.array([[3 + 4j]])) == pytest.approx(5.0)
