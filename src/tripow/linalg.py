"""Dense complex matrix kernels forming the brute-force reference path.

Everything here is deliberately plain (chained products, exponentiation by
squaring, Gauss-Jordan elimination with partial pivoting) so that the
closed-form code elsewhere in the package can be checked against a route
that shares none of its machinery.  The inverse is blocked: the pivots are
chosen one column at a time as in textbook Gauss-Jordan, but the O(n**3)
updates run as matrix products over blocks of columns (Golub and Van Loan,
Matrix Computations, 3.2.11), and the inverse is stored in place of the
eliminated columns.  Products in binary powering skip the exact zeros
outside each row's first and last nonzero column, as banded products do
(ibid., 1.2): powers of a tridiagonal or anti-tridiagonal matrix stay
narrow for many squarings.  The envelope is read from the entries alone, so
it knows nothing of the families or their closed forms, and it drops only
terms with an exact zero factor.  Nothing here calls numpy.linalg.
"""

import operator

import numpy as np

__all__ = [
    "SingularMatrixError",
    "mat_identity",
    "mat_pow_binary",
    "mat_inverse",
    "mat_det",
    "mat_norm_maxabs",
]

# A pivot whose modulus falls below this fraction of the largest initial
# entry modulus is treated as zero.
SINGULAR_RTOL = 1e-12

# Columns eliminated per block of mat_inverse, and rows per block of a
# product in mat_pow_binary.
_BLOCK = 32


class SingularMatrixError(ArithmeticError):
    """Elimination met a pivot too small to divide by."""


def _as_square(m):
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def mat_identity(n: int) -> np.ndarray:
    """The n-by-n complex identity."""
    return np.eye(n, dtype=np.complex128)


def _spans(rows, offset: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first nonzero column and one past its last, plus offset.

    rows is a block of an n-column matrix starting at column offset.  NaN
    and inf count as nonzero; an all-zero row gets the empty span (n, 0).
    Rows that are nonzero at both ends of the block need no scan.
    """
    width = rows.shape[1]
    if rows[:, 0].all() and rows[:, -1].all():
        return np.full(rows.shape[0], offset), np.full(rows.shape[0], offset + width)
    nonzero = rows != 0
    found = nonzero.any(axis=1)
    first = np.where(found, offset + nonzero.argmax(axis=1), n)
    stop = np.where(found, offset + width - nonzero[:, ::-1].argmax(axis=1), 0)
    return first, stop


def _product(a, a_spans, b, b_spans):
    """a @ b and its row spans, skipping the exact zeros outside the spans.

    Each block of _BLOCK rows of a multiplies only the columns its rows
    span by the rows of b in that range, and fills only the columns those
    rows of b span; every other entry of the product is exactly zero.  The
    terms skipped all have an exact zero factor, so the product equals a @ b
    whenever both are finite.  Two operands with full spans take one plain
    product instead.
    """
    n = a.shape[0]
    (a_first, a_stop), (b_first, b_stop) = a_spans, b_spans
    if max(a_first.max(), b_first.max()) == 0 and min(a_stop.min(), b_stop.min()) == n:
        c = a @ b
        return c, _spans(c, 0, n)
    c = np.zeros((n, n), dtype=np.complex128)
    c_first, c_stop = np.full(n, n), np.zeros(n, dtype=int)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        k0, k1 = a_first[start:stop].min(), a_stop[start:stop].max()
        if k0 >= k1:
            continue
        j0, j1 = b_first[k0:k1].min(), b_stop[k0:k1].max()
        if j0 >= j1:
            continue
        block = a[start:stop, k0:k1] @ b[k0:k1, j0:j1]
        c[start:stop, j0:j1] = block
        c_first[start:stop], c_stop[start:stop] = _spans(block, j0, n)
    return c, (c_first, c_stop)


def mat_pow_binary(m, s: int) -> np.ndarray:
    """m raised to a non-negative integer power by squaring; s=0 gives identity.

    s must be an integer (TypeError otherwise).  The result starts as the
    base at the lowest set bit of s and squaring stops after the top bit,
    so no product goes unused.  Every product skips the exact zeros outside
    its operands' row spans (the first and last nonzero column of each row):
    the square of a tridiagonal or anti-tridiagonal matrix stays narrow for
    many squarings, and two dense operands cost one plain product.  The input
    is scanned once; each product's spans come from the blocks it computed.
    """
    m = _as_square(m)
    s = operator.index(s)
    if s < 0:
        raise ValueError("exponent must be non-negative; invert first for s < 0")
    n = m.shape[0]
    if s == 0:
        return mat_identity(n)
    base = m, _spans(m, 0, n)
    while not s & 1:
        base = _product(*base, *base)
        s >>= 1
    result = base[0].copy(), base[1]
    s >>= 1
    while s:
        base = _product(*base, *base)
        if s & 1:
            result = _product(*result, *base)
        s >>= 1
    return result[0]


def _eliminate_panel(panel, scale: float, first: int) -> np.ndarray:
    """Gauss-Jordan elimination of a tall panel, in place, keeping B^-1.

    Column c takes its pivot from rows c onwards (the largest modulus in
    the column), is scaled to 1 in the pivot row and cleared in every other
    row.  Each cleared column is overwritten with the multipliers of its
    step, so that afterwards the top square of the panel holds B^-1, where
    B is the top square of the panel as permuted by the swaps.  Returns the
    row order of the swaps.  Raises SingularMatrixError when a pivot has
    modulus below SINGULAR_RTOL times scale, naming panel column c as
    column first + c + 1 of the whole matrix.
    """
    order = np.arange(panel.shape[0])
    for c in range(panel.shape[1]):
        pivot_row = c + int(np.argmax(np.abs(panel[c:, c])))
        pivot = abs(panel[pivot_row, c])
        if pivot < SINGULAR_RTOL * scale:
            raise SingularMatrixError(
                f"singular matrix: pivot modulus {pivot:.3e} at column {first + c + 1} "
                f"is below {SINGULAR_RTOL:g} of the matrix scale {scale:.3e}"
            )
        if pivot_row != c:
            panel[[c, pivot_row]] = panel[[pivot_row, c]]
            order[[c, pivot_row]] = order[[pivot_row, c]]
        factors = panel[:, c].copy()
        pivot_value = factors[c]
        factors[c] = 0.0
        # The column becomes that of the identity before the step, so the
        # step leaves its own multipliers there.
        panel[:, c] = 0.0
        panel[c, c] = 1.0
        panel[c] /= pivot_value
        panel -= np.outer(factors, panel[c])
    return order


def mat_inverse(m) -> np.ndarray:
    """Inverse by blocked Gauss-Jordan elimination with partial pivoting on modulus.

    Column-replacement form: the columns of the inverse are stored in place
    of the columns they replace, so no identity half is carried along.
    Elimination runs _BLOCK columns at a time.  The block's columns are
    eliminated one by one on a copy of the rows that can still pivot, which
    fixes the row order and gives B^-1 for the block's pivot rows B.  The
    rows are then permuted once, and every column outside the block is
    updated with two products: T_B <- B^-1 T_B on the pivot rows, then
    T_R <- T_R - R T_B on the other rows, where R is the block's other rows
    before elimination.  The block's own columns become those of the
    inverse: B^-1 on the pivot rows and -R B^-1 elsewhere.  The result is
    the inverse of the row-permuted input, so its columns are permuted back
    at the end.

    Raises SingularMatrixError when the best available pivot has modulus
    below SINGULAR_RTOL times the largest entry modulus of the input.
    """
    m = _as_square(m)
    n = m.shape[0]
    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    work = m.copy()
    rows = np.arange(n)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # Rows above start hold earlier pivots and cannot pivot again.
        panel = work[start:, start:stop].copy()
        order = _eliminate_panel(panel, scale, start)
        work[start:] = work[start:][order]
        rows[start:] = rows[start:][order]
        inv_b = panel[:stop - start]
        for rest in (work[:, :start], work[:, stop:]):
            rest[start:stop] = inv_b @ rest[start:stop]
            rest[:start] -= work[:start, start:stop] @ rest[start:stop]
            rest[stop:] -= work[stop:, start:stop] @ rest[start:stop]
        work[:start, start:stop] = -(work[:start, start:stop] @ inv_b)
        work[start:, start:stop] = panel
    inverse = np.empty_like(work)
    inverse[:, rows] = work
    return inverse


def mat_det(m) -> complex:
    """Determinant by LU elimination with partial pivoting on modulus."""
    a = _as_square(m).copy()
    n = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot_row, col] == 0.0:
            return 0.0 + 0.0j
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            det = -det
        det *= a[col, col]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :] -= np.outer(factors, a[col])
    return complex(det)


def mat_norm_maxabs(m) -> float:
    """Largest entry modulus."""
    m = np.asarray(m, dtype=np.complex128)
    return float(np.abs(m).max())
