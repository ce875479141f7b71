"""Dense complex matrix kernels forming the brute-force reference path.

Everything here is deliberately plain (exponentiation by squaring, LU
elimination with partial pivoting) so that the closed-form code elsewhere
in the package can be checked against a route that shares none of its
machinery.  Both kernels pay only for the band that they read from the
entries.  Products in binary powering skip the exact zeros outside each
row's first and last nonzero column, as banded products do (Golub and Van
Loan, Matrix Computations, 1.2), and each product's row spans follow from
its operands'.  One blocked banded LU with partial pivoting (ibid., 4.3)
serves the inverse, by one block back-substitution, and the determinant,
as the product of its pivots.  The band is read from the entries alone, so
it knows nothing of the families or their closed forms, and only terms
with an exact zero factor are dropped.  Nothing here calls numpy.linalg.
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

# mat_inverse treats a pivot whose modulus falls below this fraction of the
# largest initial entry modulus as zero; mat_det uses every nonzero pivot.
SINGULAR_RTOL = 1e-12

# Rows per block of a product in mat_pow_binary.
_BLOCK = 32

# Columns eliminated per panel of the banded LU.  On a narrow band each pivot
# step costs more in call overhead than in arithmetic, and a narrower panel
# makes the step cheaper.
_PANEL = 16


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


def _spans(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first nonzero column and one past its last.

    NaN and inf count as nonzero; an all-zero row of an n-column matrix
    gets the empty span (n, 0).  Rows that are nonzero at both ends need no
    scan.
    """
    count, n = rows.shape
    if rows[:, 0].all() and rows[:, -1].all():
        return np.full(count, 0), np.full(count, n)
    nonzero = rows != 0
    found = nonzero.any(axis=1)
    first = np.where(found, nonzero.argmax(axis=1), n)
    stop = np.where(found, n - nonzero[:, ::-1].argmax(axis=1), 0)
    return first, stop


def _product_spans(a_spans, b_spans, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row spans of a @ b, read from the spans of a and b.

    Row i of the product can be nonzero only in the columns that b's rows
    a_first[i]:a_stop[i] span, so its span runs from the least first to the
    greatest stop of those rows.  One reduceat over the interleaved (first,
    stop) indices takes both; a sentinel row at index n, reached by the
    empty span (n, 0), keeps empty rows empty.
    """
    (a_first, a_stop), (b_first, b_stop) = a_spans, b_spans
    bounds = np.column_stack((a_first, a_stop)).ravel()
    first = np.minimum.reduceat(np.append(b_first, n), bounds)[::2]
    stop = np.maximum.reduceat(np.append(b_stop, 0), bounds)[::2]
    return first, stop


def _product(a, a_spans, b, b_spans):
    """a @ b and its row spans, skipping the exact zeros outside the spans.

    Each block of _BLOCK rows of a multiplies only the columns its rows
    span by the rows of b in that range, and fills only the columns those
    rows of b span; every other entry of the product is exactly zero.  The
    terms skipped all have an exact zero factor, so the product equals a @ b
    whenever both are finite.  The product's spans come from the operands'
    (_product_spans): they may be wider than its nonzeros when terms cancel,
    never narrower.  Two operands with full spans take one plain product.
    """
    n = a.shape[0]
    (a_first, a_stop), (b_first, b_stop) = a_spans, b_spans
    spans = _product_spans(a_spans, b_spans, n)
    if max(a_first.max(), b_first.max()) == 0 and min(a_stop.min(), b_stop.min()) == n:
        return a @ b, spans
    c = np.zeros((n, n), dtype=np.complex128)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        k0, k1 = a_first[start:stop].min(), a_stop[start:stop].max()
        if k0 >= k1:
            continue
        j0, j1 = b_first[k0:k1].min(), b_stop[k0:k1].max()
        if j0 >= j1:
            continue
        c[start:stop, j0:j1] = a[start:stop, k0:k1] @ b[k0:k1, j0:j1]
    return c, spans


def mat_pow_binary(m, s: int) -> np.ndarray:
    """m raised to a non-negative integer power by squaring; s=0 gives identity.

    s must be an integer (TypeError otherwise).  The result starts as the
    base at the lowest set bit of s and squaring stops after the top bit,
    so no product goes unused.  Every product skips the exact zeros outside
    its operands' row spans (the first and last nonzero column of each row):
    the square of a tridiagonal or anti-tridiagonal matrix stays narrow for
    many squarings, and two dense operands cost one plain product.  The input
    is scanned once; each product's spans follow from its operands' spans.
    """
    m = _as_square(m)
    s = operator.index(s)
    if s < 0:
        raise ValueError("exponent must be non-negative; invert first for s < 0")
    n = m.shape[0]
    if s == 0:
        return mat_identity(n)
    base = m, _spans(m)
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


def _eliminate_panel(panel, rtol: float, scale: float, first: int, pivots) -> np.ndarray:
    """Gauss-Jordan elimination of a tall panel, in place, keeping B^-1.

    Column c takes its pivot from rows c onwards (the largest modulus in
    the column), is scaled to 1 in the pivot row and cleared in every other
    row.  Each cleared column is overwritten with the multipliers of its
    step, so that afterwards the top square of the panel holds B^-1, where
    B is the top square of the panel as permuted by the swaps.  Writes each
    pivot to pivots and returns the row order of the swaps.  Raises
    SingularMatrixError at a pivot that is zero or below rtol times scale,
    naming panel column c as column first + c + 1 of the whole matrix.
    """
    order = np.arange(panel.shape[0])
    for c in range(panel.shape[1]):
        factors = panel[:, c].copy()
        pivot_row = c + int(np.abs(factors[c:]).argmax())
        pivot_value = pivots[c] = factors[pivot_row]
        pivot = abs(pivot_value)
        if pivot < rtol * scale or pivot == 0.0:
            raise SingularMatrixError(
                f"singular matrix: pivot modulus {pivot:.3e} at column {first + c + 1} "
                f"is below {rtol:g} of the matrix scale {scale:.3e}"
            )
        if pivot_row != c:
            line = panel[c].copy()
            panel[c], panel[pivot_row] = panel[pivot_row], line
            order[c], order[pivot_row] = order[pivot_row], order[c]
            factors[pivot_row] = factors[c]
        factors[c] = 0.0
        # The column becomes that of the identity before the step, so the
        # step leaves its own multipliers there.
        panel[:, c] = 0.0
        panel[c, c] = 1.0
        pivot_line = panel[c]
        pivot_line /= pivot_value
        panel -= np.multiply.outer(factors, pivot_line)
    return order


def _banded_lu(m, rtol: float):
    """Forward sweep of a blocked banded LU with partial pivoting on modulus.

    The rows are first ordered by their first nonzero column (a stable
    sort), which makes an anti-tridiagonal matrix, or any row permutation
    of a banded one, banded again; a dense input is the full band.  Each
    block of _PANEL columns is eliminated on the rows that reach it, those
    whose first nonzero column lies left of the block's end: later rows are
    still zero there, so each pivot has the candidates of a dense LU.
    _eliminate_panel gives B^-1 for the pivot rows B and -R B^-1 for the
    other rows R.  These transforms clear the rows below the block over the
    columns that the panel's rows span, at most p + q past the block for
    lower and upper bandwidths p and q, and take the identity to Y = L^-1,
    where L U = m[rows].  Y sits below and U above the block diagonal of
    work, the block's own columns of Y being the panel itself.  Returns
    (work, rows, rights, pivots), rights[k] being one past the last column
    that block k's rows span.  Raises SingularMatrixError for the zero
    matrix and at a pivot that is zero or below rtol times max |m|.
    """
    m = _as_square(m)
    n = m.shape[0]
    moduli = np.abs(m)
    scale = float(moduli.max())
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    first, stop = _spans(moduli)
    rows = np.argsort(first, kind="stable")
    work = m[rows]
    first = first[rows]
    # Rows up to r span no column at or past reach[r], even after fill-in.
    reach = np.maximum.accumulate(stop[rows])
    rights, pivots = [], np.empty(n, dtype=np.complex128)
    for start in range(0, n, _PANEL):
        block_end = min(start + _PANEL, n)
        # Later rows start right of the block and are zero in its columns;
        # a panel shorter than the block would leave a column without pivot.
        end = max(int(np.searchsorted(first, block_end)), block_end)
        right = max(int(reach[end - 1]), block_end)
        rights.append(right)
        panel = work[start:end, start:block_end].copy()
        order = _eliminate_panel(panel, rtol, scale, start, pivots[start:block_end])
        work[start:end, :right] = work[start:end, :right][order]
        rows[start:end] = rows[start:end][order]
        inv_b, neg_r_inv_b = panel[:block_end - start], panel[block_end - start:]
        for cols in (slice(0, start), slice(block_end, right)):
            pivot_rows = work[start:block_end, cols]
            work[block_end:end, cols] += neg_r_inv_b @ pivot_rows
            work[start:block_end, cols] = inv_b @ pivot_rows
        work[start:end, start:block_end] = panel
    return work, rows, rights, pivots


def mat_inverse(m) -> np.ndarray:
    """Inverse by blocked banded LU with partial pivoting on modulus.

    After the forward sweep of _banded_lu, back-substitution, last block
    first, gives X = U^-1 Y, each block from the at most p + q rows of X
    right of it.  X inverts the row-ordered input, so its columns are
    permuted back.  Raises SingularMatrixError when the best pivot has
    modulus below SINGULAR_RTOL times the largest entry modulus.
    """
    work, rows, rights, _ = _banded_lu(m, SINGULAR_RTOL)
    n = work.shape[0]
    for start in reversed(range(0, n, _PANEL)):
        block_end = min(start + _PANEL, n)
        right = rights[start // _PANEL]
        upper = work[start:block_end, block_end:right].copy()
        work[start:block_end, block_end:right] = 0.0
        work[start:block_end] -= upper @ work[block_end:right]
    # Column rows[k] of the inverse is column k of X.
    if (rows == np.arange(n)).all():
        return work
    return work.take(np.argsort(rows), axis=1)


def mat_det(m) -> complex:
    """Determinant by the banded LU of mat_inverse, with a pivot floor of zero.

    The product of the pivots times the sign of the row order; a zero pivot
    gives exactly 0j, and a tiny one never raises SingularMatrixError.
    """
    try:
        _, rows, _, pivots = _banded_lu(m, 0.0)
    except SingularMatrixError:
        return 0j
    # Each swap that puts a row in its place flips the sign; n swaps at most.
    order, sign = rows.tolist(), 1
    for i in range(len(order)):
        while (j := order[i]) != i:
            order[i], order[j], sign = order[j], j, -sign
    return complex(sign * pivots.prod())


def mat_norm_maxabs(m) -> float:
    """Largest entry modulus."""
    m = np.asarray(m, dtype=np.complex128)
    return float(np.abs(m).max())
