"""Dense complex matrix kernels forming the brute-force reference path.

Everything here is deliberately plain (chained products, exponentiation by
squaring, Gauss-Jordan elimination with partial pivoting) so that the
closed-form code elsewhere in the package can be checked against a route
that shares none of its machinery.  The inverse is blocked: the pivots are
chosen one column at a time as in textbook Gauss-Jordan, but the O(n**3)
updates run as matrix products over blocks of columns (Golub and Van Loan,
Matrix Computations, 3.2.11).  Nothing here calls numpy.linalg.
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

# Columns eliminated per block of mat_inverse.
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


def mat_pow_binary(m, s: int) -> np.ndarray:
    """m raised to a non-negative integer power by squaring; s=0 gives identity.

    s must be an integer (TypeError otherwise).  The result starts as the
    base at the lowest set bit of s and squaring stops after the top bit,
    so no product goes unused.
    """
    m = _as_square(m)
    s = operator.index(s)
    if s < 0:
        raise ValueError("exponent must be non-negative; invert first for s < 0")
    if s == 0:
        return mat_identity(m.shape[0])
    base = m
    while not s & 1:
        base = base @ base
        s >>= 1
    result = base.copy()
    s >>= 1
    while s:
        base = base @ base
        if s & 1:
            result = result @ base
        s >>= 1
    return result


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

    Elimination runs on the augmented matrix [m | I], _BLOCK columns at a
    time.  The block's columns are eliminated one by one on a copy of the
    rows that can still pivot, which fixes the row order and gives B^-1 for
    the block's pivot rows B.  The augmented matrix is then permuted once,
    and every column to the right of the block is updated with two
    products: T_B <- B^-1 T_B on the pivot rows, then T_R <- T_R - R T_B on
    the other rows, where R is the block's other rows before elimination.

    Raises SingularMatrixError when the best available pivot has modulus
    below SINGULAR_RTOL times the largest entry modulus of the input.
    """
    m = _as_square(m)
    n = m.shape[0]
    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    aug = np.hstack([m, mat_identity(n)])
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # Rows above start hold earlier pivots and cannot pivot again.
        panel = aug[start:, start:stop].copy()
        aug[start:] = aug[start:][_eliminate_panel(panel, scale, start)]
        rest = aug[:, stop:]
        rest[start:stop] = panel[:stop - start] @ rest[start:stop]
        rest[:start] -= aug[:start, start:stop] @ rest[start:stop]
        rest[stop:] -= aug[stop:, start:stop] @ rest[start:stop]
    return np.ascontiguousarray(aug[:, n:])


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
