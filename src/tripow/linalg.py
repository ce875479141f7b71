"""Dense complex matrix kernels forming the brute-force reference path.

Everything here is deliberately plain (exponentiation by squaring, LU
elimination with partial pivoting, triangular solves) so that the
closed-form code elsewhere in the package can be checked against a route
that shares none of its machinery.  Every kernel pays only for the band
that it reads from the entries.  Products in binary powering skip the exact
zeros outside each row's first and last nonzero column, as banded products
do (Golub and Van Loan, Matrix Computations, 1.2), and each product's row
spans, and every block's windows, follow from its operands' spans.  Once a
square's rows span every column, an exactly symmetric input squares by
a @ a.T, which BLAS runs as syrk at about half the work.  One blocked
banded LU with partial pivoting (ibid., 4.3) factors m and nothing more:
it records each panel's row order, transforms and back-substitution block
[B^-1 | -B^-1 U], with the multiplications per column of one solve.  The
same factors solve m X = B for any B, in place where the rows need no
initial order, and the inverse is the solve of I (ibid., 3.1).  A negative
power, the inverse included, is the chain of solves from I and squares
with the fewest multiplications, counted from that cost.  The determinant
is the product of the pivots of that one factorization.

An m of even n = 2h that a diagonal similarity D = diag(2**e) makes
exactly centrosymmetric, D m D^-1 = [[B, C], [J C J, J B J]] with J the
h-by-h exchange, splits into two half-size matrices P = B + C J and Q =
B - C J: D m D^-1 = K diag(P, Q) K^-1 for K = [[I, I], [J, -J]], so m**s =
D^-1 K diag(P**s, Q**s) K^-1 D for every integer s (Cantoni and Butler,
Linear Algebra Appl. 13, 1976; Good, Technometrics 12, 1970).  A diagonal
similarity of a tridiagonal m rescales only its off-diagonal entries
(Wilkinson, The Algebraic Eigenvalue Problem, 1965), so _centro_split
proposes e from the binary exponents of the mirrored off-diagonal pairs,
e = 0 for an exactly centrosymmetric m, and takes the halves only when the
bottom half of the scaled entries equals the top half reversed; _rescale
touches only the rows and columns that D moves, exactly unless an entry
is subnormal, and _centro_join writes each entry of the power once.
oracle_power, the reference that powers.power_verify checks the closed
forms against, takes that route wherever the power is dense, and powers
each half by the route it takes for a whole matrix (_power).  A full
square of the halves costs 2 (n/2)**3 instead of n**3, so a chain of
squares takes about half the time; the banded solves of a short chain
cost as much on two halves as on the whole, so there the split's O(n**2)
prelude makes it a little slower.  The test is exactness, so there is no
tolerance and no size threshold.  The band, the symmetries and the
scaling are read from the entries alone, so nothing here knows the
families or their closed forms, and only terms with an exact zero factor
are dropped.  Nothing here calls numpy.linalg.
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

# mat_inverse and negative powers treat a pivot whose modulus falls below
# this fraction of the largest initial entry modulus as zero; mat_det uses
# every nonzero pivot.
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


def _exponent(s) -> int:
    """s as an int, from any integer type; a boolean or a non-integer raises TypeError."""
    if isinstance(s, (bool, np.bool_)):
        raise TypeError(f"exponent must be an integer, not a boolean, got {s}")
    return operator.index(s)


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


def _full(spans, n: int) -> bool:
    """Whether every row spans all n columns."""
    return spans[0].max() == 0 and spans[1].min() == n


def _windows(spans, first, stop, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each i, the least first and greatest stop of rows first[i]:stop[i].

    spans are the (first, stop) row spans of one matrix.  One reduceat over
    the interleaved (first, stop) indices takes both; a sentinel row at
    index n, reached by the empty span (n, 0), gives (n, 0) again.
    """
    bounds = np.column_stack((first, stop)).ravel()
    least = np.minimum.reduceat(np.append(spans[0], n), bounds)[::2]
    greatest = np.maximum.reduceat(np.append(spans[1], 0), bounds)[::2]
    return least, greatest


def _product(a, a_spans, b, b_spans) -> np.ndarray:
    """a @ b, skipping the exact zeros outside the operands' row spans.

    Row i of the product can be nonzero only in the columns that b's rows
    a_first[i]:a_stop[i] span, which gives its span, _windows(b_spans,
    *a_spans, n).  Likewise each block of _BLOCK rows of a multiplies only
    the columns k0:k1 that its rows span by the rows of b in that range,
    and fills only the columns j0:j1 that those rows of b span; one
    reduceat gives every block's k-window and one _windows call every
    j-window.  Every other entry of the product is exactly zero.  The terms
    skipped all have an exact zero factor, so the product equals a @ b
    whenever both are finite.  Two operands with full spans take one plain
    product.
    """
    n = a.shape[0]
    if _full(a_spans, n) and _full(b_spans, n):
        return a @ b
    starts = np.arange(0, n, _BLOCK)
    k_first = np.minimum.reduceat(a_spans[0], starts)
    k_stop = np.maximum.reduceat(a_spans[1], starts)
    windows = (k_first, k_stop, *_windows(b_spans, k_first, k_stop, n))
    c = np.zeros((n, n), dtype=np.complex128)
    for start, k0, k1, j0, j1 in zip(starts.tolist(), *(w.tolist() for w in windows)):
        if k0 < k1 and j0 < j1:
            rows = slice(start, start + _BLOCK)
            np.matmul(a[rows, k0:k1], b[k0:k1, j0:j1], out=c[rows, j0:j1])
    return c


def _square_spans(m, s: int) -> list:
    """Row spans of m, m**2, ..., m**(2**k), the squares of binary powering to s >= 1.

    k = s.bit_length() - 1.  The input is scanned once (_spans) and each
    square's spans follow from the one before (_windows): wider than its
    nonzeros where terms cancel, never narrower.  Once a square's rows span
    every column so do every later square's, which repeat them.
    """
    n, length = m.shape[0], s.bit_length()
    chain = [_spans(m)]
    while len(chain) < length and not _full(chain[-1], n):
        chain.append(_windows(chain[-1], *chain[-1], n))
    return chain + chain[-1:] * (length - len(chain))


def _binary_power(m, chain, s: int) -> np.ndarray:
    """m**s for s >= 1 by squaring, with chain = _square_spans(m, s).

    The loop of mat_pow_binary: bit k of s multiplies the result by m**(2**k)
    over their spans, and at the first square whose rows span every column
    m is compared with its transpose once, taking every such square of an
    exactly symmetric m as a @ a.T.
    """
    n = m.shape[0]
    # Every square from the first whose rows span every column repeats
    # chain[-1].
    full = chain[-1] if _full(chain[-1], n) else None
    base, result, symmetric = m, None, None
    for bit, spans in enumerate(chain):
        if s >> bit & 1:
            if result is None:
                result = (base, spans)
            else:
                result = (_product(*result, base, spans), _windows(spans, *result[1], n))
        if bit + 1 == len(chain):
            return result[0].copy() if result[0] is m else result[0]
        if symmetric is None and spans is full:
            # The first row settles most unsymmetric inputs in O(n).
            symmetric = np.array_equal(m[0], m[:, 0]) and np.array_equal(m, m.T)
        base = base @ base.T if symmetric else _product(base, spans, base, spans)


def mat_pow_binary(m, s: int) -> np.ndarray:
    """m raised to a non-negative integer power by squaring; s=0 gives identity.

    s must be an integer, not a boolean (TypeError otherwise).  The result
    starts as the base at the lowest set bit of s and squaring stops after
    the top bit, so no product goes unused.  Every product skips the exact
    zeros outside its operands' row spans (the first and last nonzero column
    of each row): the square of a tridiagonal or anti-tridiagonal matrix
    stays narrow for many squarings, and two dense operands cost one plain
    product.  The input is scanned once; each product's spans follow from
    its operands' spans.  At the first square whose rows all span every
    column, the input's entries are compared with its transpose once.  If m
    is exactly symmetric every power is symmetric, and each such square a is
    taken as a @ a.T, which numpy hands to BLAS syrk: it computes one
    triangle, about half the work, and its result is exactly symmetric.  Any
    other input keeps the plain products.
    """
    m = _as_square(m)
    s = _exponent(s)
    if s < 0:
        raise ValueError("exponent must be non-negative; invert first for s < 0")
    if s == 0:
        return mat_identity(m.shape[0])
    return _binary_power(m, _square_spans(m, s), s)


def _eliminate_panel(panel, rtol: float, scale: float, first: int, pivots) -> np.ndarray:
    """Gauss-Jordan elimination of a tall panel, in place, keeping B^-1.

    Column c takes its pivot from rows c onwards (the largest modulus in
    the column), is scaled to 1 in the pivot row and cleared in every other
    row.  Each cleared column is overwritten with the multipliers of its
    step, so that afterwards the top square of the panel holds B^-1, where
    B is the top square of the panel as permuted by the swaps.  Writes each
    pivot to pivots and returns the row order of the swaps, None if there
    were none.  Raises
    SingularMatrixError at a pivot that is zero or below rtol times scale,
    naming panel column c as column first + c + 1 of the whole matrix.
    """
    order, swapped = np.arange(panel.shape[0]), False
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
            swapped = True
            factors[pivot_row] = factors[c]
        factors[c] = 0.0
        # The column becomes that of the identity before the step, so the
        # step leaves its own multipliers there.
        panel[:, c] = 0.0
        panel[c, c] = 1.0
        pivot_line = panel[c]
        pivot_line /= pivot_value
        panel -= np.multiply.outer(factors, pivot_line)
    return order if swapped else None


def _banded_lu(m, rtol: float, scale: float | None = None):
    """Blocked banded LU with partial pivoting on modulus.

    The rows are first ordered by their first nonzero column (a stable
    sort), which makes an anti-tridiagonal matrix, or any row permutation
    of a banded one, banded again; a dense input is the full band.  Each
    block of _PANEL columns is eliminated on the rows that reach it, those
    whose first nonzero column lies left of the block's end: later rows are
    still zero there, so each pivot has the candidates of a dense LU.
    _eliminate_panel gives the row order of its swaps and the transforms,
    B^-1 for the pivot rows B over -R B^-1 for the other rows R.  These
    clear the rows below the block over the columns that the panel's rows
    span, at most p + q past the block for lower and upper bandwidths p and
    q, which leaves U block upper triangular with identity diagonal blocks,
    where L U = m[rows].  Nothing left of a block is read again, so the
    swaps and the updates touch only the columns from the block's start to
    right.  Returns (rows, pivots, sort, panels, cost): sort is the initial
    row order, None where the rows are in order already, rows the final
    one, and each block gives (start, block_end, end, right, order,
    transforms, back), order None where the block swapped no rows, right
    one past the last column that its rows span, and back its
    back-substitution block over the columns start:right: B^-1, then minus
    U's rows start:block_end over the columns block_end:right.  cost is the
    complex multiplications per column of one _solve, n**2 for a dense
    input: each block's width times the rows its forward step touches plus
    the columns its back-substitution reads, about n times the band.
    m must be a finite square complex128 matrix (_as_square).  Raises
    SingularMatrixError for the zero matrix and at a pivot that is zero or
    below rtol times scale, max |m| unless given.
    """
    n = m.shape[0]
    moduli = np.abs(m)
    if scale is None:
        scale = float(moduli.max())
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    first, stop = _spans(moduli)
    sort = np.argsort(first, kind="stable")
    rows, work = sort.copy(), m[sort]
    first = first[sort]
    # Rows up to r span no column at or past reach[r], even after fill-in.
    reach = np.maximum.accumulate(stop[sort])
    panels, pivots, cost = [], np.empty(n, dtype=np.complex128), 0
    for start in range(0, n, _PANEL):
        block_end = min(start + _PANEL, n)
        width = block_end - start
        # Later rows start right of the block and are zero in its columns;
        # a panel shorter than the block would leave a column without pivot.
        end = max(int(np.searchsorted(first, block_end)), block_end)
        right = max(int(reach[end - 1]), block_end)
        cost += width * (end - start + right - block_end)
        transforms = work[start:end, start:block_end].copy()
        order = _eliminate_panel(transforms, rtol, scale, start, pivots[start:block_end])
        if order is not None:
            rows[start:end] = rows[start:end][order]
            work[start:end, start:right] = work[start:end, start:right][order]
        inv_b = transforms[:width]
        top = work[start:block_end, block_end:right]
        work[block_end:end, block_end:right] += transforms[width:] @ top
        back = np.empty((width, right - start), dtype=np.complex128)
        back[:, :width] = inv_b
        np.matmul(-inv_b, top, out=back[:, width:])
        panels.append((start, block_end, end, right, order, transforms, back))
    if (sort == np.arange(n)).all():
        sort = None
    return rows, pivots, sort, panels, cost


def _solve(lu, b) -> np.ndarray:
    """X with m X = b, for lu = _banded_lu(m, ...) and any n-row b.

    The forward sweep replays the factorization on the rows of b: the
    initial row order, then each block's swaps and -R B^-1, which clear
    the rows below it.  B^-1 waits for back-substitution, last block first,
    where each block's rows become its back times themselves over the at
    most p + q rows right of them, one product for B^-1 and U.  b = I gives
    m^-1.  Where the rows need no initial order the sweep works on b
    itself, which the caller must not use again.
    """
    _, _, sort, panels, _ = lu
    x = b if sort is None else b[sort]
    for start, block_end, end, _, order, transforms, _ in panels:
        if order is not None:
            x[start:end] = x[start:end][order]
        x[block_end:end] += transforms[block_end - start:] @ x[start:block_end]
    for start, block_end, _, right, _, _, back in reversed(panels):
        x[start:block_end] = back @ x[start:right]
    return x


def mat_inverse(m) -> np.ndarray:
    """Inverse by blocked banded LU with partial pivoting on modulus.

    The chain of _inverse_power at k = 1: one _solve of I on the factors of
    _banded_lu.  Raises SingularMatrixError when the best pivot has modulus
    below SINGULAR_RTOL times the largest entry modulus.
    """
    return _inverse_power(_as_square(m), 1)


def _inverse_power(m, k: int, scale: float | None = None) -> np.ndarray:
    """m**-k for k >= 1 from one banded LU, by a chain of solves and squares.

    A solve X <- m^-1 X costs n * c complex multiplications, c the cost
    that _banded_lu returns, exactly n**3 for a dense input.  The chain
    with j squarings takes X = m^-q, q = k >> j, by q solves from I, then
    squares X j times, each square followed by one more solve where the
    next lower bit of k is set.  j = 0 is k solves, j = k.bit_length() - 1
    binary powering of the inverse with a solve in place of each product by
    it, and j is the one whose chain costs least, the largest on a tie:
    where a solve costs a product, as for a dense input, that is binary
    powering.  m must be a finite square complex128 matrix.  Raises
    SingularMatrixError as mat_inverse does, comparing the pivots with
    SINGULAR_RTOL times scale, max |m| unless given.
    """
    lu = _banded_lu(m, SINGULAR_RTOL, scale)
    n, c = m.shape[0], lu[4]

    # Multiplications per column of the chain with j squares.
    def cost(j):
        solves = (k >> j) + (k & ((1 << j) - 1)).bit_count()
        return solves * c + j * n * n, -j

    squares = min(range(k.bit_length()), key=cost)
    x = mat_identity(n)
    for _ in range(k >> squares):
        x = _solve(lu, x)
    for bit in reversed(range(squares)):
        x = x @ x
        if k >> bit & 1:
            x = _solve(lu, x)
    return x


def _rescale(m, e) -> np.ndarray:
    """m[i, j] * 2**(e_i - e_j) in place, over the rows and columns where e is nonzero.

    Exact unless an entry overflows or is subnormal; e = 0 leaves m as it is.
    """
    lines = np.flatnonzero(e)
    factors = np.ldexp(1.0, e[lines])
    m[lines] *= factors[:, None]
    m[:, lines] /= factors
    return m


def _centro_split(m):
    """(P, Q, e) with D m D^-1 = [[B, C], [J C J, J B J]], D = diag(2**e), else None.

    D scales entry (i, j) by 2**(e_i - e_j), so with g_i = e_(i+1) - e_i
    the upper entry u_i becomes u_i 2**-g_i and its mirror, the lower entry
    l_j with j = n - 2 - i, becomes l_j 2**g_j: they agree when u_i = 2**k
    l_j, k = g_i + g_j.  e is proposed from the off-diagonals alone: k is
    the difference of the binary exponents of u_i and l_j, the later index
    of each pair takes all of it and the middle pair half, and e_0 = 0, so
    family "a" gets e = (0, ..., 0, 1) and a centrosymmetric m gets e = 0.
    A copy of m is scaled where e is not zero (_rescale), and the one test
    is exact: the bottom half of the scaled entries must equal the top half
    with rows and columns reversed, entry for entry, compared as the
    symmetry check of _binary_power compares m with its transpose.  With J
    the h-by-h exchange, n = 2h and K = [[I, I], [J, -J]], the scaled m
    equals K diag(P, Q) K^-1 for P = B + C J and Q = B - C J, so m**s =
    D^-1 K diag(P**s, Q**s) K^-1 D for every integer s (_centro_join), and
    m is invertible exactly when P and Q are.  Odd n, a factor 2**e_i that
    is not a normal float, any other input, and a scaled copy or halves
    with an entry that overflows give None.
    """
    n = m.shape[0]
    h = n // 2
    if n % 2:
        return None
    # mirror[i] is l_j, which u_i faces in the reversed matrix.
    upper, mirror = np.diagonal(m, 1), np.diagonal(m, -1)[::-1]
    k = np.frexp(np.abs(upper))[1] - np.frexp(np.abs(mirror))[1]
    steps = np.where(np.arange(n - 1) >= h, k, 0)
    steps[h - 1] = k[h - 1] // 2
    e = np.concatenate(([0], np.cumsum(steps)))
    if np.abs(e).max() > -np.finfo(np.float64).minexp:
        return None
    if e.any():
        with np.errstate(over="ignore", under="ignore"):
            m = _rescale(m.copy(), e)
    # The first row settles most other inputs in O(n).
    if not (
        np.array_equal(m[0], m[-1, ::-1]) and np.array_equal(m[h:], m[h - 1::-1, ::-1])
    ):
        return None
    b, cj = m[:h, :h], m[:h, :h - 1:-1]
    with np.errstate(over="ignore"):
        halves = b + cj, b - cj
    return (*halves, e) if all(np.isfinite(half).all() for half in halves) else None


def _centro_join(p, q) -> np.ndarray:
    """[[X, Y J], [J Y, J X J]] for X = (p + q) / 2 and Y = (p - q) / 2.

    With p = P**s and q = Q**s from _centro_split(m), this is (D m D^-1)**s,
    exactly centrosymmetric.  p and q are halved in place, exactly unless an entry
    is subnormal; the top half takes one addition and one subtraction, and
    the bottom half is the top half read with its rows and columns reversed.
    """
    h = p.shape[0]
    out = np.empty((2 * h, 2 * h), dtype=np.complex128)
    p *= 0.5
    q *= 0.5
    np.add(p, q, out=out[:h, :h])
    np.subtract(p, q, out=out[:h, :h - 1:-1])
    out[h:] = out[h - 1::-1, ::-1]
    return out


def _power(m, s: int, chain=None, scale: float | None = None) -> np.ndarray:
    """m**s for s != 0 by the route that takes m whole.

    s < 0 is _inverse_power, whose pivots are compared with SINGULAR_RTOL
    times scale, max |m| unless given; s > 0 is _binary_power over chain,
    _square_spans(m, s) unless given.
    """
    if s < 0:
        return _inverse_power(m, -s, scale)
    return _binary_power(m, _square_spans(m, s) if chain is None else chain, s)


def oracle_power(matrix: np.ndarray, s: int) -> np.ndarray:
    """The brute-force s-th power of a dense matrix.

    Binary exponentiation for s >= 0, so a large s costs O(log s) products,
    each skipping only the exact zeros outside its operands' row spans: a
    tridiagonal or anti-tridiagonal input costs far less than n**3 per early
    squaring, and the full squares of an exactly symmetric input go to BLAS
    syrk.  For s < 0 one banded LU, over the band and row order read from
    the entries, gives banded solves X <- m^-1 X (SingularMatrixError when
    m has no inverse).  The power is the chain that costs the fewest
    multiplications: m^-q by q solves from I, then j squares of n**3, each
    followed by a solve where the next lower bit of |s| is set, q = |s| >> j.
    A solve costs about n**2 times the band of the factors, so small |s|
    takes solves only and large |s| mostly squares.

    Where the power is dense, an m that _centro_split splits is powered as
    its two halves P and Q, each by the routes above, joined and scaled
    back, as the module docstring derives.  That is every s < 0, whose
    inverse is dense, and every s > 0 whose squares come to span every
    column, by the row spans that binary powering reads anyway.  Each half's
    pivots are compared with the scale of m.  Every other input, and every
    power that stays banded, keeps the routes above.  Nothing of the closed
    form (eigenvalues, nodes, families) enters.
    """
    s = _exponent(s)
    m = _as_square(matrix)
    if s == 0:
        return mat_identity(m.shape[0])
    chain = _square_spans(m, s) if s > 0 else None
    # The inverse is dense, and so is every square from the first whose
    # rows span every column.
    dense = s < 0 or (len(chain) > 1 and _full(chain[-1], m.shape[0]))
    split = _centro_split(m) if dense else None
    if split is None:
        return _power(m, s, chain)
    *halves, e = split
    # Each half's pivots are compared with the scale of m, not of the half.
    scale = float(np.abs(m).max()) if s < 0 else None
    if scale == 0.0:
        raise SingularMatrixError("cannot invert the zero matrix")
    powers = []
    for name, half in zip(("P = B + CJ", "Q = B - CJ"), halves):
        try:
            powers.append(_power(half, s, scale=scale))
        except SingularMatrixError as err:
            # The half's columns are not columns of m.
            raise SingularMatrixError(
                f"singular matrix: half {name} of the centrosymmetric split has a "
                f"pivot below {SINGULAR_RTOL:g} of the matrix scale {scale:.3e}"
            ) from err
    return _rescale(_centro_join(*powers), -e)


def mat_det(m) -> complex:
    """Determinant by the banded LU of mat_inverse, with a pivot floor of zero.

    The product of the pivots times the sign of the row order, both read
    from the one factorization that the inverse and the solves use; a zero
    pivot gives exactly 0j, and a tiny one never raises SingularMatrixError.
    The back-substitution blocks are built and go unread.
    """
    m = _as_square(m)
    try:
        rows, pivots, *_ = _banded_lu(m, 0.0)
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
