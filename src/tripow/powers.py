"""Closed-form integer powers of the structured families.

The s-th power of each family is V diag(lambda**s) V^-1 with the analytic
eigenvectors of spectral, whose product-to-sum rule turns every entry into
two entries of one generator h, half the DCT-I of lambda**s / L on the
angle grid, one FFT (spectral.power_generator).  With 0-based i, j:

    family "a":  h[|i-j|] + h[i+j], halved in the first column and last row
    "adagger":   sign_r(i) * sign_r(j) * (h[|i-j|] - h[i+j+2])

A full power is therefore a Toeplitz view plus or minus a Hankel view of h
with fixed edge factors: O(n**2) with no matrix product, and every single
entry is O(n log n).  The numbers in which the families differ are their
families._Rule, and one row writer reads them: it builds every power, full
or band alone (below), and every single entry, as one column.  sign_r has
period 4, so on the rows i = r (mod 4) sign_r(i) * sign_r(j) is a
period-4 sign of the index into h: four signed copies of h, two window
views per residue.  The anti matrix is the exchange flip J A of its
"adagger" twin A, and J commutes with A, so even powers coincide with the
twin's and an odd power is J A**s: the twin's power read with its rows
reversed, a view.

For 0 <= s < n - 1 the s-th power of a tridiagonal matrix has bandwidth s,
and so has an odd anti power once its rows are flipped back.  Only those
2s + 1 diagonals of the twin's power are computed while 2s + 2 <= n,
with the same arithmetic and bits as the full assembly.  Either way, one
clearing step zeros two k x k corner triangles, so every entry outside
the band is an exact +0.0 rather than the FFT's rounding noise; the
power_entry functions return 0j there too.

h is exactly even: it equals h[::-1] bit for bit (see
spectral.power_generator).  So the powers keep their symmetries exactly:
every "adagger" power equals its transpose, every even-n "adagger" and
"anti" power is centrosymmetric (entry (n-1-i, n-1-j) equals entry
(i, j)), and an "a" power is centrosymmetric once its halved first column
and last row are doubled back.

Negative exponents are accepted whenever every eigenvalue is nonzero.
Eigenvalue powers use square-and-multiply on the reciprocal, never a
complex logarithm, so no branch-cut choices are involved.  They are
carried as mantissas times 2**E, the reciprocal taken of the unit-scaled
eigenvalues and rescaled exactly after it and after every product, and
h is scaled by 2**E after the FFT, so only the power's own entries decide
whether it fits.  A power whose entries cannot be represented raises
PowerOverflowError instead of returning inf or NaN, and so do one that
underflows (its largest generator entry below the smallest normal float)
and one with an eigenvalue that is not finite.
"""

import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import _RULES, FamilySpec, _check_kind, _integer, build_matrix
from .linalg import SingularMatrixError, mat_identity, mat_norm_maxabs, oracle_power
from .spectral import _SIGN4, SpectralData, eigenvalues, power_generator

__all__ = [
    "ExtendedDomainWarning",
    "PowerOverflowError",
    "VerificationError",
    "PowerResult",
    "power_entry_a",
    "power_entry_adagger",
    "power_entry_anti",
    "power_matrix",
    "power_verify",
]

# Eigenvalues whose modulus falls below this fraction of the spectral radius
# block negative powers.
EIGENVALUE_RTOL = 1e-12

# Generator entries above this modulus are refused: an entry of the power is
# the sum of two of them and would overflow.
OVERFLOW_LIMIT = sys.float_info.max / 2

_PACKAGE_DIR = os.path.dirname(__file__)


class ExtendedDomainWarning(UserWarning):
    """The request is valid but outside the stated parity-restricted domain."""


class PowerOverflowError(OverflowError):
    """The requested power has entries too large for complex128, or too small.

    Too small means that the largest entry of its generator is below the
    smallest normal float, so the power would come back as subnormals or
    an all-zero matrix; the message says which bound was crossed, or
    names an eigenvalue that is not finite.
    """


class VerificationError(ArithmeticError):
    """Closed form and oracle disagree beyond the requested tolerance.

    Carries both matrices as .closed_form and .oracle for inspection, and
    the relative residual that exceeded the tolerance as .residual.
    """

    def __init__(self, message, closed_form=None, oracle=None, residual=None):
        super().__init__(message)
        self.closed_form = closed_form
        self.oracle = oracle
        self.residual = residual


@dataclass
class PowerResult:
    """A computed matrix power plus provenance.

    path names the formula route taken; residual_vs_oracle, the relative
    residual against the brute force, is populated only by power_verify.
    """

    spec: FamilySpec
    exponent: int
    matrix: np.ndarray
    path: str
    residual_vs_oracle: float | None = None


def _outside_stacklevel() -> int:
    """The warnings.warn stacklevel that names the first caller outside tripow.

    The level counts from the function that calls this one, so every entry
    point (power_matrix, power_verify, the power_entry functions, the CLI)
    reports its own caller from one warning site.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    return level


def _check_finite(spec: FamilySpec, lam: np.ndarray):
    """Raise PowerOverflowError naming the first eigenvalue that is not finite."""
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise PowerOverflowError(
            f"eigenvalue {lam[bad[0]]:.6g} at k={bad[0] + 1} is not finite for "
            f"family={spec.family} n={spec.n} a={spec.a} b={spec.b}"
        )


def _check_base(spec: FamilySpec, lam: np.ndarray, s: int):
    """Refuse eigenvalues that the power s cannot be taken of.

    For s != 0 an eigenvalue that is not finite is refused.  A negative s
    is refused for a zero eigenvalue, and warned about for odd n.
    """
    if s:
        _check_finite(spec, lam)
    if s >= 0:
        return
    moduli = np.abs(lam)
    threshold = EIGENVALUE_RTOL * float(moduli.max())
    small = int(np.argmin(moduli))
    if moduli[small] <= threshold:
        raise SingularMatrixError(
            f"negative power undefined: eigenvalue {lam[small]:.6g} at "
            f"k={small + 1} has modulus below {EIGENVALUE_RTOL:g} of the "
            "spectral radius"
        )
    if spec.n % 2 == 1:
        warnings.warn(
            f"negative exponent s={s} with odd n={spec.n} extends the "
            "closed form beyond its stated parity domain; the result is "
            "well-defined because all eigenvalues are nonzero",
            ExtendedDomainWarning,
            stacklevel=_outside_stacklevel(),
        )


def _unit_scaled(values: np.ndarray, exponent: int) -> tuple[np.ndarray, int]:
    """values * 2**exponent rewritten in place with the largest modulus in [1/2, 1).

    The rescaling is by an exact power of two; values that are all zero or
    not finite come back as they are.
    """
    peak = float(np.abs(values).max())
    if not 0.0 < peak < np.inf:
        return values, exponent
    shift = math.frexp(peak)[1]
    if shift:
        parts = values.view(np.float64)
        np.ldexp(parts, -shift, out=parts)
    return values, exponent + shift


def _binary_powers(base: np.ndarray, e: int) -> tuple[np.ndarray, int]:
    """base**e by vectorized square-and-multiply, as (mantissas, E).

    base**e = mantissas * 2**E.  A copy of the base, and every product, is
    brought to unit scale by _unit_scaled, so no product can overflow, and
    each keeps the plain product's bits while that stays a normal float.
    For e < 0 the unit-scaled base is inverted and its E negated, so the
    reciprocal of a base near the ends of the float range stays finite.
    """
    base, base_exp = _unit_scaled(np.array(base, dtype=np.complex128), 0)
    if e < 0:
        base, base_exp = _unit_scaled(1.0 / base, -base_exp)
        e = -e
    result, exponent = np.ones_like(base), 0
    while e:
        if e & 1:
            result, exponent = _unit_scaled(result * base, exponent + base_exp)
        e >>= 1
        if e:
            base, base_exp = _unit_scaled(base * base, 2 * base_exp)
    return result, exponent


def _generator(spec: FamilySpec, lam: np.ndarray, s: int) -> np.ndarray:
    """The generator h of the s-th power (see spectral.power_generator).

    The FFT runs on the mantissas of the eigenvalue powers and h is scaled
    by their 2**E at the end, so a refusal gives the true magnitude.  Raises
    PowerOverflowError for an eigenvalue that is not finite (s != 0), and
    when h is so large that the sum of two of its entries could overflow or
    its largest entry is below the smallest normal float
    (sys.float_info.min), where the power has lost its digits to subnormals
    or flushed to zero.  A zero spectrum's power is exact and is served.
    The verdict is taken on integers, so E may have any size: the FFT of
    the mantissas peaks at f * 2**e, f in [1/2, 1), so h peaks at
    f * 2**(e + E), which exceeds OVERFLOW_LIMIT exactly when
    e + E >= sys.float_info.max_exp and is below sys.float_info.min exactly
    when e + E < sys.float_info.min_exp.
    """
    _check_base(spec, lam, s)
    with np.errstate(over="ignore", invalid="ignore"):
        mantissas, exponent = _binary_powers(lam, s)
        h = power_generator(spec, mantissas)
        peak = float(np.abs(h).max())
    finite, shift = math.isfinite(peak), math.frexp(peak)[1] + exponent
    underflow = finite and lam.any() and (peak == 0.0 or shift < sys.float_info.min_exp)
    if underflow or not (finite and shift < sys.float_info.max_exp):
        fault = "underflows below" if underflow else "is not finite or exceeds"
        limit = sys.float_info.min if underflow else OVERFLOW_LIMIT
        raise PowerOverflowError(
            f"power s={s} is not representable for family={spec.family} "
            f"n={spec.n} a={spec.a} b={spec.b}: generator modulus "
            f"{peak:.3e} * 2**{exponent} {fault} {limit:.3e}"
        )
    return np.ldexp(h.view(np.float64), exponent).view(np.complex128) if exponent else h


def _entry(data: SpectralData, s: int, i: int, j: int, flip: bool = False) -> complex:
    """Entry (i, j) of the s-th power, 1-based, by the rule of the data's family.

    Column j is written by the row writer of power_matrix, and its edge
    halving applied, so the entry equals the matrix's bit for bit, zero
    signs included.  With flip, an odd s reads row n + 1 - i instead, after
    the index check.  s must be an integer (TypeError otherwise) and i, j
    integers of any type, not booleans (ValueError otherwise), and all three
    are checked before any work.  s = 0 gives the exact identity, and for
    s > 0 an entry outside the band |i-j| <= s is 0j.
    """
    s = operator.index(s)
    i, j = _integer(i, "i"), _integer(j, "j")
    n, rule = data.spec.n, _RULES[data.spec.family]
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must satisfy 1 <= i, j <= {n}, got ({i}, {j})")
    h = _generator(data.spec, data.eigenvalues, s)
    if flip and s % 2:
        i = n + 1 - i
    if s == 0 or 0 < s < abs(i - j):
        return complex(i == j)
    column = np.empty((n, 1), dtype=np.complex128)
    # Row i reads the Toeplitz index P - i + j and the Hankel index i + j (0-based).
    _write_rows(rule, h, column, (h.size - 2 + j, -1), (j - 1, 1))
    value = column[i - 1, 0]
    if rule.halves_edges:
        if j == 1:
            value *= 0.5
        if i == n:
            value *= 0.5
    return complex(value)


def power_entry_a(data: SpectralData, s: int, i: int, j: int) -> complex:
    """Entry (i, j) of the s-th power of a family-"a" matrix; i, j are 1-based.

    Reads h[|i-j|] + h[i+j-2] from the power's generator; the first column
    and the last row (i = n) each carry a factor 1/2.  s = 0 gives the exact
    identity, and for s > 0 an entry outside the band |i-j| <= s is 0j.
    s must be an integer (TypeError otherwise) and i, j integers, not
    booleans (ValueError otherwise).
    """
    _check_kind(data.spec, 1, " data")
    return _entry(data, s, i, j)


def power_entry_adagger(data: SpectralData, s: int, i: int, j: int) -> complex:
    """Entry (i, j) of the s-th power of an "adagger" matrix; i, j are 1-based.

    Reads sign_r(i-1) * sign_r(j-1) * (h[|i-j|] - h[i+j]) from the power's
    generator, bit for bit the entry of power_matrix.  s = 0 gives the
    exact identity, and for s > 0 an entry outside the band |i-j| <= s is
    0j.  Given "anti" data it returns the entry of the "adagger" twin.
    s must be an integer (TypeError otherwise) and i, j integers, not
    booleans (ValueError otherwise).
    """
    _check_kind(data.spec, -1, " data")
    return _entry(data, s, i, j)


def power_entry_anti(data: SpectralData, s: int, i: int, j: int) -> complex:
    """Entry (i, j) of the s-th power of an anti-tridiagonal matrix.

    Even s coincides with the tridiagonal counterpart; odd s flips the row
    index through the exchange, which moves the band |i-j| <= s to
    |n+1-i-j| <= s.  s = 0 gives the exact identity, and for s > 0 an entry
    outside the band is 0j.  Only even n is supported.
    s must be an integer (TypeError otherwise) and i, j integers, not
    booleans (ValueError otherwise).
    """
    if data.spec.n % 2 != 0:
        raise ValueError("anti-tridiagonal powers require even n")
    _check_kind(data.spec, -1, " data")
    return _entry(data, s, i, j, flip=True)


def _assemble(spec: FamilySpec, h: np.ndarray, s: int) -> np.ndarray:
    """The s-th power from its generator h, as Toeplitz -+ Hankel views of h.

    _write_rows writes the rule's combination into the matrix or a band view
    of it, and the rule's edges are halved.  A flipped rule's odd power is
    the twin's read with its rows reversed: the view matrix[::-1], which
    has the bits of a reversed write and costs no pass.

    For 0 <= s < n - 1 the power has bandwidth s and every entry outside the
    band is an exact +0.0.  While 2s + 2 <= n only the band is written:
    entry (i, i - s + c) is band[i, c], rows of width 2s + 1 at a flat
    stride of n + 1 entries, in an output padded by s entries at each end,
    so the rows do not overlap.  For larger bands the full power is written.

    Either way one step then clears what lies outside the band.  With
    k = min(s + 1, n - 1 - s) (0 when there is no band), the rows i < k
    are zeroed from column n - k + i on, and the last k rows mirror them:
    two k x k corner triangles.  For the full power these are exactly the
    entries outside the band.  For the band alone they hold every band
    position whose column fell outside [0, n), which lands on the padding
    or outside the band of a neighbouring row, and the rest of them is
    already +0.0.
    """
    n, rule = spec.n, _RULES[spec.family]
    period = h.size - 1
    reach = s if 0 <= s < n - 1 else n - 1
    if 0 <= s and 2 * s + 2 <= n:
        flat = np.zeros(n * n + 2 * s, dtype=np.complex128)
        band = sliding_window_view(flat, 2 * s + 1, writeable=True)[::n + 1]
        matrix = flat[s:s + n * n].reshape(n, n)
        # Row i reads the Toeplitz index P - s + c on every row, and the
        # Hankel index 2i - s + c (plus the rule's shift).
        _write_rows(rule, h, band, (period - s, 0), (-s, 2))
    else:
        matrix = np.empty((n, n), dtype=np.complex128)
        # h is even with period P, so h[|i-j|] = h[P - i + j].
        _write_rows(rule, h, matrix, (period, -1), (0, 1))
    k = min(reach + 1, n - 1 - reach)
    # With no band (k = 0) the step would cost only its calls' overhead.
    if k:
        corner = np.tri(k, dtype=bool)
        matrix[:k, n - k:][corner.T] = 0
        matrix[n - k:, :k][corner] = 0
    if rule.halves_edges:
        matrix[:reach + 1, 0] *= 0.5
        matrix[-1, n - 1 - reach:] *= 0.5
    return matrix[::-1] if rule.flips and s % 2 else matrix


def _write_rows(rule, h: np.ndarray, rows: np.ndarray, toeplitz, hankel):
    """Write Toeplitz -+ Hankel windows of h into rows, with the rule's signs.

    toeplitz and hankel are (start, step) pairs: on row i the operand is the
    window of rows.shape[1] samples of h from index start + step * i, plus
    the rule's Hankel shift for hankel.  A window index -m reads h[m], and
    P + m reads h[m] (P = h.size - 1).

    With sign period 4, sign_r(j) is a period-4 sign of the Toeplitz index
    P - i + j and of the Hankel index i + j + shift on the rows i = r
    (mod 4): two window views of four signed copies of h per residue.  Sign
    period 1 makes no copy: a product with +1 turns some -0.0 into +0.0.
    """
    n, width = rows.shape
    period = h.size - 1
    cycle, shift = rule.sign_period, rule.hankel_shift
    combine = np.add if rule.hankel_sign > 0 else np.subtract
    # extended[pad + m] is h[m] for m from -pad (no window starts lower) to P + n - 1.
    pad = max(0, -hankel[0])
    extended = np.concatenate((h[pad:0:-1], h, h[1:n]))
    copies = extended[None]
    if cycle > 1:
        # Copy k is h[m] * _SIGN4[(m + k) % 4] at index m.
        m = np.arange(-pad, extended.size - pad)
        copies = extended * _SIGN4[(np.arange(4)[:, None] + m) % 4]
    windows = sliding_window_view(copies, width, axis=1)
    # Window positions count from extended[0], which holds index -pad.
    toeplitz = (pad + toeplitz[0], toeplitz[1])
    hankel = (pad + shift + hankel[0], hankel[1])
    # On row i = r (mod cycle), j = t - P + r at Toeplitz index t and
    # j = u - shift - r at Hankel index u, which picks the copy of each.
    for r in range(min(n, cycle)):
        count = (n - r + cycle - 1) // cycle
        t = _window_rows(windows[(r - period) % cycle], *toeplitz, r, cycle, count)
        u = _window_rows(windows[(-shift - r) % cycle], *hankel, r, cycle, count)
        if _SIGN4[r] < 0:
            # sign_r(i) = -1: subtract the other way round, which is exact.
            t, u = u, t
        combine(t, u, out=rows[r::cycle])


def _window_rows(windows: np.ndarray, start: int, step: int, r: int, cycle: int, count: int):
    """The windows that rows r, r + cycle, ... of an operand read.

    count rows, cycle steps apart, or one row that broadcasts when the
    operand does not move (step 0).
    """
    first = start + step * r
    return windows[first::step * cycle][:count] if step else windows[first:first + 1]


def power_matrix(spec: FamilySpec, s: int) -> PowerResult:
    """Assemble the full s-th power of the matrix described by spec.

    s must be an integer (TypeError otherwise).  The power is built from
    its generator in O(n**2) with no matrix product.  s = 0 gives the exact
    identity; for 0 < s < n - 1 only the band |i-j| <= s (rows flipped for
    odd anti powers) is computed and every other entry is +0.0.  An odd
    anti power is the "adagger" twin's power as a row-reversed view: the
    same values and bits as a reversed copy, with a negative row stride.
    For every s the entries equal those of the power_entry functions.  Raises
    ClosureError when the generator weights fail their closure check,
    SingularMatrixError for a negative power of a zero eigenvalue, and
    PowerOverflowError when the result cannot be represented.
    """
    s = operator.index(s)
    h = _generator(spec, eigenvalues(spec), s)
    # The identity is returned exactly rather than assembled with rounding.
    matrix = mat_identity(spec.n) if s == 0 else _assemble(spec, h, s)
    rule = _RULES[spec.family]
    parity = (s if rule.flips else spec.n) % 2
    return PowerResult(spec, s, matrix, rule.paths[parity])


def power_verify(spec: FamilySpec, s: int, tol: float = 1e-8) -> PowerResult:
    """Compute the closed-form power and check it against the brute force.

    The oracle is linalg.oracle_power of the dense matrix.  The residual is relative:
    max|C - O| / max(1, max|O|) for closed form C and oracle O, which is the
    absolute residual whenever no oracle entry exceeds 1 in modulus.
    Raises VerificationError (carrying both matrices and the residual) when
    it exceeds tol, ValueError for a NaN or negative tol, and
    PowerOverflowError when the oracle's products overflow although the
    closed form fits: its residual would be NaN, which no tol fails.
    """
    s = operator.index(s)
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    result = power_matrix(spec, s)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = oracle_power(build_matrix(spec), s)
    scale = mat_norm_maxabs(oracle)
    if not math.isfinite(scale):
        raise PowerOverflowError(
            f"the dense oracle power overflows for family={spec.family} n={spec.n} "
            f"a={spec.a} b={spec.b} s={s}, so the closed form cannot be checked"
        )
    residual = mat_norm_maxabs(result.matrix - oracle) / max(1.0, scale)
    if residual > tol:
        raise VerificationError(
            f"closed form disagrees with oracle: relative residual {residual:.3e} > "
            f"tol {tol:g} for family={spec.family} n={spec.n} a={spec.a} "
            f"b={spec.b} s={s}",
            closed_form=result.matrix,
            oracle=oracle,
            residual=residual,
        )
    return replace(result, residual_vs_oracle=residual)
