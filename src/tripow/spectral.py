"""Closed-form spectral decompositions of the structured families.

Every family diagonalizes as M = V diag(lambda) V^-1 where both V and its
inverse are written down analytically.  The eigenvalues are
lambda_k = a + b*node_k, node_k = 2*cos(theta_k), on the angle grid
theta_k = pi*q_k/L of the family and n (_angle_grid).  Every sine and cosine
in tripow (nodes, eigenvector tables, row weights, Fibonacci factors) is one
sine of an exactly reduced multiple of pi/L (_sin_pi), so the nodes are
exactly antisymmetric, the middle node of odd n is 0.0, and the nodes are
twice the cosine table's cos(theta_k) bit for bit.  V holds Chebyshev
polynomials at the half-nodes cos(theta_k), and one rule builds it and its
inverse for every family (_eigenvector_tables): row i = 0..n-1 of V is
f((i + hankel_shift/2) * theta_k), with

* f = cos for a cosine-type rule (family "a": T_i(cos theta) = cos(i*theta),
  last row halved), and
* f(m*theta) = sin(m*theta)/sin(theta) for a sine-type one (family
  "adagger": sign_r(i) * U_i(cos theta), U_i(cos theta) =
  sin((i+1)*theta)/sin(theta)),

and V^-1 is the unhalved V transposed, times the row weights
w_k = 2*norm_k**2/L, halved at the grid ends as in a DCT-I, and times 1/2 in
the DC column (i + hankel_shift/2 = 0).  norm_k is what column k is divided
by: 1 for a cosine and sin(theta_k) for a sine.  The paper writes these
weights as the beta/gamma coefficient families for "a" and as mu (odd n)
and eta (even n) for "adagger"; all of them are this one w.  Family "anti"
is the exchange flip of "adagger", with the twin's eigenvectors and its
eigenvalues times the exchange's signs (_own_eigenvalues).  decompose
stores the twin's decomposition, which is what the power formulas consume.

The families differ only in their boundary rows, so their closed forms
differ only in the few numbers of their record, families._Rule, which the
code reads; no code here names a family except to serve its public
function (nodes_a, nodes_adagger).

The nodes are always real, so V is real; only the eigenvalues themselves
are complex.  Each decomposition is validated at construction time: if the
analytic inverse fails to multiply V back to the identity within
CLOSURE_TOL, a ClosureError is raised rather than returning silently wrong
data.

Powers never need V or its inverse.  The product-to-sum rule turns every
entry of V diag(lambda**s) V^-1 into a sum or difference of two terms of
one vector

    h_m = sum_k lambda_k**s * w_k / (2*norm_k**2) * cos(m * theta_k),

with the inverse's row weights w_k, which the product of two rows of V
cancels to 1/L, halved at the grid ends.  So h is half the DCT-I of
lambda**s / L on the grid, one FFT (power_generator), which validates the
grid in O(n log n): lambda**s = 1 must give the identity's generator within
CLOSURE_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .families import (
    _RULES, FAMILY_A, FAMILY_ADAGGER, FamilySpec, _check_domain, _check_kind, _integer,
)
from .linalg import mat_identity, mat_norm_maxabs

__all__ = [
    "ClosureError",
    "SpectralData",
    "sign_r",
    "nodes_a",
    "nodes_adagger",
    "eigenvalues_a",
    "eigenvalues_adagger",
    "transform_k",
    "transform_t",
    "inv_transform_k",
    "inv_transform_t",
    "decompose",
]

CLOSURE_TOL = 1e-9

# sign_r(i) for i mod 4 = 0, 1, 2, 3; index it with i % 4 to vectorize sign_r.
_SIGN4 = np.array([1.0, 1.0, -1.0, -1.0])


class ClosureError(ArithmeticError):
    """An analytically built inverse failed to reproduce the identity."""


def sign_r(index: int) -> int:
    """+1 when index mod 4 is 0 or 1, -1 when it is 2 or 3.

    index must be an integer of any type, not a boolean (ValueError otherwise).
    """
    return 1 if _integer(index, "index") % 4 in (0, 1) else -1


def nodes_a(n: int) -> np.ndarray:
    """Real eigenvalue nodes of family "a", 2*cos((k-1)*pi/(n-1)) on the angle grid, k=1..n.

    n must be an integer of any type, not a boolean, and at least 2, as
    FamilySpec requires of family "a" (ValueError otherwise).
    """
    n = _integer(n)
    _check_domain(FAMILY_A, n)
    return _nodes(FAMILY_A, n)


def nodes_adagger(n: int) -> np.ndarray:
    """Real eigenvalue nodes of family "adagger", -2*cos(k*pi/(n+1)) on the angle grid, k=1..n.

    n must be an integer of any type, not a boolean, and at least 1
    (ValueError otherwise).
    """
    n = _integer(n, least=1)
    return _nodes(FAMILY_ADAGGER, n)


def eigenvalues_a(spec: FamilySpec) -> np.ndarray:
    """Eigenvalues a + b*node of family "a", ordered k=1..n."""
    _check_kind(spec, 1)
    return eigenvalues(spec)


def eigenvalues_adagger(spec: FamilySpec) -> np.ndarray:
    """Eigenvalues a + b*node of the "adagger" matrix, ordered k=1..n.

    For family "anti" these are the eigenvalues of its "adagger" twin,
    which its power formulas are written in; the anti matrix's own
    eigenvalues are (-1)**(k + n/2 + 1) times them.
    """
    _check_kind(spec, -1)
    return eigenvalues(spec)


def eigenvalues(spec: FamilySpec) -> np.ndarray:
    """Eigenvalues a + b*node of spec's family (as eigenvalues_a or _adagger).

    An eigenvalue beyond the float range comes back as inf or NaN without a
    numpy warning; the power functions and the eigen command refuse it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return spec.a + spec.b * _nodes(spec.family, spec.n)


def _own_eigenvalues(spec: FamilySpec, values: np.ndarray) -> np.ndarray:
    """The eigenvalues of spec's own matrix, from values = eigenvalues(spec).

    A flipped family's J A has the eigenvectors of its twin A, which J maps
    to (-1)**(k + n/2 + 1) times themselves: that sign flips lambda_k.
    """
    if not _RULES[spec.family].flips:
        return values
    return values * (-1.0) ** (np.arange(1, spec.n + 1) + spec.n // 2 + 1)


def _angle_grid(family: str, n: int) -> tuple[np.ndarray, int]:
    """The eigenvalue angles theta_k = pi*q_k/L as integers (q, L), k=1..n.

    By the family's rule: q = k - 1 with L = n - 1 for "a", q = L - k with
    L = n + 1 otherwise, where the grid ends q = 0 and q = L carry no
    eigenvalue.  The half-nodes are cos(theta_k) = node_k / 2.
    """
    rule = _RULES[family]
    period = n + rule.period_shift
    return (np.arange(period - 1, period - 1 - n, -1) if rule.descending else np.arange(n)), period


def _sin_pi(num, den: int) -> np.ndarray:
    """sin(pi * num / den) for integers num (an array) and den > 0.

    The angle is reduced in integers to r*pi/den with 0 <= r <= den/2, so
    every value keeps full relative accuracy: rounding pi*num/den directly
    would cost an absolute error that grows with num.
    """
    m = np.asarray(num) % (2 * den)
    sign = np.where(m < den, 1.0, -1.0)
    m = m % den
    return sign * np.sin(np.minimum(m, den - m) * np.pi / den)


def _cos_pi(num, den: int) -> np.ndarray:
    """cos(pi*num/den) as _sin_pi(den - 2*num, 2*den): exactly odd about num = den/2."""
    return _sin_pi(den - 2 * np.asarray(num), 2 * den)


def _nodes(family: str, n: int) -> np.ndarray:
    """The eigenvalue nodes 2*cos(theta_k) on the angle grid, k = 1..n."""
    return 2.0 * _cos_pi(*_angle_grid(family, n))


def _row_weights(family: str, n: int) -> np.ndarray:
    """The row weights w_k of the analytic inverse, k = 1..n.

    w_k = 2 * norm_k**2 / L, the generator's 1/L times the squared norm that
    column k of V is divided by (1 for a cosine-type rule, sin(theta_k) for a
    sine-type one), halved at the grid ends q = 0 and q = L as in a DCT-I.
    The paper writes them as beta/gamma for "a" and as mu (odd n) and eta
    (even n) for "adagger"; the sine form keeps full relative accuracy at the
    edge rows, where the eta form's 4 - psi**2 cancels.
    """
    q, period = _angle_grid(family, n)
    norms = _sin_pi(q, period) if _RULES[family].hankel_sign < 0 else np.ones(n)
    weights = 2.0 * norms**2 / period
    weights[(q == 0) | (q == period)] *= 0.5
    return weights


def _eigenvector_tables(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray]:
    """V and its analytic inverse by spec's rule, from one gathered table.

    Row i = 0..n-1 of the unhalved table reads the multiples
    (i + hankel_shift/2) * q_k of the angle grid, which have period 2L, so
    one cosine (Hankel sign +1) or one sine divided by sin(theta_k) (-1) per
    point of the period is gathered; where the rule's signs have period 4,
    row i is times sign_r(i).  V^-1 is that table transposed times the row
    weights w (_row_weights) and 1/2 in the DC column (multiple 0); V is the
    table with its last row halved where the rule halves its edges.
    """
    rule, n = _RULES[spec.family], spec.n
    q, period = _angle_grid(spec.family, n)
    rows = np.arange(n) + rule.hankel_shift // 2
    multiples = np.outer(rows, q) % (2 * period)
    points = np.arange(2 * period)
    if rule.hankel_sign > 0:
        table = _cos_pi(points, period)[multiples]
    else:
        table = _sin_pi(points, period)[multiples]
        table /= _sin_pi(q, period)
    if rule.sign_period == 4:
        table *= _SIGN4[np.arange(n) % 4, None]
    inverse = _row_weights(spec.family, n)[:, None] * table.T
    inverse[:, rows == 0] *= 0.5
    if rule.halves_edges:
        table[-1] *= 0.5
    return table, inverse


def transform_k(spec: FamilySpec) -> np.ndarray:
    """Eigenvector matrix of family "a", a cosine-type transform.

    Entry (i, k) is T_{i-1}(cos theta_k) = cos((i-1) * theta_k) on the angle
    grid; the last row carries an extra factor 1/2.  Column k is an
    eigenvector for eigenvalue k, normalized to first component 1.
    """
    _check_kind(spec, 1)
    return _eigenvector_tables(spec)[0]


def inv_transform_k(spec: FamilySpec) -> np.ndarray:
    """Analytic inverse of transform_k.

    Entry (k, j) is gamma_j * beta_k * cos((j-1) * theta_k) with
    gamma = (1, 2, ..., 2) and beta = (1, 2, ..., 2, 1) / (2n - 2).
    """
    _check_kind(spec, 1)
    return _eigenvector_tables(spec)[1]


def transform_t(spec: FamilySpec) -> np.ndarray:
    """Eigenvector matrix of family "adagger", a sine-type transform.

    Entry (i, k) is sign_r(i-1) * U_{i-1}(cos theta_k), with
    U_{i-1}(cos theta) = sin(i * theta) / sin(theta) on the angle grid.
    Column k is an eigenvector for eigenvalue k, normalized to first
    component 1.  Family "anti" shares these eigenvectors.
    """
    _check_kind(spec, -1)
    return _eigenvector_tables(spec)[0]


def inv_transform_t(spec: FamilySpec) -> np.ndarray:
    """Analytic inverse of transform_t.

    Entry (k, j) is c_k * sign_r(j-1) * U_{j-1}(cos theta_k) with the row
    coefficients c_k = 2*sin(theta_k)**2/(n+1) (the paper's mu for odd n
    and eta for even n).
    """
    _check_kind(spec, -1)
    return _eigenvector_tables(spec)[1]


@dataclass
class SpectralData:
    """One family instance's full closed-form decomposition.

    vec_matrix times diag(eigenvalues)**s times inv_matrix is the s-th power.
    For the anti family the decomposition of its "adagger" twin is stored,
    which is what the power formulas consume; the anti matrix has the same
    eigenvectors, with the sign-flipped eigenvalues of eigenvalues_adagger.
    Treat all arrays as read-only.
    """

    spec: FamilySpec
    eigenvalues: np.ndarray
    nodes: np.ndarray
    vec_matrix: np.ndarray
    inv_matrix: np.ndarray


def decompose(spec: FamilySpec) -> SpectralData:
    """Build and validate the closed-form decomposition for spec.

    Raises ClosureError when the analytic inverse misses the identity by
    CLOSURE_TOL or more, which would indicate a wrong rule, grid or weight
    rather than a property of the input.
    """
    vec, inv = _eigenvector_tables(spec)
    residual = mat_norm_maxabs(vec @ inv - mat_identity(spec.n))
    if residual >= CLOSURE_TOL:
        raise ClosureError(
            f"analytic inverse failed closure for family {spec.family!r}, "
            f"n={spec.n}: residual {residual:.3e} >= {CLOSURE_TOL:g}"
        )
    return SpectralData(spec, eigenvalues(spec), _nodes(spec.family, spec.n), vec, inv)


def _cosine_sums(spec: FamilySpec, values: np.ndarray) -> np.ndarray:
    """Half the DCT-I of values on the angle grid, for m = 0..2L, along the last axis.

    The values x_k are placed at their points q_k of the grid pi*q/L (see
    _angle_grid), zero elsewhere, and the result is
    x_{q=0}/2 + (-1)**m * x_{q=L}/2 + sum of x_k * cos(m * theta_k) over the
    interior points, from one FFT of the even extension of the grid.  The
    sums are even about m = L (cos((2L - m) * theta_k) = cos(m * theta_k)),
    but the FFT rounds them only nearly so; the result keeps its sums for
    m = 0..L and mirrors them, so sums[2L - m] equals sums[m] exactly.
    """
    q, period = _angle_grid(spec.family, spec.n)
    grid = np.zeros(values.shape[:-1] + (period + 1,), dtype=np.complex128)
    grid[..., q] = values
    sums = np.fft.fft(np.concatenate((grid, grid[..., period - 1:0:-1]), axis=-1)) / 2.0
    return np.concatenate((sums[..., :period + 1], sums[..., period - 1::-1]), axis=-1)


def _identity_generator(spec: FamilySpec, size: int) -> np.ndarray:
    """The generator of the identity, h_m for m = 0..size-1.

    (L * [m = 0 mod 2L] - [m even]) / L, the second term only where the
    Hankel term subtracts.  L is the rule's, not _angle_grid's, and q is not
    read, so that the closure check catches a wrong grid.
    """
    rule = _RULES[spec.family]
    period = spec.n + rule.period_shift
    unit = np.zeros(size)
    if rule.hankel_sign < 0:
        unit[::2] = -1.0
    unit[::2 * period] += period
    return unit / period


def power_generator(spec: FamilySpec, lam_pows: np.ndarray) -> np.ndarray:
    """The generator h of the power whose eigenvalue powers are lam_pows.

    h_m = sum_k lam_pows_k * w_k / (2*norm_k**2) * cos(m * theta_k) for
    m = 0..2L, with L as in the angle grid (n - 1 for family "a", n + 1
    otherwise) and the row weights w of the analytic inverse (_row_weights),
    which cancel to 1/L, halved at the grid ends: h is half the
    DCT-I of lam_pows / L on the grid (_cosine_sums).  h is exactly even
    about L: h[2L - m] == h[m] for every m, bit for bit, so the powers
    assembled from it keep their symmetries exactly.  The uniform weights
    1/L alone go through the same FFT and must give the identity's
    generator; ClosureError is raised when they miss it by CLOSURE_TOL.
    """
    weight = 1.0 / _angle_grid(spec.family, spec.n)[1]
    unit, h = _cosine_sums(spec, np.stack((np.ones_like(lam_pows), lam_pows)) * weight)
    residual = float(np.abs(unit - _identity_generator(spec, unit.size)).max())
    if residual >= CLOSURE_TOL:
        raise ClosureError(
            f"generator weights failed closure for family {spec.family!r}, "
            f"n={spec.n}: residual {residual:.3e} >= {CLOSURE_TOL:g}"
        )
    return h
