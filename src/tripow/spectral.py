"""Closed-form spectral decompositions of the structured families.

Every family diagonalizes as M = V diag(lambda) V^-1 where both V and its
inverse are written down analytically:

* family "a": eigenvalues a + 2b*cos((k-1)pi/(n-1)); V has first-kind
  Chebyshev columns (last row halved) and V^-1 is assembled from the
  beta/gamma coefficient families.
* family "adagger": eigenvalues a - 2b*cos(k*pi/(n+1)); V has signed
  second-kind Chebyshev columns and V^-1 carries the per-row coefficient
  2*sin(k*pi/(n+1))**2/(n+1), which the paper writes in two forms that
  agree (mu for odd n, eta for even n).

The nodes (lambda - a)/b are always real, so the polynomial tables are
evaluated in real arithmetic; only the eigenvalues themselves are complex.
Each decomposition is validated at construction time: if the analytic
inverse fails to multiply V back to the identity within CLOSURE_TOL, a
ClosureError is raised rather than returning silently wrong data.

Powers never need V or its inverse.  Writing the half-nodes as
x_k = cos(theta_k), the product-to-sum rule turns every entry of
V diag(lambda**s) V^-1 into a sum or difference of two terms of one vector

    h_m = sum_k lambda_k**s * w_k * cos(m * theta_k),

and power_generator computes all of h with one FFT (a DCT-I over the angles
pi*q/L).  It validates the weights w the same way, in O(n log n): with
lambda**s = 1 they must give the identity's generator within CLOSURE_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .chebyshev import cheb_t_table, cheb_u_table
from .families import FAMILY_A, FAMILY_ADAGGER, FamilySpec
from .linalg import mat_identity, mat_norm_maxabs

__all__ = [
    "ClosureError",
    "SpectralData",
    "CLOSURE_TOL",
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
    "power_generator",
]

CLOSURE_TOL = 1e-9


class ClosureError(ArithmeticError):
    """An analytically built inverse failed to reproduce the identity."""


def sign_r(index: int) -> int:
    """+1 when index mod 4 is 0 or 1, -1 when it is 2 or 3."""
    return 1 if index % 4 in (0, 1) else -1


def nodes_a(n: int) -> np.ndarray:
    """Real eigenvalue nodes of family "a": 2*cos((k-1)*pi/(n-1)), k=1..n."""
    if n < 2:
        raise ValueError("family 'a' requires n >= 2")
    return 2.0 * np.cos(np.arange(n) * np.pi / (n - 1))


def nodes_adagger(n: int) -> np.ndarray:
    """Real eigenvalue nodes of family "adagger": -2*cos(k*pi/(n+1)), k=1..n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return -2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def eigenvalues_a(spec: FamilySpec) -> np.ndarray:
    """Eigenvalues a + b*node of family "a", ordered k=1..n."""
    if spec.family != FAMILY_A:
        raise ValueError(f"expected family 'a', got {spec.family!r}")
    return spec.a + spec.b * nodes_a(spec.n)


def eigenvalues_adagger(spec: FamilySpec) -> np.ndarray:
    """Eigenvalues a + b*node shared by "adagger" and its exchange flip."""
    if spec.family == FAMILY_A:
        raise ValueError("expected family 'adagger' or 'anti', got 'a'")
    return spec.a + spec.b * nodes_adagger(spec.n)


def transform_k(spec: FamilySpec) -> np.ndarray:
    """Eigenvector matrix of family "a".

    Row i holds T_{i-1} at the half-nodes; the last row carries an extra
    factor 1/2.  Column j is an eigenvector for eigenvalue j, normalized to
    first component 1.
    """
    if spec.family != FAMILY_A:
        raise ValueError(f"expected family 'a', got {spec.family!r}")
    n = spec.n
    table = cheb_t_table(n - 1, nodes_a(n) / 2.0)
    table[n - 1] *= 0.5
    return table


def inv_transform_k(spec: FamilySpec) -> np.ndarray:
    """Analytic inverse of transform_k, assembled from row and column weights.

    Entry (k, j) is gamma_j * beta_k * T_{j-1}(node_k / 2) with
    gamma = (1, 2, ..., 2) and beta = (1, 2, ..., 2, 1) / (2n - 2).
    """
    if spec.family != FAMILY_A:
        raise ValueError(f"expected family 'a', got {spec.family!r}")
    n = spec.n
    table = cheb_t_table(n - 1, nodes_a(n) / 2.0)
    beta = _beta_weights(n)
    gamma = _gamma_scales(n)
    return (beta[:, None] * table.T) * gamma[None, :]


def transform_t(spec: FamilySpec) -> np.ndarray:
    """Eigenvector matrix of family "adagger".

    Row i holds sign_r(i-1) * U_{i-1} at the half-nodes.  Column j is an
    eigenvector for eigenvalue j, normalized to first component 1.
    """
    if spec.family != FAMILY_ADAGGER:
        raise ValueError(f"expected family 'adagger', got {spec.family!r}")
    n = spec.n
    signs = np.array([sign_r(i) for i in range(n)], dtype=float)
    return signs[:, None] * cheb_u_table(n - 1, nodes_adagger(n) / 2.0)


def inv_transform_t(spec: FamilySpec) -> np.ndarray:
    """Analytic inverse of transform_t.

    Entry (k, j) is c_k * sign_r(j-1) * U_{j-1}(node_k / 2) with the row
    coefficients c_k = 2*sin(k*pi/(n+1))**2/(n+1) (the paper's mu for odd n
    and eta for even n).
    """
    if spec.family != FAMILY_ADAGGER:
        raise ValueError(f"expected family 'adagger', got {spec.family!r}")
    weights = _dagger_row_weights(spec.n)
    return weights[:, None] * transform_t(spec).T


def _beta_weights(n: int) -> np.ndarray:
    beta = np.full(n, 1.0 / (n - 1))
    beta[0] = beta[-1] = 1.0 / (2 * n - 2)
    return beta


def _gamma_scales(n: int) -> np.ndarray:
    gamma = np.full(n, 2.0)
    gamma[0] = 1.0
    return gamma


def _sines(n: int) -> np.ndarray:
    """sin(k*pi/(n+1)) for k = 1..n, to full relative accuracy.

    The angle is folded to min(k, n+1-k)*pi/(n+1) <= pi/2 first: near pi
    the rounding of k*pi/(n+1) would cost up to about 2e-13 relative in
    the smallest sines.
    """
    k = np.arange(1, n + 1)
    return np.sin(np.minimum(k, n + 1 - k) * np.pi / (n + 1))


def _dagger_row_weights(n: int) -> np.ndarray:
    # The paper states these weights as mu (odd n) and eta (even n); both
    # equal 2 sin(k pi/(n+1))**2 / (n+1).  The sine form keeps full relative
    # accuracy at the edge rows k = 1 and k = n, where the eta form's
    # 4 - psi**2 cancels.
    return 2.0 * _sines(n) ** 2 / (n + 1)


@dataclass
class SpectralData:
    """One family instance's full closed-form decomposition.

    vec_matrix times diag(eigenvalues)**s times inv_matrix is the s-th power;
    row_weights and col_scales are the coefficient families from which
    inv_matrix was assembled (beta/gamma for "a", the mu/eta row weights
    with unit column scales for "adagger" and "anti").  For the anti family
    the decomposition of its tridiagonal counterpart is stored, which is
    what the power formulas consume.  Treat all arrays as read-only.
    """

    spec: FamilySpec
    eigenvalues: np.ndarray
    nodes: np.ndarray
    vec_matrix: np.ndarray
    inv_matrix: np.ndarray
    row_weights: np.ndarray
    col_scales: np.ndarray


def decompose(spec: FamilySpec) -> SpectralData:
    """Build and validate the closed-form decomposition for spec.

    Raises ClosureError when the analytic inverse misses the identity by
    CLOSURE_TOL or more, which would indicate a transcription bug in one of
    the coefficient families rather than a property of the input.
    """
    if spec.family == FAMILY_A:
        nodes = nodes_a(spec.n)
        eigenvalues = eigenvalues_a(spec)
        vec = transform_k(spec)
        inv = inv_transform_k(spec)
        row_weights = _beta_weights(spec.n)
        col_scales = _gamma_scales(spec.n)
    else:
        twin = spec if spec.family == FAMILY_ADAGGER else FamilySpec(
            FAMILY_ADAGGER, spec.n, spec.a, spec.b
        )
        nodes = nodes_adagger(spec.n)
        eigenvalues = eigenvalues_adagger(spec)
        vec = transform_t(twin)
        inv = inv_transform_t(twin)
        row_weights = _dagger_row_weights(spec.n)
        col_scales = np.ones(spec.n)

    residual = mat_norm_maxabs(vec @ inv - mat_identity(spec.n))
    if residual >= CLOSURE_TOL:
        raise ClosureError(
            f"analytic inverse failed closure for family {spec.family!r}, "
            f"n={spec.n}: residual {residual:.3e} >= {CLOSURE_TOL:g}"
        )
    return SpectralData(spec, eigenvalues, nodes, vec, inv, row_weights, col_scales)


def _generator_weights(spec: FamilySpec) -> np.ndarray:
    """Weights w_k of the power generator, ordered like the eigenvalues.

    Family "a" uses the beta family.  For "adagger" and "anti" the row
    weight of the analytic inverse is divided by 2*sin(theta_k)**2, which
    cancels the sines in U_i(x) * U_j(x) = sin((i+1)theta) sin((j+1)theta)
    / sin(theta)**2; exact weights give 1/(n+1) for every k.  The sines
    are evaluated directly, not as 1 - (node/2)**2, which cancels near the
    ends of the spectrum.
    """
    if spec.family == FAMILY_A:
        return _beta_weights(spec.n)
    return _dagger_row_weights(spec.n) / (2.0 * _sines(spec.n) ** 2)


def _cosine_sums(spec: FamilySpec, values: np.ndarray) -> np.ndarray:
    """sum_k values_k * cos(m * theta_k) for m = 0..2L, along the last axis.

    theta_k lies on the grid pi*q/L: q = k - 1 with L = n - 1 for family
    "a", and q = n + 1 - k with L = n + 1 otherwise, where the grid ends
    q = 0 and q = L carry no eigenvalue.  One FFT of the even extension of
    the grid, with its two end samples doubled, gives twice the sums for
    m = 0..2L-1; the sums have period 2L.
    """
    if spec.family == FAMILY_A:
        grid = values.astype(np.complex128)
    else:
        grid = np.zeros(values.shape[:-1] + (spec.n + 2,), dtype=np.complex128)
        grid[..., 1:-1] = values[..., ::-1]
    last = grid.shape[-1] - 1
    grid[..., 0] *= 2.0
    grid[..., last] *= 2.0
    sums = np.fft.fft(np.concatenate((grid, grid[..., last - 1:0:-1]), axis=-1)) / 2.0
    return np.concatenate((sums, sums[..., :1]), axis=-1)


def _identity_generator(spec: FamilySpec, size: int) -> np.ndarray:
    """The generator of the identity, h_m for m = 0..size-1.

    Family "a": 1 where m is a multiple of 2(n-1), else 0.  Otherwise
    [n, 0, -1, 0, -1, ...] / (n+1), with n again where m is a multiple of
    2(n+1).
    """
    m = np.arange(size)
    if spec.family == FAMILY_A:
        return (m % (2 * spec.n - 2) == 0).astype(float)
    unit = np.where(m % 2 == 0, -1.0, 0.0)
    unit[m % (2 * spec.n + 2) == 0] = spec.n
    return unit / (spec.n + 1)


def power_generator(spec: FamilySpec, lam_pows: np.ndarray) -> np.ndarray:
    """The generator h of the power whose eigenvalue powers are lam_pows.

    h_m = sum_k lam_pows_k * w_k * cos(m * theta_k) for m = 0..2L, with w
    from _generator_weights and L as in the angle grid (n - 1 for family
    "a", n + 1 otherwise).  The weights alone go through the same FFT and
    must reproduce the identity's generator; ClosureError is raised when
    they miss it by CLOSURE_TOL or more.
    """
    weights = _generator_weights(spec)
    unit, h = _cosine_sums(spec, np.stack((weights, lam_pows * weights)))
    residual = float(np.abs(unit - _identity_generator(spec, unit.size)).max())
    if residual >= CLOSURE_TOL:
        raise ClosureError(
            f"generator weights failed closure for family {spec.family!r}, "
            f"n={spec.n}: residual {residual:.3e} >= {CLOSURE_TOL:g}"
        )
    return h
