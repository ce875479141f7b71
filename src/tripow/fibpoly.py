"""Fibonacci polynomials and their determinant and product identities.

F_n satisfies F_n(x) = x*F_{n-1}(x) + F_{n-2}(x) with F_0 = 0, F_1 = 1,
so F_n(1) is the n-th Fibonacci number.  Setting a = x and b = i in the
family-"a" matrix ties the polynomial to a determinant:

    det = (x**2 + 4) * F_{n-1}(x)

and, because the determinant is the product of the closed-form eigenvalues,
to a product over cosine factors x + i*node_k, with the nodes of family "a"
on the spectral angle grid (spectral.nodes_a).  The first and last factors
multiply to exactly x**2 + 4, so the product form below cancels them
analytically and never divides, staying finite even at x = +-2i.  The
nodes are exactly antisymmetric with an exact zero for odd n, so the
product vanishes exactly where F_{n-1} does at x = 0.
"""

import cmath
import math

from .families import FAMILY_A, FamilySpec, _integer, build_matrix
from .linalg import mat_det
from .spectral import nodes_a

__all__ = ["fib_poly_eval", "fib_det_check", "fib_factor_eval"]


def _require_finite(x: complex) -> complex:
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return x


def fib_poly_eval(n: int, x: complex) -> complex:
    """F_n(x) by the forward recurrence; exact for integer arguments.

    n must be an integer of any type, not a boolean, and non-negative, and
    x finite (ValueError otherwise).
    """
    n = _integer(n)
    if n < 0:
        raise ValueError("order must be non-negative")
    x = _require_finite(x)
    # From F_-1 = 1 and F_0 = 0, so that n = 0 needs no case of its own.
    prev, cur = 1.0 + 0.0j, 0.0 + 0.0j
    for _ in range(n):
        prev, cur = cur, x * cur + prev
    return cur


def fib_det_check(n: int, x: complex) -> tuple[complex, complex]:
    """Both sides of the determinant identity at order n and argument x.

    Returns (determinant, (x**2 + 4) * F_{n-1}(x)); the determinant side is
    computed by elimination on the actual matrix, so the pair is an
    independent cross-check, not one formula evaluated twice.  n must be an
    integer of any type, not a boolean, and at least 3, and x finite
    (ValueError otherwise).
    """
    n = _integer(n, least=3)
    x = _require_finite(x)
    spec = FamilySpec(FAMILY_A, n, x, 1j)
    lhs = mat_det(build_matrix(spec))
    rhs = (x * x + 4.0) * fib_poly_eval(n - 1, x)
    return lhs, rhs


def fib_factor_eval(n: int, x: complex) -> complex:
    """F_{n-1}(x) as a division-free product of cosine factors.

    Multiplies x + i*node_k = x + 2i*cos((k-1)*pi/(n-1)) over the interior
    k = 2..n-1 of nodes_a(n) only; the k = 1 and k = n factors are
    (x + 2i)(x - 2i) = x**2 + 4 and are cancelled analytically against the
    denominator of the printed identity.  n must be an integer of any type,
    not a boolean, and at least 3, and x finite (ValueError otherwise).
    """
    n = _integer(n, least=3)
    x = _require_finite(x)
    return math.prod((x + 1j * node for node in nodes_a(n)[1:-1].tolist()), start=1.0 + 0.0j)
