"""The three structured matrix families and their characteristic values.

The characteristic values evaluate the determinant recurrence of each
normalized matrix, a second-kind Chebyshev recurrence.  They share no code
with the spectral module, so the tests use them as an independent route to
the eigenvalue nodes.

Family "a":       tridiagonal, diagonal a, both off-diagonals b, with the
                  (1,2) and (n-1,n) entries doubled to 2b.
Family "adagger": symmetric tridiagonal, diagonal a, off-diagonal pair k
                  (coupling rows k and k+1) equal to +b for odd k and -b
                  for even k.
Family "anti":    the exchange flip of "adagger", an anti-tridiagonal matrix;
                  requires even dimension.
"""

import cmath
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILY_A",
    "FAMILY_ADAGGER",
    "FAMILY_ANTI",
    "FAMILIES",
    "FamilySpec",
    "build_matrix",
    "build_exchange",
    "char_value_a",
    "char_value_adagger",
]

FAMILY_A = "a"
FAMILY_ADAGGER = "adagger"
FAMILY_ANTI = "anti"
FAMILIES = (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)


@dataclass(frozen=True)
class FamilySpec:
    """Which family to build, its dimension, and the two complex parameters.

    Constraints are checked eagerly: n is any integer type (stored as int),
    booleans are refused for n, a and b, b must be nonzero, family "a" needs
    n >= 2, and family "anti" needs even n.
    """

    family: str
    n: int
    a: complex
    b: complex

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.n, self.a, self.b)):
            raise ValueError("n, a and b must be numbers, not booleans")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValueError("n must be a positive integer") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError("a and b must be finite")
        if self.b == 0:
            raise ValueError("b must be nonzero")
        if self.family == FAMILY_A and self.n < 2:
            raise ValueError("family 'a' requires n >= 2")
        if self.family == FAMILY_ANTI and self.n % 2 != 0:
            raise ValueError("anti-tridiagonal family requires even n")


def _integer(value, name: str = "n") -> int:
    """value as an int, from any integer type; a boolean or any other value raises ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _off_diagonals(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Writable views of the super- and subdiagonal of a C-contiguous square array."""
    flat = m.reshape(-1)
    step = len(m) + 1
    return flat[1::step], flat[len(m)::step]


def _build_a(n: int, a: complex, b: complex) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(m, a)
    for off in _off_diagonals(m):
        off[:] = b
    # Both corner rules double an off-diagonal entry.  At n=2 they land on
    # the same entry and compose to 4b, the unique reading under which the
    # closed-form eigenvalues a +- 2b are exact.
    m[0, 1] *= 2.0
    m[n - 2, n - 1] *= 2.0
    return m


def _build_adagger(n: int, a: complex, b: complex) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(m, a)
    # Pair k = 1..n-1 sits at offset k - 1 of each off-diagonal.
    for off in _off_diagonals(m):
        off[0::2] = 1.0 * b
        off[1::2] = -1.0 * b
    return m


def build_matrix(spec: FamilySpec) -> np.ndarray:
    """Construct the dense matrix described by spec.

    The anti family is defined operationally as the exchange flip of its
    tridiagonal counterpart (row i of the result is row n-i+1 of the
    "adagger" matrix), so the flip identity holds exactly by construction.
    """
    if spec.family == FAMILY_A:
        return _build_a(spec.n, spec.a, spec.b)
    if spec.family == FAMILY_ADAGGER:
        return _build_adagger(spec.n, spec.a, spec.b)
    return _build_adagger(spec.n, spec.a, spec.b)[::-1].copy()


def build_exchange(n: int) -> np.ndarray:
    """The exchange (anti-identity) matrix: ones on the anti-diagonal.

    n must be an integer of any type, not a boolean, and at least 1
    (ValueError otherwise).
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.eye(n, dtype=np.complex128)[::-1].copy()


def _second_kind(order: int, alpha: float) -> float:
    """U_order(alpha / 2) by the recurrence p_k = alpha*p_{k-1} - p_{k-2}.

    p_0 = 1 and p_1 = alpha.  The recurrence is exact polynomial
    evaluation for every real alpha, not only inside [-2, 2].
    """
    prev, cur = 1.0, float(alpha)
    if order == 0:
        return prev
    for _ in range(order - 1):
        prev, cur = cur, alpha * cur - prev
    return cur


def char_value_a(n: int, alpha: float) -> float:
    """Characteristic-determinant value of the normalized family-"a" matrix.

    Equals (alpha**2 - 4) * U_{n-2}(alpha / 2); its roots are
    2*cos((k-1)*pi/(n-1)), the eigenvalue nodes.  n must be an integer of
    any type, not a boolean, and at least 3 (ValueError otherwise).
    """
    n = _integer(n)
    if n < 3:
        raise ValueError("n must be at least 3")
    return (alpha * alpha - 4.0) * _second_kind(n - 2, alpha)


def char_value_adagger(n: int, theta: float) -> float:
    """Characteristic-determinant value of the normalized "adagger" matrix.

    The alternating off-diagonal signs cancel in the determinant recurrence,
    leaving U_n(theta/2) exactly as in the constant-sign case.  n must be
    an integer of any type, not a boolean, and at least 1 (ValueError
    otherwise).
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return _second_kind(n, theta)
