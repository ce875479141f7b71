"""The structured matrix families: one record each, and their characteristic values.

The families are one tridiagonal Toeplitz operator, diagonal a and both
off-diagonals b, with different boundary rows.  Each is one private _Rule
record of _RULES, keyed by its name, and the record is all the code reads
of a family: its n domain, its hand-written dense builder, and the few
numbers in which its closed forms differ (the angle grid, the transform
kind, the Hankel term and signs of the power's entries).  FAMILIES holds
the keys of _RULES, so a new boundary rule is one record.

Family "a":       tridiagonal, diagonal a, both off-diagonals b, with the
                  (1,2) and (n-1,n) entries doubled to 2b; n >= 2.
Family "adagger": symmetric tridiagonal, diagonal a, off-diagonal pair k
                  (coupling rows k and k+1) equal to +b for odd k and -b
                  for even k.
Family "anti":    the exchange flip of "adagger", an anti-tridiagonal matrix;
                  requires even dimension.

A builder reads no closed-form field, so the dense matrix that the oracle
powers stays independent of the closed form.  The characteristic values
evaluate the determinant recurrence of each normalized matrix, a
second-kind Chebyshev recurrence.  They share no code with the spectral
module, so the tests use them as an independent route to the eigenvalue
nodes.
"""

import cmath
import operator
from collections.abc import Callable
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


@dataclass(frozen=True)
class FamilySpec:
    """Which family to build, its dimension, and the two complex parameters.

    Constraints are checked eagerly: n is any integer type (stored as int)
    and at least 1, refused with the texts of every other bare n
    (_integer), booleans are refused for n, a and b, b must be nonzero, and
    n must lie in the domain that the family's record gives (n >= 2 for
    "a", even n for "anti").
    """

    family: str
    n: int
    a: complex
    b: complex

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.n, self.a, self.b)):
            raise ValueError("n, a and b must be numbers, not booleans")
        object.__setattr__(self, "n", _integer(self.n, least=1))
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        # Membership in a tuple, so that an unhashable name is unknown too.
        if self.family not in tuple(_RULES):
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(_RULES)}")
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.b)):
            raise ValueError("a and b must be finite")
        if self.b == 0:
            raise ValueError("b must be nonzero")
        _check_domain(self.family, self.n)


def _integer(value, name: str = "n", least: int | None = None) -> int:
    """value as an int, from any integer type, and not below least where given.

    A boolean or any other value raises ValueError naming name, and so does
    an int below least.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
            return value
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


def _build_anti(n: int, a: complex, b: complex) -> np.ndarray:
    return _build_adagger(n, a, b)[::-1].copy()


@dataclass(frozen=True)
class _Rule:
    """One family: its n domain, its dense builder, and the numbers of its closed forms."""

    period_shift: int  # the grid's period L = n + period_shift
    descending: bool  # eigenvalue k = 1..n at q = L - k, not at q = k - 1
    hankel_shift: int  # entry (i, j), 0-based, is h[|i-j|] + hankel_sign * h[i+j+hankel_shift]
    hankel_sign: int  # +1: a cosine-type transform, -1: a sine-type one
    sign_period: int  # 4: times sign_r(i) * sign_r(j), which needs hankel_sign -1; 1: no signs
    paths: tuple[str, str]  # PowerResult.path by parity; part of the JSON output
    build: Callable[[int, complex, complex], np.ndarray]  # (n, a, b) -> the dense matrix
    min_n: int = 1  # the smallest n of the domain
    even_n: bool = False  # the domain holds even n only
    halves_edges: bool = False  # the first column and the last row carry a factor 1/2
    flips: bool = False  # the exchange flip of its twin; the parity of s, not n, picks the path


_SINE = (1, True, 2, -1, 4)  # the numbers that "anti" shares with its twin
_RULES = {
    FAMILY_A: _Rule(-1, False, 0, 1, 1, ("closed-form-A", "closed-form-A"), _build_a,
                    min_n=2, halves_edges=True),
    FAMILY_ADAGGER: _Rule(*_SINE, ("closed-form-ADagger-even", "closed-form-ADagger-odd"),
                          _build_adagger),
    FAMILY_ANTI: _Rule(*_SINE, ("closed-form-anti-even-s", "closed-form-anti-odd-s"),
                       _build_anti, even_n=True, flips=True),
}
FAMILIES = tuple(_RULES)


def _check_domain(family: str, n: int):
    """Raise ValueError, naming the family, unless n lies in its domain."""
    rule = _RULES[family]
    if n < rule.min_n:
        raise ValueError(f"family {family!r} requires n >= {rule.min_n}")
    if rule.even_n and n % 2:
        raise ValueError(f"family {family!r} requires even n")


def _check_kind(spec: FamilySpec, hankel_sign: int, what: str = ""):
    """Raise ValueError unless spec's transform is of the kind of hankel_sign.

    +1 is the cosine type and -1 the sine type; the message names every
    family of that kind, with what after the names.
    """
    if _RULES[spec.family].hankel_sign != hankel_sign:
        kind = " or ".join(repr(f) for f, rule in _RULES.items() if rule.hankel_sign == hankel_sign)
        raise ValueError(f"expected family {kind}{what}, got {spec.family!r}")


def build_matrix(spec: FamilySpec) -> np.ndarray:
    """Construct the dense matrix described by spec, by its family's builder.

    The anti family is defined operationally as the exchange flip of its
    tridiagonal counterpart (row i of the result is row n-i+1 of the
    "adagger" matrix), so the flip identity holds exactly by construction.
    """
    return _RULES[spec.family].build(spec.n, spec.a, spec.b)


def build_exchange(n: int) -> np.ndarray:
    """The exchange (anti-identity) matrix: ones on the anti-diagonal.

    n must be an integer of any type, not a boolean, and at least 1
    (ValueError otherwise).
    """
    n = _integer(n, least=1)
    return np.eye(n, dtype=np.complex128)[::-1].copy()


def _second_kind(order: int, alpha: float) -> float:
    """U_order(alpha / 2) by the recurrence p_k = alpha*p_{k-1} - p_{k-2}.

    From p_-1 = 0 and p_0 = 1, so that order 0 needs no case of its own.
    The recurrence is exact polynomial evaluation for every real alpha, not
    only inside [-2, 2].
    """
    prev, cur = 0.0, 1.0
    for _ in range(order):
        prev, cur = cur, alpha * cur - prev
    return cur


def char_value_a(n: int, alpha: float) -> float:
    """Characteristic-determinant value of the normalized family-"a" matrix.

    Equals (alpha**2 - 4) * U_{n-2}(alpha / 2); its roots are
    2*cos((k-1)*pi/(n-1)), the eigenvalue nodes.  n must be an integer of
    any type, not a boolean, and at least 3 (ValueError otherwise).
    """
    n = _integer(n, least=3)
    return (alpha * alpha - 4.0) * _second_kind(n - 2, alpha)


def char_value_adagger(n: int, theta: float) -> float:
    """Characteristic-determinant value of the normalized "adagger" matrix.

    The alternating off-diagonal signs cancel in the determinant recurrence,
    leaving U_n(theta/2) exactly as in the constant-sign case.  n must be
    an integer of any type, not a boolean, and at least 1 (ValueError
    otherwise).
    """
    n = _integer(n, least=1)
    return _second_kind(n, theta)
