"""Closed-form integer powers of structured complex matrices.

Three families of n-square complex matrices built from two parameters a, b
(tridiagonal with doubled corner entries, symmetric tridiagonal with
alternating off-diagonal signs, and the exchange flip of the latter) admit
fully explicit spectral decompositions: Chebyshev-cosine eigenvalues,
Chebyshev-polynomial eigenvectors, and analytic inverses of the eigenvector
matrices.  This package evaluates those closed forms for any integer power,
checks every one against a dumb dense oracle, and carries the companion
Fibonacci-polynomial determinant factorization.
"""

from .families import (
    FAMILIES,
    FAMILY_A,
    FAMILY_ADAGGER,
    FAMILY_ANTI,
    FamilySpec,
    build_exchange,
    build_matrix,
    char_value_a,
    char_value_adagger,
)
from .fibpoly import fib_det_check, fib_factor_eval, fib_poly_eval
from .linalg import (
    SingularMatrixError,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_norm_maxabs,
    mat_pow_binary,
)
from .powers import (
    ExtendedDomainWarning,
    PowerOverflowError,
    PowerResult,
    VerificationError,
    power_entry_a,
    power_entry_adagger,
    power_entry_anti,
    power_matrix,
    power_verify,
)
from .spectral import (
    ClosureError,
    SpectralData,
    decompose,
    eigenvalues_a,
    eigenvalues_adagger,
    inv_transform_k,
    inv_transform_t,
    nodes_a,
    nodes_adagger,
    sign_r,
    transform_k,
    transform_t,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "FAMILY_A",
    "FAMILY_ADAGGER",
    "FAMILY_ANTI",
    "FamilySpec",
    "build_exchange",
    "build_matrix",
    "char_value_a",
    "char_value_adagger",
    "fib_det_check",
    "fib_factor_eval",
    "fib_poly_eval",
    "SingularMatrixError",
    "mat_det",
    "mat_identity",
    "mat_inverse",
    "mat_norm_maxabs",
    "mat_pow_binary",
    "ExtendedDomainWarning",
    "PowerOverflowError",
    "PowerResult",
    "VerificationError",
    "power_entry_a",
    "power_entry_adagger",
    "power_entry_anti",
    "power_matrix",
    "power_verify",
    "ClosureError",
    "SpectralData",
    "decompose",
    "eigenvalues_a",
    "eigenvalues_adagger",
    "inv_transform_k",
    "inv_transform_t",
    "nodes_a",
    "nodes_adagger",
    "sign_r",
    "transform_k",
    "transform_t",
]
