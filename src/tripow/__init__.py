"""Closed-form integer powers of structured complex matrices.

Three families of n-square complex matrices built from two parameters a, b
(tridiagonal with doubled corner entries, symmetric tridiagonal with
alternating off-diagonal signs, and the exchange flip of the latter) admit
fully explicit spectral decompositions: Chebyshev-cosine eigenvalues,
Chebyshev-polynomial eigenvectors, and analytic inverses of the eigenvector
matrices.  This package evaluates those closed forms for any integer power,
checks every one against a dumb dense oracle, and carries the companion
Fibonacci-polynomial determinant factorization.

The public names are those of each submodule's __all__, declared there.
"""

from . import families, fibpoly, linalg, powers, spectral
from .families import *  # noqa: F401,F403
from .fibpoly import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .powers import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *families.__all__,
    *fibpoly.__all__,
    *linalg.__all__,
    *powers.__all__,
    *spectral.__all__,
]
