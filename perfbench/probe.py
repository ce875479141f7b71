"""Independent correctness probe for a computed matrix power.

The probe never uses the spectral machinery.  It takes the bands of the
tridiagonal matrix from ``build_matrix`` and applies them |s| times to a
seeded random vector, O(n) work per product.  For s >= 0 it compares P.v
with M^s.v; for s < 0 it checks that M^|s| (P.v) returns v.  The anti
family is the row flip of its tridiagonal twin, so its product is the
twin's product reversed.
"""

import numpy as np

from tripow.families import build_matrix

# Relative error above which a result counts as wrong.  Correct results stay
# at or below about 1e-11 at n=1024 and s=4096 on every family, and a single
# entry off by 1e-6 already gives about 1e-7.
PROBE_TOL = 1e-9


class Bands:
    """The three diagonals of a family matrix, with the anti row flip."""

    def __init__(self, spec):
        m = build_matrix(spec)
        self.flip = spec.family == "anti"
        if self.flip:
            m = m[::-1]
        self.lower = np.diagonal(m, -1).copy()
        self.diag = np.diagonal(m).copy()
        self.upper = np.diagonal(m, 1).copy()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y[::-1] if self.flip else y

    def apply(self, x: np.ndarray, times: int) -> np.ndarray:
        for _ in range(times):
            x = self.matvec(x)
        return x


def relative_error(spec, s: int, matrix: np.ndarray, rng: np.random.Generator) -> float:
    """Relative 2-norm error of matrix as the s-th power of spec's matrix."""
    n = spec.n
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bands = Bands(spec)
    pv = matrix @ v
    if s >= 0:
        expected = bands.apply(v, s)
        err = np.linalg.norm(pv - expected) / np.linalg.norm(expected)
    else:
        err = np.linalg.norm(bands.apply(pv, -s) - v) / np.linalg.norm(v)
    return float(err) if np.isfinite(err) else float("inf")
