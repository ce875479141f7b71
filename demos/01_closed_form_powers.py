"""Closed-form integer powers versus repeated multiplication.

The structured families admit entrywise power formulas: every entry of the
s-th power is a short weighted sum over eigenvalue powers, no matrix
multiplication involved.  This script computes a few powers both ways and
prints the residuals.

Run with the package installed, or PYTHONPATH=src from the repository root.
"""

import numpy as np

from tripow import (
    FamilySpec,
    build_matrix,
    mat_norm_maxabs,
    mat_pow_binary,
    power_matrix,
    power_verify,
)

# A 3x3 instance of the doubled-corner tridiagonal family with a = b = 1.
spec = FamilySpec("a", 3, 1.0, 1.0)
print("matrix:")
print(build_matrix(spec).real.astype(int))

# Its cube has a closed form with integer entries at these parameters.
result = power_matrix(spec, 3)
print("\ncube via the closed form (path: %s):" % result.path)
print(np.round(result.matrix.real).astype(int))

oracle = mat_pow_binary(build_matrix(spec), 3)
print("residual vs repeated multiplication:", mat_norm_maxabs(result.matrix - oracle))

# Negative powers work whenever no eigenvalue vanishes.  power_verify checks
# the closed form against the dense oracle, which factors the matrix once and
# takes the cheapest chain of solves and squares on that factorization.
spec = FamilySpec("a", 4, 1.0, 2.0)
result = power_verify(spec, -3)
print("\ninverse cube, n=4, a=1, b=2, entry (1,1):", result.matrix[0, 0])
print("relative residual vs the oracle:", result.residual_vs_oracle)

# Complex parameters are the normal case, not the exception.
spec = FamilySpec("adagger", 5, 0.5 + 2.0j, 1.0 - 0.5j)
result = power_matrix(spec, 6)
oracle = mat_pow_binary(build_matrix(spec), 6)
print("\nalternating family, n=5, s=6, complex parameters")
print("residual vs oracle:", mat_norm_maxabs(result.matrix - oracle))
