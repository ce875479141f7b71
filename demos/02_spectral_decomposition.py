"""Anatomy of a closed-form spectral decomposition.

Both tridiagonal families diagonalize with explicitly known pieces:
cosine eigenvalue nodes, Chebyshev-polynomial eigenvector columns, and an
analytic inverse of the eigenvector matrix built from small coefficient
families.  Nothing here calls an eigensolver.
"""

import numpy as np

from tripow import FamilySpec, build_matrix, decompose, mat_identity, mat_norm_maxabs

np.set_printoptions(precision=4, suppress=True)

spec = FamilySpec("a", 4, 1.0, 2.0)
data = decompose(spec)

print("eigenvalues (integers at a=1, b=2):", np.round(data.eigenvalues.real, 10))
print("nodes (always real, in [-2, 2]):   ", data.nodes)

print("\neigenvector matrix (first row is all ones by normalization):")
print(data.vec_matrix)

print("\nanalytic inverse (no elimination involved):")
print(data.inv_matrix)

closure = mat_norm_maxabs(data.vec_matrix @ data.inv_matrix - mat_identity(spec.n))
print("\nclosure residual |V V^-1 - I|:", closure)

rebuilt = (data.vec_matrix * data.eigenvalues[None, :]) @ data.inv_matrix
reconstruction = mat_norm_maxabs(rebuilt - build_matrix(spec))
print("reconstruction residual |V diag(lambda) V^-1 - M|:", reconstruction)

# The paper writes the alternating family's row weights in two forms, mu for
# odd dimensions and eta for even ones; both equal 2 sin(k pi/(n+1))**2/(n+1).
# The first column of the analytic inverse exposes them.
for n in (5, 6):
    data = decompose(FamilySpec("adagger", n, 0.0, 1.0))
    kind = "mu (odd n)" if n % 2 else "eta (even n)"
    print(f"\nn={n} row weights, {kind}: {data.inv_matrix[:, 0]}")
