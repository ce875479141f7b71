"""Powers of the anti-tridiagonal family split on the parity of the exponent.

The anti family is the exchange flip of the alternating tridiagonal family,
and the two matrices commute with the exchange.  Squaring wipes out the flip,
so even powers coincide with the tridiagonal twin and odd powers are the
flipped twin power.  Only even dimensions carry this structure.
"""

import numpy as np

from tripow import (
    FamilySpec,
    build_exchange,
    build_matrix,
    mat_norm_maxabs,
    mat_pow_binary,
    power_matrix,
)

np.set_printoptions(precision=4, suppress=True)

n = 4
a, b = 1.0, 1.0
anti = FamilySpec("anti", n, a, b)
twin = FamilySpec("adagger", n, a, b)

print("anti-tridiagonal matrix (rows of the twin, reversed):")
print(build_matrix(anti).real)

exchange = build_exchange(n)
twin_matrix = build_matrix(twin)
commutator = mat_norm_maxabs(exchange @ twin_matrix - twin_matrix @ exchange)
print("\nexchange commutator norm (exactly zero):", commutator)

for s in (2, 3):
    closed = power_matrix(anti, s)
    oracle = mat_pow_binary(build_matrix(anti), s)
    relation = "(twin)^s" if s % 2 == 0 else "exchange * (twin)^s"
    print(f"\ns={s}: path={closed.path}, equals {relation}")
    print(closed.matrix.real)
    print("residual vs brute force:", mat_norm_maxabs(closed.matrix - oracle))
