"""Timing the closed form against binary exponentiation.

The closed form costs the same for any exponent (scalar eigenvalue powers,
one FFT, and writing the n**2 entries), while binary exponentiation pays a
matrix product per bit of the exponent.  Parameters are scaled to unit
spectral radius so giant exponents stay finite and the comparison remains
meaningful.  The CLI exposes the same table as `tripow bench`.
"""

import time

import numpy as np

from tripow import FamilySpec, build_matrix, decompose, mat_norm_maxabs, mat_pow_binary, power_matrix


def unit_radius_spec(family, n, seed):
    rng = np.random.default_rng(seed)
    a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.5
    spec = FamilySpec(family, n, a, b)
    radius = float(np.abs(decompose(spec).eigenvalues).max())
    return FamilySpec(family, n, a / radius, b / radius)


print(f"{'n':>5} {'s':>6} {'closed form':>12} {'binary pow':>12} {'residual':>10}")
for n in (64, 128, 256):
    spec = unit_radius_spec("a", n, seed=7)
    matrix = build_matrix(spec)
    for s in (8, 1024, 4096):
        t0 = time.perf_counter()
        closed = power_matrix(spec, s).matrix
        t_closed = time.perf_counter() - t0
        t0 = time.perf_counter()
        oracle = mat_pow_binary(matrix, s)
        t_oracle = time.perf_counter() - t0
        residual = mat_norm_maxabs(closed - oracle)
        print(f"{n:>5} {s:>6} {t_closed:>11.4f}s {t_oracle:>11.4f}s {residual:>10.2e}")
