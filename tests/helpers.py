"""Helpers shared by the test modules."""

import numpy as np

from tripow.families import FAMILY_ANTI


def random_params(rng, min_b=0.25, scale=3.0):
    """Complex (a, b) with parts uniform in [-scale, scale) and |b| >= min_b.

    Draws a.real, a.imag, b.real, b.imag in that order and redraws all four
    until |b| is large enough, so a seeded rng gives the same pairs in every
    module.
    """
    while True:
        a = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        b = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(b) >= min_b:
            return a, b


def outside_band(family, n, s):
    """Where the s-th power is zero by its bandwidth; nowhere for s < 0.

    For s >= 0 that is |i - j| > s, with the rows flipped for odd anti
    powers.
    """
    i, j = np.ogrid[:n, :n]
    if family == FAMILY_ANTI and s % 2 == 1:
        i = n - 1 - i
    return np.broadcast_to((abs(i - j) > s) & (s >= 0), (n, n))


def assert_positive_zeros_outside_band(matrix, family, s):
    """Every entry outside the band is +0.0 in both parts, no signbit."""
    outside = matrix[outside_band(family, matrix.shape[0], s)]
    assert np.all(outside == 0), s
    assert not np.signbit(outside.view(np.float64)).any(), s
