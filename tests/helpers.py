"""Helpers shared by the test modules."""


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
