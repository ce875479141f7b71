"""Timing the closed form against binary exponentiation.

The closed form costs the same for any exponent (scalar eigenvalue powers,
one FFT, and writing the n**2 entries), while binary exponentiation pays a
matrix product per bit of the exponent.  `tripow bench` scales the
parameters to unit spectral radius so giant exponents stay finite and the
comparison remains meaningful; this demo runs it and prints its CSV table
(wall_nanos per method, and the closed form's residual against the oracle).
"""

import sys

from tripow.cli import main

sys.exit(main(["bench", "--family", "a", "--n", "64,128,256", "--s", "8,1024,4096", "--seed", "7"]))
