"""Property tests: closed-form powers across families, layouts and exponents.

Each drawn case is one (family, n, a, b, s) with unit spectral radius, so
no power overflows or underflows.  The exponents lean toward the layout
switch of the assembly (2s + 2 = n, at s = n//2 - 1 and n//2) and the end
of the band (s = n - 2, n - 1), where its corner clearing changes size.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripow.families import FAMILIES, FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI, FamilySpec, build_matrix
from tripow.linalg import mat_norm_maxabs
from tripow.powers import (
    ExtendedDomainWarning,
    oracle_power,
    power_entry_a,
    power_entry_adagger,
    power_entry_anti,
    power_matrix,
)
from tripow.spectral import decompose, eigenvalues

from helpers import assert_positive_zeros_outside_band

ENTRY = {FAMILY_A: power_entry_a, FAMILY_ADAGGER: power_entry_adagger, FAMILY_ANTI: power_entry_anti}

PROPERTY_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
)


@st.composite
def power_cases(draw):
    """(spec, s, entries): unit spectral radius, min|lambda| >= 0.3 for s < 0."""
    family = draw(st.sampled_from(FAMILIES))
    n = 2 * draw(st.integers(1, 20)) if family == FAMILY_ANTI else draw(st.integers(2, 40))
    s = draw(
        st.one_of(
            st.integers(-4, 2 * n + 2),
            st.sampled_from([n // 2 - 1, n // 2, n - 2, n - 1]),
        )
    )
    part = st.floats(-3.0, 3.0)
    a = complex(draw(part), draw(part))
    b = complex(draw(part), draw(part))
    assume(abs(b) >= 0.25)
    moduli = np.abs(eigenvalues(FamilySpec(family, n, a, b)))
    radius = float(moduli.max())
    assume(s >= 0 or moduli.min() >= 0.3 * radius)
    index = st.integers(1, n)
    entries = draw(st.lists(st.tuples(index, index), min_size=1, max_size=4))
    return FamilySpec(family, n, a / radius, b / radius), s, entries


@PROPERTY_SETTINGS
@given(power_cases())
def test_power_matches_oracle_band_entries_and_symmetry(case):
    spec, s, entries = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        got = power_matrix(spec, s).matrix
        oracle = oracle_power(build_matrix(spec), s)
        data = decompose(spec)
        values = np.array([ENTRY[spec.family](data, s, i, j) for i, j in entries])
    residual = mat_norm_maxabs(got - oracle) / max(1.0, mat_norm_maxabs(oracle))
    assert residual <= 1e-12
    assert_positive_zeros_outside_band(got, spec.family, s)
    rows, cols = np.array(entries).T - 1
    assert np.array_equal(values.view(np.uint64), got[rows, cols].view(np.uint64))
    if spec.family == FAMILY_ADAGGER:
        assert np.array_equal(got, got.T)
