"""Property tests: closed-form powers across families, layouts and exponents.

Most drawn cases are one (family, n, a, b, s) with unit spectral radius, so
no power overflows or underflows.  The exponents lean toward the layout
switch of the assembly (2s + 2 = n, at s = n//2 - 1 and n//2) and the end
of the band (s = n - 2, n - 1), where its corner clearing changes size.
The edge cases put an exact zero in the spectrum of a negative power, take
|s| up to 2**20, or scale the spectrum so that |lambda|**s is near the
overflow or underflow limit.
"""

import contextlib
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripow.cli import format_complex, main
from tripow.families import FAMILIES, FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI, FamilySpec, build_matrix
from tripow.linalg import SingularMatrixError, mat_norm_maxabs, oracle_power
from tripow.powers import (
    ExtendedDomainWarning,
    PowerOverflowError,
    power_entry_a,
    power_entry_adagger,
    power_entry_anti,
    power_matrix,
)
from tripow.spectral import decompose, eigenvalues

from helpers import assert_positive_zeros_outside_band, same_bits

ENTRY = {FAMILY_A: power_entry_a, FAMILY_ADAGGER: power_entry_adagger, FAMILY_ANTI: power_entry_anti}

PROPERTY_SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
)


EPS = sys.float_info.epsilon


def draw_family_n(draw, max_n):
    """A family and an n in 2..max_n, even for anti."""
    family = draw(st.sampled_from(FAMILIES))
    if family == FAMILY_ANTI:
        return family, 2 * draw(st.integers(1, max_n // 2))
    return family, draw(st.integers(2, max_n))


def draw_complex(draw):
    return complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))


def draw_b(draw):
    b = draw_complex(draw)
    assume(abs(b) >= 0.25)
    return b


def run_power_cli(spec, s):
    """(exit code, stdout, stderr) of tripow power --format json for spec, s."""
    argv = [
        "power", "--family", spec.family, "--n", str(spec.n), f"--a={format_complex(spec.a)}",
        f"--b={format_complex(spec.b)}", f"--s={s}", "--format", "json",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@st.composite
def power_cases(draw):
    """(spec, s, entries): unit spectral radius, min|lambda| >= 0.3 for s < 0."""
    family, n = draw_family_n(draw, 40)
    s = draw(
        st.one_of(
            st.integers(-4, 2 * n + 2),
            st.sampled_from([n // 2 - 1, n // 2, n - 2, n - 1]),
        )
    )
    a = draw_complex(draw)
    b = draw_b(draw)
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
    assert same_bits(values, got[rows, cols])
    if spec.family == FAMILY_ADAGGER:
        assert np.array_equal(got, got.T)


@st.composite
def singular_cases(draw):
    """(spec, s): eigenvalue k is exactly zero, a = -(b * node_k), and s < 0."""
    family, n = draw_family_n(draw, 16)
    b = draw_b(draw)
    k = draw(st.integers(0, n - 1))
    a = -complex(eigenvalues(FamilySpec(family, n, 0j, b))[k])
    return FamilySpec(family, n, a, b), -draw(st.integers(1, 2**20))


@PROPERTY_SETTINGS
@given(singular_cases())
def test_zero_eigenvalue_refuses_negative_powers(case):
    spec, s = case
    assert np.abs(eigenvalues(spec)).min() == 0
    with pytest.raises(SingularMatrixError):
        power_matrix(spec, s)
    code, out, err = run_power_cli(spec, s)
    assert (code, out) == (1, "")
    assert err.startswith("error: negative power undefined")


@st.composite
def large_exponent_cases(draw):
    """(spec, s), n <= 8 and 2**10 <= |s| <= 2**20, scaled so that the
    spectral radius of M (s > 0) or of its inverse (s < 0) is 1."""
    family, n = draw_family_n(draw, 8)
    a, b = draw_complex(draw), draw_b(draw)
    s = draw(st.integers(2**10, 2**20)) * draw(st.sampled_from([1, -1]))
    moduli = np.abs(eigenvalues(FamilySpec(family, n, a, b)))
    assume(s > 0 or moduli.min() >= 0.3 * moduli.max())
    radius = float(moduli.max() if s > 0 else moduli.min())
    return FamilySpec(family, n, a / radius, b / radius), s


@PROPERTY_SETTINGS
@given(large_exponent_cases())
def test_large_exponents_match_the_oracle(case):
    spec, s = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        got = power_matrix(spec, s).matrix
        oracle = oracle_power(build_matrix(spec), s)
    # lambda**s turns a relative rounding u of lambda into |s|*u, in the
    # closed form and in the oracle alike.
    residual = mat_norm_maxabs(got - oracle) / max(1.0, mat_norm_maxabs(oracle))
    assert residual <= 1e-12 + 8 * abs(s) * EPS


@st.composite
def range_edge_cases(draw):
    """(spec, s) whose |lambda|**s peaks near 2**t, t near the top or the
    bottom of the float range."""
    family, n = draw_family_n(draw, 16)
    a, b = draw_complex(draw), draw_b(draw)
    s = draw(st.integers(2, 4096)) * draw(st.sampled_from([1, -1]))
    t = draw(st.one_of(st.integers(1000, 1040), st.integers(-1100, -1000)))
    moduli = np.abs(eigenvalues(FamilySpec(family, n, a, b)))
    assume(s > 0 or moduli.min() >= 0.3 * moduli.max())
    scale = 2.0 ** (t / s) / float(moduli.max() if s > 0 else moduli.min())
    return FamilySpec(family, n, a * scale, b * scale), s


@PROPERTY_SETTINGS
@given(range_edge_cases())
def test_range_edges_are_finite_or_refused(case):
    spec, s = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        try:
            assert np.isfinite(power_matrix(spec, s).matrix).all()
        except PowerOverflowError:
            pass
    code, out, err = run_power_cli(spec, s)
    if code == 0:
        entries = json.loads(out, parse_constant=_reject_constant)["entries"]
        assert np.isfinite([[(c["re"], c["im"]) for c in row] for row in entries]).all()
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: power s=")
