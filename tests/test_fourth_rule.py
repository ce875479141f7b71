"""A boundary rule registered in the tests only: a family is one record.

The Dirichlet tridiagonal Toeplitz matrix aI + b(S + S^T) is "adagger"
without its sign pattern diag(sign_r): a sine-type rule with sign period 1
and a subtracting Hankel term, a pair that no family of the package uses.
The fixture registers it by adding one record, with a hand-written builder,
to families._RULES, and patches nothing else; the checks below run through
the public functions.
"""

import warnings

import numpy as np
import pytest

from tripow import families
from tripow.families import FamilySpec, build_matrix
from tripow.linalg import mat_norm_maxabs
from tripow.powers import (
    ExtendedDomainWarning,
    power_entry_a,
    power_entry_adagger,
    power_matrix,
    power_verify,
)
from tripow.spectral import decompose

DIRICHLET = "dirichlet"
ORDERS = (1, 2, 3, 5, 16, 17, 64, 130)
PARAMS = ((0.6j, 0.4), (0.3 - 0.5j, 0.25 + 0.1j), (3 + 1j, 0.8 - 0.9j))


def build_dirichlet(n, a, b):
    """aI + b(S + S^T), entry by entry: it reads no field of the rule."""
    m = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        m[i, i] = a
        if i + 1 < n:
            m[i, i + 1] = m[i + 1, i] = b
    return m


@pytest.fixture
def dirichlet(monkeypatch):
    rule = families._Rule(1, True, 2, -1, 1, ("dirichlet-even", "dirichlet-odd"), build_dirichlet)
    monkeypatch.setitem(families._RULES, DIRICHLET, rule)
    return DIRICHLET


def exponents(n):
    return sorted({1, 2, 3, 8, n // 2, n - 1, n, 64, -3})


def test_the_record_gives_the_spec_and_the_matrix(dirichlet):
    spec = FamilySpec(dirichlet, 1, 2.0, 1.0)
    np.testing.assert_array_equal(build_matrix(spec), [[2.0]])
    spec = FamilySpec(dirichlet, 4, 0.5j, -1.5)
    np.testing.assert_array_equal(build_matrix(spec), build_dirichlet(4, 0.5j, -1.5))
    assert dirichlet not in families.FAMILIES


@pytest.mark.parametrize("n", ORDERS)
def test_power_verify_holds_on_the_grid(dirichlet, n):
    for a, b in PARAMS:
        spec = FamilySpec(dirichlet, n, a, b)
        for s in exponents(n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtendedDomainWarning)
                result = power_verify(spec, s, tol=1e-12)
            assert result.path == ("dirichlet-even", "dirichlet-odd")[n % 2]


@pytest.mark.parametrize("n", ORDERS)
def test_decompose_diagonalizes_the_built_matrix(dirichlet, n):
    for a, b in PARAMS:
        spec = FamilySpec(dirichlet, n, a, b)
        data = decompose(spec)
        m = build_matrix(spec)
        rebuilt = data.vec_matrix @ np.diag(data.eigenvalues) @ data.inv_matrix
        assert mat_norm_maxabs(rebuilt - m) <= 1e-13 * mat_norm_maxabs(m)


@pytest.mark.parametrize("n", (1, 2, 3, 5, 16, 17))
def test_entries_equal_the_power_bit_for_bit(dirichlet, n):
    a, b = PARAMS[1]
    data = decompose(FamilySpec(dirichlet, n, a, b))
    for s in [0, *exponents(n)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            matrix = power_matrix(data.spec, s).matrix
            entries = np.array([
                [power_entry_adagger(data, s, i, j) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ])
        np.testing.assert_array_equal(
            entries.view(np.uint64), np.ascontiguousarray(matrix).view(np.uint64)
        )


def test_kind_checks_read_the_record(dirichlet):
    data = decompose(FamilySpec(dirichlet, 4, 1, 1))
    with pytest.raises(ValueError, match="^expected family 'a' data, got 'dirichlet'$"):
        power_entry_a(data, 2, 1, 1)
    message = "^expected family 'adagger' or 'anti' or 'dirichlet' data, got 'a'$"
    with pytest.raises(ValueError, match=message):
        power_entry_adagger(decompose(FamilySpec("a", 4, 1, 1)), 2, 1, 1)
