"""The public names of the package, and the argument checks they make."""

import re

import numpy as np
import pytest

import tripow
from tripow import families, fibpoly, linalg, powers, spectral
from tripow.families import FamilySpec

PUBLIC_NAMES = [
    "ClosureError",
    "ExtendedDomainWarning",
    "FAMILIES",
    "FAMILY_A",
    "FAMILY_ADAGGER",
    "FAMILY_ANTI",
    "FamilySpec",
    "PowerOverflowError",
    "PowerResult",
    "SingularMatrixError",
    "SpectralData",
    "VerificationError",
    "build_exchange",
    "build_matrix",
    "char_value_a",
    "char_value_adagger",
    "decompose",
    "eigenvalues_a",
    "eigenvalues_adagger",
    "fib_det_check",
    "fib_factor_eval",
    "fib_poly_eval",
    "inv_transform_k",
    "inv_transform_t",
    "mat_det",
    "mat_identity",
    "mat_inverse",
    "mat_norm_maxabs",
    "mat_pow_binary",
    "nodes_a",
    "nodes_adagger",
    "power_entry_a",
    "power_entry_adagger",
    "power_entry_anti",
    "power_matrix",
    "power_verify",
    "sign_r",
    "transform_k",
    "transform_t",
]


def test_public_names_are_pinned():
    assert sorted(tripow.__all__) == PUBLIC_NAMES


def test_each_name_is_declared_by_one_submodule_and_exported():
    declared = [
        (name, module)
        for module in (families, fibpoly, linalg, powers, spectral)
        for name in module.__all__
    ]
    assert sorted(name for name, _ in declared) == PUBLIC_NAMES
    for name, module in declared:
        assert getattr(tripow, name) is getattr(module, name), name


def data(family):
    return spectral.decompose(FamilySpec(family, 4, 1, 1))


# Public argument checks, each with the exception type and message it gives.
ARGUMENT_CHECKS = [
    ("transform_k", lambda: spectral.transform_k(FamilySpec("adagger", 4, 1, 1)),
     ValueError, "expected family 'a', got 'adagger'"),
    ("inv_transform_k", lambda: spectral.inv_transform_k(FamilySpec("anti", 4, 1, 1)),
     ValueError, "expected family 'a', got 'anti'"),
    ("transform_t", lambda: spectral.transform_t(FamilySpec("a", 4, 1, 1)),
     ValueError, "expected family 'adagger' or 'anti', got 'a'"),
    ("inv_transform_t", lambda: spectral.inv_transform_t(FamilySpec("a", 4, 1, 1)),
     ValueError, "expected family 'adagger' or 'anti', got 'a'"),
    ("power_entry_anti",
     lambda: powers.power_entry_anti(spectral.decompose(FamilySpec("a", 4, 1, 1)), 2, 1, 1),
     ValueError, "expected family 'adagger' or 'anti' data, got 'a'"),
    ("nodes_adagger", lambda: spectral.nodes_adagger(0), ValueError, "n must be at least 1"),
    ("build_exchange", lambda: families.build_exchange(0), ValueError, "n must be at least 1"),
    ("char_value_adagger", lambda: families.char_value_adagger(0, 1.0),
     ValueError, "n must be at least 1"),
    ("char_value_a", lambda: families.char_value_a(2, 1.0), ValueError, "n must be at least 3"),
    ("mat_pow_binary", lambda: linalg.mat_pow_binary(np.zeros((0, 0)), 1),
     ValueError, "matrix dimension must be at least 1"),
    ("power_entry_a-float-s",
     lambda: powers.power_entry_a(data("a"), 2.0, 1, 1),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("power_entry_a-boolean-i",
     lambda: powers.power_entry_a(data("a"), 2, True, 1),
     ValueError, "i must be an integer, got True"),
    ("power_entry_adagger-float-i",
     lambda: powers.power_entry_adagger(data("adagger"), 2, 1.0, 1),
     ValueError, "i must be an integer, got 1.0"),
    ("power_entry_anti-float-s",
     lambda: powers.power_entry_anti(data("anti"), 3.0, 1, 1),
     TypeError, "'float' object cannot be interpreted as an integer"),
    ("power_entry_anti-boolean-j",
     lambda: powers.power_entry_anti(data("anti"), 2, 1, True),
     ValueError, "j must be an integer, got True"),
    # A boolean is an int to operator.index, and numpy's is not: both are
    # refused as exponents with one message.
    ("power_matrix-boolean-s", lambda: powers.power_matrix(FamilySpec("a", 4, 1, 1), True),
     TypeError, "exponent must be an integer, not a boolean, got True"),
    ("power_verify-numpy-boolean-s",
     lambda: powers.power_verify(FamilySpec("adagger", 4, 1, 1), np.True_),
     TypeError, "exponent must be an integer, not a boolean, got True"),
    ("power_entry_a-boolean-s", lambda: powers.power_entry_a(data("a"), False, 1, 1),
     TypeError, "exponent must be an integer, not a boolean, got False"),
    ("power_entry_adagger-numpy-boolean-s",
     lambda: powers.power_entry_adagger(data("adagger"), np.False_, 1, 1),
     TypeError, "exponent must be an integer, not a boolean, got False"),
    ("power_entry_anti-boolean-s", lambda: powers.power_entry_anti(data("anti"), True, 1, 1),
     TypeError, "exponent must be an integer, not a boolean, got True"),
    ("mat_pow_binary-boolean-s", lambda: linalg.mat_pow_binary(np.eye(2), True),
     TypeError, "exponent must be an integer, not a boolean, got True"),
    ("oracle_power-numpy-boolean-s", lambda: linalg.oracle_power(np.eye(2), np.True_),
     TypeError, "exponent must be an integer, not a boolean, got True"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in ARGUMENT_CHECKS],
                         ids=[case[0] for case in ARGUMENT_CHECKS])
def test_argument_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
