"""The public names of the package."""

import tripow
from tripow import families, fibpoly, linalg, powers, spectral

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
