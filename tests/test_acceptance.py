"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run under pytest for the usual report, or directly

    python tests/test_acceptance.py

for a one-line-per-criterion summary.
"""

import contextlib
import io
import pathlib
import sys
import time
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from tripow.cli import BENCH_HEADER, main as cli_main
from tripow.families import (
    FAMILY_A,
    FAMILY_ADAGGER,
    FAMILY_ANTI,
    FamilySpec,
    build_exchange,
    build_matrix,
)
from tripow.fibpoly import fib_det_check, fib_factor_eval, fib_poly_eval
from tripow.linalg import mat_identity, mat_norm_maxabs, oracle_power
from tripow.powers import (
    ExtendedDomainWarning,
    power_entry_anti,
    power_matrix,
    power_verify,
)
from tripow.spectral import decompose

from helpers import random_params


def _oracle_scale(m, s):
    """max(1, max|O|) for the brute-force oracle O = m**s of power_verify."""
    return max(1.0, mat_norm_maxabs(oracle_power(m, s)))


def _report(number, label):
    print(f"criterion {number:2d} PASS: {label}")


def test_criterion_01_cube_pattern_regression():
    """Closed-form cubes of the 3x3 family match the symbolic entry pattern."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(10):
        a, b = random_params(rng)
        x = a**3 + 6 * a * b**2
        y = 3 * a**2 * b + 4 * b**3
        z = 3 * a * b**2
        q = a**3 + 12 * a * b**2
        expected = np.array([[x, 2 * y, 4 * z], [y, q, 2 * y], [z, y, x]])
        got = power_matrix(FamilySpec(FAMILY_A, 3, a, b), 3).matrix
        bound = 1e-9 * (1 + mat_norm_maxabs(expected))
        assert mat_norm_maxabs(got - expected) <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"cube pattern, 10 random parameter pairs, {elapsed:.3f}s")


def test_criterion_02_negative_cube_regression():
    """The inverse cube at n=4, a=1, b=2 matches the 3-decimal reference."""
    start = time.perf_counter()
    reference = (
        np.array(
            [
                [-326, 361, 311, -676],
                [180, -170, -158, 311],
                [156, -158, -170, 361],
                [-169, 156, 180, -326],
            ],
            dtype=float,
        )
        / 1000.0
    )
    got = power_matrix(FamilySpec(FAMILY_A, 4, 1.0, 2.0), -3).matrix
    assert mat_norm_maxabs(got - reference) < 5e-4
    # the reference rounds an exact value whose (1,1) entry is -3299/10125
    assert abs(got[0, 0] - (-3299 / 10125)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"negative cube 3-decimal regression, {elapsed:.3f}s")


def test_criterion_03_fourth_power_pattern_regression():
    """Closed-form fourth powers of the 3x3 alternating family match symbols.

    The (2,2) symbol is a**4 + 12 a**2 b**2 + 4 b**4, confirmed by direct
    hand multiplication of the matrix square.
    """
    rng = np.random.default_rng(103)
    for _ in range(10):
        a, b = random_params(rng)
        x = a**4 + 6 * a**2 * b**2 + 2 * b**4
        y = 4 * a**3 * b + 8 * a * b**3
        z = -6 * a**2 * b**2 - 2 * b**4
        q = a**4 + 12 * a**2 * b**2 + 4 * b**4
        expected = np.array([[x, y, z], [y, q, -y], [z, -y, x]])
        got = power_matrix(FamilySpec(FAMILY_ADAGGER, 3, a, b), 4).matrix
        bound = 1e-9 * (1 + mat_norm_maxabs(expected))
        assert mat_norm_maxabs(got - expected) <= bound
    _report(3, "alternating-family fourth-power pattern, 10 random pairs")


def test_criterion_04_integer_matrix_regression():
    """The n=4, a=1, b=4 fourth power equals the printed integer matrix."""
    expected = np.array(
        [
            [609, 528, -864, -256],
            [528, 1473, -784, -864],
            [-864, -784, 1473, 528],
            [-256, -864, 528, 609],
        ],
        dtype=float,
    )
    got = power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1.0, 4.0), 4).matrix
    assert mat_norm_maxabs(got - expected) < 1e-6
    _report(4, "integer fourth-power regression")


def test_criterion_05_negative_fifth_power_regression():
    """The n=4, a=i, b=1 inverse fifth power matches the 3-decimal reference."""
    reference = (
        np.array(
            [
                [296j, 56, 192j, 128],
                [56, 104j, 72, 192j],
                [192j, 72, 104j, 56],
                [128, 192j, 56, 296j],
            ]
        )
        / 1000.0
    )
    got = power_matrix(FamilySpec(FAMILY_ADAGGER, 4, 1j, 1.0), -5).matrix
    assert mat_norm_maxabs(got - reference) < 5e-4
    _report(5, "negative fifth-power 3-decimal regression")


def test_criterion_06_oracle_equivalence_suite():
    """200 randomized cases across all families agree with the brute force."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    families = (FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI)
    cases = 0
    negative_cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtendedDomainWarning)
        while cases < 200:
            family = families[cases % 3]
            if family == FAMILY_A:
                n = int(rng.integers(2, 13))
            elif family == FAMILY_ANTI:
                n = 2 * int(rng.integers(1, 7))
            else:
                n = int(rng.integers(1, 13))
            spec = FamilySpec(family, n, *random_params(rng))
            min_eig = float(np.abs(decompose(spec).eigenvalues).min())
            # cases % 4 drifts across the family cycle, so every family sees
            # negative exponents when its eigenvalues stay away from zero
            if cases % 4 == 0 and min_eig >= 0.35:
                s = -int(rng.integers(1, 5))
                negative_cases += 1
            else:
                s = int(rng.integers(0, 7))
            m = build_matrix(spec)
            tol = 1e-8 * (1 + mat_norm_maxabs(m) ** s)
            # power_verify divides max|C - O| by max(1, max|O|); dividing tol
            # by the same scale keeps tol a bound on the absolute residual
            power_verify(spec, s, tol=tol / _oracle_scale(m, s))
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert negative_cases > 10
    _report(6, f"200 oracle-equivalence cases ({negative_cases} negative powers), {elapsed:.1f}s")


def test_criterion_07_spectral_closure_suite():
    """Closure and reconstruction hold for every family and dimension."""
    rng = np.random.default_rng(107)
    mu_path = eta_path = beta_path = 0
    specs = []
    for n in range(2, 13):
        specs.append(FamilySpec(FAMILY_A, n, *random_params(rng)))
    for n in range(1, 13):
        specs.append(FamilySpec(FAMILY_ADAGGER, n, *random_params(rng)))
    for n in range(2, 13, 2):
        specs.append(FamilySpec(FAMILY_ANTI, n, *random_params(rng)))
    for spec in specs:
        data = decompose(spec)
        closure = mat_norm_maxabs(data.vec_matrix @ data.inv_matrix - mat_identity(spec.n))
        assert closure < 1e-9
        target = (
            spec
            if spec.family != FAMILY_ANTI
            else FamilySpec(FAMILY_ADAGGER, spec.n, spec.a, spec.b)
        )
        m = build_matrix(target)
        rebuilt = (data.vec_matrix * data.eigenvalues[None, :]) @ data.inv_matrix
        assert mat_norm_maxabs(rebuilt - m) < 1e-8 * mat_norm_maxabs(m)
        if spec.family == FAMILY_A:
            beta_path += 1
            # last-row prefactor: the bottom row must reconstruct as well
            assert np.abs(rebuilt[-1] - m[-1]).max() < 1e-8 * mat_norm_maxabs(m)
        elif spec.n % 2 == 1:
            mu_path += 1
        else:
            eta_path += 1
    assert beta_path and mu_path and eta_path
    _report(
        7,
        f"closure/reconstruction over {len(specs)} decompositions "
        f"({beta_path} beta/gamma, {mu_path} mu, {eta_path} eta)",
    )


def test_criterion_08_anti_tridiagonal_parity_law():
    """Entrywise anti powers obey the exchange parity split; commutation exact."""
    rng = np.random.default_rng(108)
    for n in range(2, 13, 2):
        a, b = random_params(rng, scale=2.0)
        anti = FamilySpec(FAMILY_ANTI, n, a, b)
        twin = FamilySpec(FAMILY_ADAGGER, n, a, b)
        twin_matrix = build_matrix(twin)
        exchange = build_exchange(n)
        assert mat_norm_maxabs(
            exchange @ twin_matrix - twin_matrix @ exchange
        ) == 0.0
        data = decompose(anti)
        for s in range(0, 7):
            twin_power = power_matrix(twin, s).matrix
            expected = twin_power if s % 2 == 0 else exchange @ twin_power
            got = np.array(
                [
                    [power_entry_anti(data, s, i, j) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
            )
            assert mat_norm_maxabs(got - expected) < 1e-9
    _report(8, "anti-tridiagonal parity law, even n up to 12, s up to 6")


def test_criterion_09_fibonacci_identities():
    """Determinant identity and division-free factorization, plus integers."""
    rng = np.random.default_rng(109)
    for n in range(3, 13):
        samples = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(20)]
        for x in samples:
            lhs, rhs = fib_det_check(n, x)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))
        for x in samples + [2j, -2j]:
            expected = fib_poly_eval(n - 1, x)
            assert abs(fib_factor_eval(n, x) - expected) < 1e-8 * (1 + abs(expected))
    prev, cur = 0, 1
    for n in range(41):
        assert fib_poly_eval(n, 1.0) == prev
        prev, cur = cur, prev + cur
    _report(9, "determinant identity, factorization incl. poles, integer values")


def test_criterion_10_benchmark_contract():
    """The bench table completes at n=256, s=4096 and control residuals hold."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(
            ["bench", "--family", "a", "--n", "64,256", "--s", "8,4096", "--seed", "7"]
        )
    assert code == 0
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == ",".join(BENCH_HEADER)
    assert lines[0] == "family,n,s,method,wall_nanos,residual_vs_oracle"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8  # 2 sizes x 2 exponents x 2 methods: the run completed
    control = [r for r in rows if r[1] == "64" and r[2] == "8" and r[3] == "closed_form"]
    assert len(control) == 1
    assert float(control[0][5]) < 1e-6
    big = [r for r in rows if r[1] == "256" and r[2] == "4096" and r[3] == "closed_form"]
    assert len(big) == 1 and int(big[0][4]) > 0
    _report(10, "bench CSV contract and n=256, s=4096 completion")


CRITERIA = [
    test_criterion_01_cube_pattern_regression,
    test_criterion_02_negative_cube_regression,
    test_criterion_03_fourth_power_pattern_regression,
    test_criterion_04_integer_matrix_regression,
    test_criterion_05_negative_fifth_power_regression,
    test_criterion_06_oracle_equivalence_suite,
    test_criterion_07_spectral_closure_suite,
    test_criterion_08_anti_tridiagonal_parity_law,
    test_criterion_09_fibonacci_identities,
    test_criterion_10_benchmark_contract,
]


def run_all():
    failures = 0
    for number, criterion in enumerate(CRITERIA, start=1):
        try:
            criterion()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"criterion {number:2d} FAIL: {exc}")
    return failures


if __name__ == "__main__":
    raise SystemExit(1 if run_all() else 0)
