"""Command-line interface: output formats, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tripow.cli
import tripow.spectral
from tripow.cli import BENCH_HEADER, format_complex, main, parse_complex
from tripow.families import FAMILIES, FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI, FamilySpec, build_matrix
from tripow.linalg import mat_norm_maxabs, oracle_power
from tripow.powers import (
    ExtendedDomainWarning,
    PowerResult,
    VerificationError,
    power_matrix,
    power_verify,
)


def reference_draw(rng, family):
    """The suite's spec draw with one n branch per family, as first written."""
    if family == FAMILY_A:
        n = int(rng.integers(2, 13))
    elif family == FAMILY_ANTI:
        n = int(rng.integers(1, 7)) * 2
    else:
        n = int(rng.integers(1, 13))
    while True:
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(b) >= 0.25:
            return FamilySpec(family, n, a, b)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def absolute_residual(spec, s):
    """max|C - O| for the closed form C and the oracle O of power_verify."""
    oracle = oracle_power(build_matrix(spec), s)
    return mat_norm_maxabs(power_matrix(spec, s).matrix - oracle)


def _refuse(*args):
    raise AssertionError("decompose must not run")


# Reference writers: one dict or one format call per entry, then json.dumps or
# csv.writer, as the matrix output was written before distinct floats were
# formatted once.  The CLI's text must equal theirs byte for byte.
def reference_entries(matrix):
    matrix = np.asarray(matrix)
    return [
        [{"re": re, "im": im} for re, im in zip(re_row, im_row)]
        for re_row, im_row in zip(matrix.real.tolist(), matrix.imag.tolist())
    ]


def reference_cells(matrix):
    return [[f"{c['re']!r}{c['im']:+}i" for c in row] for row in reference_entries(matrix)]


def reference_pretty(matrix):
    cells = reference_cells(matrix)
    width = max(len(c) for row in cells for c in row)
    return "".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]\n" for row in cells)


def reference_power_text(result, fmt):
    if fmt == "json":
        payload = {
            "family": result.spec.family,
            "n": result.spec.n,
            "s": result.exponent,
            "path": result.path,
            "entries": reference_entries(result.matrix),
        }
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f"c{j + 1}" for j in range(result.spec.n)])
        for row in reference_cells(result.matrix):
            writer.writerow(row)
        return out.getvalue()
    head = (
        f"family={result.spec.family} n={result.spec.n} s={result.exponent} "
        f"path={result.path}\n"
    )
    return head + reference_pretty(result.matrix)


def assert_loads_bit_identical(rows, matrix):
    """rows, json.loads of a matrix's text, hold the matrix's float bits."""
    got = np.array([[complex(c["re"], c["im"]) for c in row] for row in rows])
    expected = np.asarray(matrix, dtype=np.complex128)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def emitted_power_text(result, fmt):
    out = io.StringIO()
    tripow.cli._emit_power(result, fmt, out)
    return out.getvalue()


# Every float of the matrix in both parts: both zeros, the smallest subnormal,
# a value near the normal limit, values whose repr switches to exponent form
# (1e-05, 1e+16) and one that repr rounds to 17 digits.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2e-308, 0.1, 1.0, 1e-5, 1e16, -1e308, 123456789012345678.0)


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1+0i", 1 + 0j),
            ("-2.5+0.5i", -2.5 + 0.5j),
            ("0+1i", 1j),
            ("3.25-4e-2i", 3.25 - 0.04j),
            ("-0.5-1.5i", -0.5 - 1.5j),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["1", "1+i", "i", "1 + 0i", "1+0j", "", "one+0i"])
    def test_invalid(self, text):
        with pytest.raises(Exception):
            parse_complex(text)

    def test_round_trip(self):
        for z in (1 + 0j, -2.5 + 0.5j, 3e-7 - 1.25j):
            assert parse_complex(format_complex(z)) == z


# A complete command line of each subcommand, and its complex-literal option.
VALID_ARGV = {
    "power": ["--family", "a", "--n", "3", "--a", "1+0i", "--b", "1+0i", "--s", "2"],
    "eigen": ["--family", "a", "--n", "3", "--a", "1+0i", "--b", "1+0i", "--vectors"],
    "verify": ["--family", "a", "--n", "3", "--a", "1+0i", "--b", "1+0i", "--s", "2"],
    "fib": ["--n", "3", "--x", "1+0i"],
    "bench": ["--family", "a", "--n", "3,4", "--s", "2"],
}
LITERAL_OPTION = {"fib": "--x"}


def parse_outcome(parser, argv, capsys):
    """vars of the parsed namespace, or the exit code, stdout and stderr."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


class TestParsers:
    """The parser of one named subcommand acts as the one with all five."""

    @pytest.mark.parametrize("command", list(VALID_ARGV))
    def test_narrow_parser_matches_the_full_one(self, capsys, command):
        valid = VALID_ARGV[command]
        # (argv, exit code); None where the command line parses.
        cases = [
            ([command, *valid], None),
            ([command, "-h"], 0),
            # Drops the first required option.  verify requires none, and
            # cmd_verify refuses the namespace that both parsers return.
            ([command, *valid[2:]], None if command == "verify" else 2),
            ([command, *valid, "--family", "b"], 2),
            ([command, *valid, LITERAL_OPTION.get(command, "--a"), "1+i"], 2),
            ([command, *valid, "--bogus"], 2),
        ]
        for argv, code in cases:
            narrow = parse_outcome(tripow.cli._build_parser(argv), argv, capsys)
            full = parse_outcome(tripow.cli._build_parser([]), argv, capsys)
            assert narrow == full, argv
            if code is not None:
                assert narrow[0] == code, argv

    def test_narrow_parser_knows_only_its_subcommand(self, capsys):
        code, _, err = parse_outcome(tripow.cli._build_parser(["power"]), ["eigen"], capsys)
        assert code == 2 and "invalid choice" in err

    @pytest.mark.parametrize(
        "argv,code,stream",
        [([], 2, "err"), (["-h"], 0, "out"), (["powr"], 2, "err")],
    )
    def test_top_level_lists_every_subcommand(self, capsys, argv, code, stream):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        text = captured.out if stream == "out" else captured.err
        assert exit_info.value.code == code
        assert text.splitlines()[0] == "usage: tripow [-h] {power,eigen,verify,fib,bench} ..."
        if argv == ["powr"]:
            assert "invalid choice" in captured.err and "powr" in captured.err


class TestPowerCommand:
    def test_json_known_cube(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "a", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--s", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "a"
        assert payload["n"] == 3
        assert payload["s"] == 3
        assert payload["path"] == "closed-form-A"
        matrix = np.array([[complex(c["re"], c["im"]) for c in row] for row in payload["entries"]])
        np.testing.assert_allclose(matrix, [[7, 14, 12], [7, 13, 14], [3, 7, 7]], atol=1e-9)

    def test_json_round_trip_is_bit_identical(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "adagger", "--n", "5", "--a", "0.3+0.7i",
            "--b=-1.25+0.5i", "--s", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        reparsed = np.array(
            [[complex(c["re"], c["im"]) for c in row] for row in payload["entries"]]
        )
        direct = power_matrix(FamilySpec("adagger", 5, 0.3 + 0.7j, -1.25 + 0.5j), 4).matrix
        np.testing.assert_array_equal(reparsed, direct)

    def test_integer_regression_via_cli(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "adagger", "--n", "4", "--a", "1+0i",
            "--b", "4+0i", "--s", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        matrix = np.array([[complex(c["re"], c["im"]) for c in row] for row in payload["entries"]])
        expected = [
            [609, 528, -864, -256],
            [528, 1473, -784, -864],
            [-864, -784, 1473, 528],
            [-256, -864, 528, 609],
        ]
        np.testing.assert_allclose(matrix, expected, atol=1e-6)

    def test_zeroth_power_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "a", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--s", "0", "--format", "json",
        )
        assert code == 0
        matrix = np.array(
            [[complex(c["re"], c["im"]) for c in row] for row in json.loads(out)["entries"]]
        )
        np.testing.assert_array_equal(matrix, np.eye(3))

    def test_csv_output_parses_back(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "a", "--n", "2", "--a", "1+0i",
            "--b", "0.5+0i", "--s", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2"
        values = [[parse_complex(cell) for cell in line.split(",")] for line in lines[1:]]
        direct = power_matrix(FamilySpec("a", 2, 1.0, 0.5), 2).matrix
        np.testing.assert_array_equal(np.array(values), direct)

    def test_csv_prints_exact_zeros_outside_the_band(self, capsys):
        # The first power of the matrix itself: row 1 is zero from column 3
        # on, and row 2 from column 4, not rounding noise.
        code, out, _ = run_cli(
            capsys, "power", "--family", "adagger", "--n", "7", "--a", "1+0i",
            "--b", "1+0i", "--s", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split(",")[2:] == ["0.0+0.0i"] * 5
        assert lines[2].split(",")[3:] == ["0.0+0.0i"] * 4

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--family", "a", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--s", "3",
        )
        assert code == 0
        assert "family=a n=3 s=3 path=closed-form-A" in out

    def test_anti_odd_dimension_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--family", "anti", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--s", "2",
        )
        assert code == 2
        assert out == ""
        assert "even n" in err

    def test_overflow_exits_one_with_empty_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--family", "a", "--n", "3", "--a", "2+0i",
            "--b", "1+0i", "--s", "2000", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "params",
        [
            ("--family", "a", "--n", "4", "--a", "0.01+0i", "--b", "0.001+0i", "--s", "400"),
            ("--family", "adagger", "--n", "4", "--a", "1000+0i", "--b", "100+0i", "--s=-120"),
        ],
    )
    def test_underflow_exits_one_with_empty_stdout(self, capsys, params):
        code, out, err = run_cli(capsys, "power", *params)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflows below" in err
        assert len(err.splitlines()) == 1
        # The refusal gives the true magnitude, a nonzero mantissa times 2**E.
        mantissa, exponent = re.search(r"modulus (\S+) \* 2\*\*(-?\d+) underflows", err).groups()
        assert float(mantissa) > 0 and int(exponent) < -1000

    def test_reciprocal_beyond_float_is_refused_with_its_magnitude(self, capsys):
        # 1/a = 1e309 does not fit a float, so the reciprocal is taken of
        # the unit-scaled eigenvalue; the largest generator entry is
        # 1e309 / 2, whose log2 is 309 log2(10) - 1.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            code, out, err = run_cli(
                capsys, "power", "--family", "adagger", "--n", "1", "--a", "1e-309+0i",
                "--b", "1+0i", "--s=-1",
            )
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        mantissa, exponent = re.search(
            r"modulus (\S+) \* 2\*\*(-?\d+) is not finite", errors[0]
        ).groups()
        assert 0.0 < float(mantissa) < np.inf
        log2_modulus = math.log2(float(mantissa)) + int(exponent)
        assert abs(log2_modulus - (309 * math.log2(10) - 1)) < 0.01

    def test_smallest_power_above_the_underflow_is_printed(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--family", "a", "--n", "4", "--a", "0.01+0i",
            "--b", "0.001+0i", "--s", "150", "--format", "csv",
        )
        assert code == 0
        assert err == ""
        assert "e-289" in out

    def test_bad_literal_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["power", "--family", "a", "--n", "3", "--a", "1+i", "--b", "1+0i", "--s", "2"])
        assert exit_info.value.code == 2


class TestEigenCommand:
    def test_integer_eigenvalues(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "a", "--n", "4", "--a", "1+0i",
            "--b", "2+0i", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        values = [complex(v["re"], v["im"]) for v in payload["eigenvalues"]]
        np.testing.assert_allclose(values, [5, 3, -1, -3], atol=1e-12)

    def test_single_dimension(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "adagger", "--n", "1", "--a", "5+0i",
            "--b", "9+0i", "--format", "json",
        )
        assert code == 0
        values = json.loads(out)["eigenvalues"]
        assert values[0]["re"] == pytest.approx(5.0)
        assert values[0]["im"] == pytest.approx(0.0)

    def test_surd_eigenvalues(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "adagger", "--n", "3", "--a", "0+0i",
            "--b", "1+0i", "--format", "json",
        )
        assert code == 0
        values = [complex(v["re"], v["im"]) for v in json.loads(out)["eigenvalues"]]
        root2 = np.sqrt(2.0)
        np.testing.assert_allclose(values, [-root2, 0.0, root2], atol=1e-12)

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "a", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "k,eigenvalue,node"

    def test_vectors_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "a", "--n", "3", "--a", "0+0i",
            "--b", "1+0i", "--format", "json", "--vectors",
        )
        assert code == 0
        vectors = json.loads(out)["vectors"]
        top_row = [complex(c["re"], c["im"]) for c in vectors[0]]
        assert top_row == [1, 1, 1]

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_anti_vectors_and_eigenvalues_diagonalize_the_matrix(self, capsys, n):
        a, b = 0.3 - 1.1j, -0.7 + 0.4j
        code, out, _ = run_cli(
            capsys, "eigen", "--family", "anti", "--n", str(n),
            f"--a={format_complex(a)}", f"--b={format_complex(b)}", "--vectors",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        mu = np.array([complex(v["re"], v["im"]) for v in payload["eigenvalues"]])
        vectors = np.array([[complex(c["re"], c["im"]) for c in row] for row in payload["vectors"]])
        m = build_matrix(FamilySpec("anti", n, a, b))
        residual = mat_norm_maxabs(m @ vectors - vectors * mu)
        assert residual <= 1e-13 * mat_norm_maxabs(m) * mat_norm_maxabs(vectors)

    def test_vectors_in_csv_is_a_usage_error_before_any_work(self, capsys, monkeypatch):
        # The CSV rows hold eigenvalues and nodes only, so --vectors would be
        # paid for by decompose's O(n**3) closure check and then dropped.
        for name in ("FamilySpec", "eigenvalues", "decompose"):
            monkeypatch.setattr(tripow.cli, name, _refuse)
        code, out, err = run_cli(
            capsys, "eigen", "--family", "a", "--n", "3", "--a", "1+0i",
            "--b", "1+0i", "--vectors", "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == "error: --vectors has no CSV form; use --format json or pretty\n"

    def test_values_skip_decompose_and_vectors_keep_the_closure_check(self, capsys, monkeypatch):
        argv = ("eigen", "--family", "a", "--n", "5", "--a", "1+0i", "--b", "1+0i", "--format", "json")
        expected = run_cli(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr(tripow.cli, "decompose", _refuse)
            assert run_cli(capsys, *argv) == expected
        weights = tripow.spectral._row_weights
        monkeypatch.setattr(tripow.spectral, "_row_weights", lambda family, n: 2 * weights(family, n))
        assert run_cli(capsys, *argv) == expected
        code, out, err = run_cli(capsys, *argv, "--vectors")
        assert (code, out) == (1, "")
        assert "closure" in err


class TestMatrixText:
    def edge_result(self):
        values = np.array(EDGE_FLOATS + tuple(-v for v in EDGE_FLOATS))
        matrix = np.empty((values.size, values.size), dtype=np.complex128)
        matrix.real = values[:, None]
        matrix.imag = values[None, :]
        return PowerResult(FamilySpec(FAMILY_A, values.size, 1.0, 1.0), 1, matrix, "closed-form-A")

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_edge_floats_match_the_reference_writers(self, fmt):
        result = self.edge_result()
        assert emitted_power_text(result, fmt) == reference_power_text(result, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize(
        "rows",
        [
            # n = 1: the only entry is in the last column.
            [[complex(0.1, -2.0)]],
            # n = 2: one entry per column kind.
            [[complex(1.0, 0.5), complex(-0.0, 1e16)], [complex(0.0, 5e-324), complex(2.0, 0.0)]],
            # One distinct float in both parts.
            [[complex(0.5, 0.5)] * 3] * 3,
            # Both zeros in both parts.
            [[complex(0.0, -0.0), complex(-0.0, 0.0)], [complex(-0.0, -0.0), complex(0.0, 0.0)]],
        ],
    )
    def test_small_matrices_match_the_reference_writers(self, fmt, rows):
        matrix = np.array(rows, dtype=np.complex128)
        spec = FamilySpec(FAMILY_ADAGGER, len(rows), 1.0, 1.0)
        result = PowerResult(spec, 1, matrix, "closed-form-ADagger-odd")
        text = emitted_power_text(result, fmt)
        assert text == reference_power_text(result, fmt)
        if fmt == "json":
            assert_loads_bit_identical(json.loads(text)["entries"], matrix)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize(
        "family,n",
        [(f, n) for f in FAMILIES for n in (2, 3, 16, 64) if not (f == FAMILY_ANTI and n % 2)],
    )
    def test_powers_match_the_reference_writers(self, capsys, fmt, family, n):
        a, b = 0.3 + 0.7j, -1.25 + 0.5j
        for s in (0, 5):
            code, out, _ = run_cli(
                capsys, "power", "--family", family, "--n", str(n), f"--a={format_complex(a)}",
                f"--b={format_complex(b)}", f"--s={s}", "--format", fmt,
            )
            assert code == 0
            result = power_matrix(FamilySpec(family, n, a, b), s)
            assert out == reference_power_text(result, fmt)
            # An odd "anti" power is its twin's rows reversed, a view that
            # the writers read in place: the text of a contiguous copy.
            copy = dataclasses.replace(result, matrix=np.ascontiguousarray(result.matrix))
            assert out == emitted_power_text(copy, fmt)

    @pytest.mark.parametrize(
        "family,n",
        [
            pytest.param(f, n, id=f if n == 6 else f"{f}-{n}")
            for f in FAMILIES
            for n in (6, 2, 1)
            if n % 2 == 0 or f == FAMILY_ADAGGER
        ],
    )
    def test_eigen_vectors_match_the_reference_writers(self, capsys, family, n):
        argv = ("eigen", "--family", family, "--n", str(n), "--a", "0.3+0.7i", "--b", "1-0.5i")
        vectors = tripow.spectral.decompose(FamilySpec(family, n, 0.3 + 0.7j, 1 - 0.5j)).vec_matrix
        _, values_json, _ = run_cli(capsys, *argv, "--format", "json")
        _, vectors_json, _ = run_cli(capsys, *argv, "--format", "json", "--vectors")
        expected = {**json.loads(values_json), "vectors": reference_entries(vectors)}
        assert vectors_json == json.dumps(expected) + "\n"
        assert_loads_bit_identical(json.loads(vectors_json)["vectors"], vectors)
        _, values_pretty, _ = run_cli(capsys, *argv)
        _, vectors_pretty, _ = run_cli(capsys, *argv, "--vectors")
        expected = "eigenvector matrix (columns are eigenvectors):\n" + reference_pretty(vectors)
        assert vectors_pretty == values_pretty + expected

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_raises_before_printing(self, fmt, bad):
        for part in ("real", "imag"):
            result = self.edge_result()
            getattr(result.matrix, part)[3, 4] = bad
            out = io.StringIO()
            with pytest.raises(ValueError, match="non-finite"):
                tripow.cli._emit_power(result, fmt, out)
            assert out.getvalue() == ""


class TestVerifyCommand:
    def test_single_case_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--family", "adagger", "--n", "7", "--a", "0+1i",
            "--b", "2+0i", "--s", "3",
        )
        assert code == 0
        assert "ok" in out
        assert err == ""
        assert absolute_residual(FamilySpec("adagger", 7, 1j, 2.0), 3) <= 1e-8

    def test_large_correct_result_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--family", "a", "--n", "16", "--a", "3+0i",
            "--b", "1+0i", "--s", "40", "--format", "csv",
        )
        assert code == 0, err
        residual = float(out.splitlines()[1].split(",")[6])
        assert residual < 1e-8

    def test_power_beyond_float_eigenvalue_powers_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--family", "a", "--n", "16", "--a", "3+0i",
            "--b", "1+0i", "--s", "442",
        )
        assert code == 0, err
        assert "ok" in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_oracle_overflow_exits_one_with_empty_stdout(self, capsys, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "verify", "--family", "adagger", "--n", "4",
                "--a=25391.511504189668+0i", "--b=25391.511504189668+0i", "--s", "64",
                "--format", fmt,
            )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the dense oracle power overflows")

    def test_breach_reports_the_relative_residual(self, capsys):
        spec = FamilySpec("a", 4, 1.5, 0.5)
        with pytest.raises(VerificationError) as err:
            power_verify(spec, 3, tol=0.0)
        code, out, _ = run_cli(
            capsys, "verify", "--family", "a", "--n", "4", "--a", "1.5+0i",
            "--b", "0.5+0i", "--s", "3", "--tol", "0", "--format", "csv",
        )
        assert code == 1
        assert float(out.splitlines()[1].split(",")[6]) == err.value.residual

    def test_pretty_row_and_breach_line_name_the_case(self, capsys):
        spec = FamilySpec("a", 4, 1.5, 0.5)
        with pytest.raises(VerificationError) as refused:
            power_verify(spec, 3, tol=0.0)
        case = f"family=a n=4 a=1.5+0.0i b=0.5+0.0i s=3 residual={refused.value.residual:.3e}"
        code, out, err = run_cli(
            capsys, "verify", "--family", "a", "--n", "4", "--a", "1.5+0i",
            "--b", "0.5+0i", "--s", "3", "--tol", "0",
        )
        assert code == 1
        assert out.splitlines()[0] == f"FAIL  power      {case}"
        assert err == f"residual breach: {case} tol=0\n"

    def test_singular_case_exits_one(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            code, _, err = run_cli(
                capsys, "verify", "--family", "a", "--n", "3", "--a", "0+0i",
                "--b", "1+0i", "--s", "-1",
            )
        assert code == 1
        assert "k=2" in err

    def test_domain_warning_names_the_caller(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(
                capsys, "verify", "--family", "adagger", "--n", "5", "--a", "3+0i",
                "--b", "1+0i", "--s", "-2",
            )
        assert code == 0
        assert [w.category for w in caught] == [ExtendedDomainWarning]
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("tol", ["nan", "-1e-8"])
    @pytest.mark.parametrize("case", [
        ("--family", "a", "--n", "4", "--a", "1+0i", "--b", "1+0i", "--s", "3"),
        ("--suite",),
    ])
    def test_tolerance_no_residual_can_fail_exits_two(self, capsys, case, tol):
        code, out, err = run_cli(capsys, "verify", *case, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol must be a non-negative number")
        assert len(err.splitlines()) == 1

    def test_missing_arguments_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "a", "--n", "3")
        assert code == 2
        assert "--suite" in err

    @pytest.mark.parametrize("options,named", [
        (("--family", "a", "--n", "5"), "--family, --n"),
        (("--s", "3",), "--s"),
        (("--family", "anti", "--n", "4", "--a", "1+0i", "--b", "1+0i", "--s", "2"),
         "--family, --n, --a, --b, --s"),
    ])
    def test_suite_refuses_single_case_options(self, capsys, options, named):
        code, out, err = run_cli(capsys, "verify", "--suite", *options)
        assert code == 2
        assert out == ""
        assert err == f"error: --suite runs the seeded suite and takes no single-case options (got {named})\n"

    @pytest.mark.parametrize("case", [
        ("--family", "adagger", "--n", "7", "--a", "0+1i", "--b", "2+0i", "--s", "3"),
        ("--suite", "--seed", "0"),
    ])
    def test_json_cases_match_the_csv_rows(self, capsys, case):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            code, out, err = run_cli(capsys, "verify", *case, "--format", "json")
            csv_code, csv_out, _ = run_cli(capsys, "verify", *case, "--format", "csv")
        assert code == 0 and csv_code == 0, err
        payload = json.loads(out)
        assert list(payload) == ["pass", "max_residual", "cases"]
        assert payload["pass"] is True
        cases = payload["cases"]
        assert payload["max_residual"] == max(row["residual"] for row in cases)
        keys = list(tripow.cli._row("power", FamilySpec("a", 2, 0j, 1j), 0, 0.0, 0.0, True))
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(cases) == len(rows)
        for got, row in zip(cases, rows):
            assert list(got) == keys
            for key in ("a", "b"):
                assert list(got[key]) == ["re", "im"]
                assert complex(got[key]["re"], got[key]["im"]) == parse_complex(row[key])
            assert [got["check"], got["family"], str(got["n"]), str(got["s"])] == [
                row["check"], row["family"], row["n"], row["s"],
            ]
            assert (got["residual"], got["tol"]) == (float(row["residual"]), float(row["tol"]))
            assert got["pass"] is True and row["pass"] == "true"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_suite_draws_equal_the_family_branches(self, family):
        # The n domain is read from the family's rule; the suite's draws, and
        # so its output, are those of one branch per family.
        for seed in range(200):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            assert tripow.cli._draw_spec(rng, family) == reference_draw(reference, family)
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_suite_passes_and_is_deterministic(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            code1, out1, _ = run_cli(
                capsys, "verify", "--suite", "--seed", "42", "--tol", "1e-8", "--format", "csv"
            )
            code2, out2, _ = run_cli(
                capsys, "verify", "--suite", "--seed", "42", "--tol", "1e-8", "--format", "csv"
            )
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header == "check,family,n,a,b,s,residual,tol,pass"
        # the residual column is relative; each power case also holds the
        # absolute bound 1e-8
        powers = [row for row in csv.DictReader(io.StringIO(out1)) if row["check"] == "power"]
        assert powers
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtendedDomainWarning)
            for row in powers:
                spec = FamilySpec(
                    row["family"], int(row["n"]), parse_complex(row["a"]), parse_complex(row["b"])
                )
                assert absolute_residual(spec, int(row["s"])) <= 1e-8, row


class TestFibCommand:
    def test_integer_point(self, capsys):
        code, out, _ = run_cli(capsys, "fib", "--n", "6", "--x", "1+0i", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["recurrence"]["re"] == pytest.approx(5.0)
        assert abs(complex(payload["factorization"]["re"], payload["factorization"]["im"]) - 5.0) < 1e-10
        assert payload["factorization_residual"] < 1e-10

    def test_determinant_pair(self, capsys):
        code, out, _ = run_cli(capsys, "fib", "--n", "3", "--x", "2+0i", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["det_lhs"]["re"] == pytest.approx(16.0)
        assert payload["det_rhs"]["re"] == pytest.approx(16.0)

    def test_pole_argument(self, capsys):
        code, out, _ = run_cli(capsys, "fib", "--n", "5", "--x", "0+2i", "--format", "json")
        assert code == 0
        assert json.loads(out)["factorization_residual"] < 1e-9

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_values_beyond_float_exit_one_with_empty_stdout(self, capsys, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fib", "--n", "400", "--x", "1e3+0i", "--format", fmt)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: fib n=400") and "not finite" in err

    @pytest.mark.parametrize("x", ["1e400+0i", "0-1e400i"])
    def test_non_finite_x_is_named(self, capsys, x):
        # The determinant side builds a family-"a" matrix with a = x, whose
        # own refusal names a and b, options that fib does not have.
        code, out, err = run_cli(capsys, "fib", "--n", "5", f"--x={x}")
        assert code == 2
        assert out == ""
        assert err == f"error: x must be finite, got {parse_complex(x)}\n"

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_small_order_exits_two(self, capsys, n):
        code, out, err = run_cli(capsys, "fib", f"--n={n}", "--x", "1+0i")
        assert code == 2
        assert out == ""
        assert err == "error: n must be at least 3\n"

    @pytest.mark.parametrize("fmt", ["csv", "pretty"])
    def test_text_formats_carry_the_json_values(self, capsys, fmt):
        argv = ("fib", "--n", "7", "--x", "0.5-1.5i")
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert err == ""
        fields = {
            key: complex(value["re"], value["im"]) if isinstance(value, dict) else value
            for key, value in json.loads(json_out).items()
        }
        if fmt == "csv":
            header, values = list(csv.reader(io.StringIO(out)))
            assert header == list(fields)
            for key, text in zip(header, values):
                value = fields[key]
                assert (parse_complex(text) if isinstance(value, complex) else type(value)(text)) == value, key
            return
        assert out.splitlines() == [
            "n=7 x=0.5-1.5i",
            f"  value by recurrence:    {format_complex(fields['recurrence'])}",
            f"  value by factorization: {format_complex(fields['factorization'])}  "
            f"(residual {fields['factorization_residual']:.3e})",
            f"  determinant:            {format_complex(fields['det_lhs'])}",
            f"  identity right side:    {format_complex(fields['det_rhs'])}  "
            f"(residual {fields['determinant_residual']:.3e})",
        ]


class TestBenchCommand:
    def test_csv_contract(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--family", "a", "--n", "8,12", "--s", "2,4", "--seed", "7"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(BENCH_HEADER)
        assert len(lines) == 1 + 8  # 2 sizes x 2 exponents x 2 methods
        for line in lines[1:]:
            family, n, s, method, nanos, residual = line.split(",")
            assert family == "a"
            assert method in ("closed_form", "binary_pow")
            assert int(nanos) >= 0
            assert float(residual) < 1e-6

    def test_deterministic_modulo_timings(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "bench", "--family", "adagger", "--n", "6", "--s", "3", "--seed", "11"
        )
        code2, out2, _ = run_cli(
            capsys, "bench", "--family", "adagger", "--n", "6", "--s", "3", "--seed", "11"
        )
        assert code1 == 0 and code2 == 0

        def strip_timing(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            return [row[:4] + row[5:] for row in rows]

        assert strip_timing(out1) == strip_timing(out2)

    @pytest.mark.parametrize("text", ["", "4,", "4,x"])
    def test_bad_integer_list_exits_two(self, capsys, text):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--family", "a", f"--n={text}", "--s", "2"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"tripow bench: error: argument --n: expected comma-separated integers, got {text!r}"
        )

    @pytest.mark.parametrize("command", [
        ("bench", "--family", "a", "--n", "4", "--s", "2"),
        ("verify", "--suite"),
    ])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_a_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, f"--seed={seed}"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"tripow {command[0]}: error: argument --seed: expected a non-negative integer, "
            f"got {seed!r}"
        )

    def test_bad_size_exits_two_before_any_output(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--family", "a", "--n", "4,1", "--s", "2")
        assert code == 2
        assert out == ""
        assert err == "error: family 'a' requires n >= 2\n"

    def test_negative_exponent_uses_the_inverse_oracle(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--family", "a", "--n", "8", "--s", "3,-2")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(row[2], row[3]) for row in rows] == [
            ("3", "closed_form"), ("3", "binary_pow"), ("-2", "closed_form"), ("-2", "binary_pow"),
        ]
        assert all(float(row[5]) < 1e-6 for row in rows)


def module_command(*argv):
    """`python -m tripow argv...` and an environment that finds src/."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return [sys.executable, "-m", "tripow", *argv], env


def test_module_entry_point_runs():
    command, env = module_command(
        "power", "--family", "a", "--n", "3", "--a", "1+0i", "--b", "1+0i",
        "--s", "3", "--format", "json",
    )
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["path"] == "closed-form-A"


def test_closed_stdout_exits_141_without_traceback():
    # About 400 kB of CSV, far more than a pipe buffer holds, so the writer
    # is still writing when the reader goes away after the header.
    command, env = module_command(
        "power", "--family", "a", "--n", "200", "--a", "1+0i", "--b", "1+0i",
        "--s", "3", "--format", "csv",
    )
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b"c1,c2,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


@pytest.mark.parametrize("command", ["eigen", "power", "verify"])
def test_eigenvalue_beyond_float_prints_no_numpy_warning(command):
    args = ["--family", "anti", "--n", "4", "--a", "1e308+0i", "--b", "1e308+0i", "--format", "json"]
    command, env = module_command(command, *args, *([] if command == "eigen" else ["--s", "3"]))
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: eigenvalue inf+0j at k=")


def test_warnings_print_one_line_each_without_a_location():
    # The suite draws negative powers at odd n, which warn.  Under -m the
    # first frame outside tripow is runpy's, so no location is printed.
    command, env = module_command("verify", "--suite", "--seed", "0")
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines
    assert all(line.startswith("warning: negative exponent") for line in lines), lines
    assert not any("runpy" in line for line in lines)
