"""Command-line front end.

Subcommands: power (full matrix power), eigen (eigenvalues and nodes),
verify (closed form against brute force, single case or randomized suite),
fib (Fibonacci polynomial identities), bench (timing table in CSV).  They
form one table, _COMMANDS, and each call builds the parser of the named
subcommand only; a command line that names none gets all of them.

Matrices are written from the repr of each distinct float, computed once.
CSV and pretty output join those texts per cell; JSON output gathers them,
each with the separator that follows it, and writes the document in one
join.

Complex parameters use the literal grammar <re><sign><im>i with no
whitespace, e.g. 1+0i, -2.5+0.5i, 0+1i.  All data goes to stdout and all
diagnostics to stderr, warnings as one "warning: <message>" line each.
Exit codes: 0 success, 1 verification, singularity or overflow failure, 2
usage or parse error, 141 (128 + SIGPIPE) when stdout is closed before the
output is written, with no traceback.
"""

import argparse
import cmath
import csv
import json
import os
import re
import sys
import time
import warnings

import numpy as np

from .families import (
    _RULES, FAMILIES, FAMILY_A, FAMILY_ADAGGER, FAMILY_ANTI, FamilySpec, build_exchange, build_matrix,
)
from .fibpoly import fib_det_check, fib_factor_eval, fib_poly_eval
from .linalg import SingularMatrixError, mat_norm_maxabs, oracle_power
from .powers import (
    VerificationError,
    _check_finite,
    power_matrix,
    power_verify,
)
from .spectral import ClosureError, _nodes, _own_eigenvalues, decompose, eigenvalues

__all__ = ["main", "parse_complex", "format_complex"]

BENCH_HEADER = ["family", "n", "s", "method", "wall_nanos", "residual_vs_oracle"]

_FLOAT = r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+"
_COMPLEX_RE = re.compile(
    rf"(?P<re>[+-]?(?:{_FLOAT})(?:[eE][+-]?[0-9]+)?)"
    rf"(?P<im>[+-](?:{_FLOAT})(?:[eE][+-]?[0-9]+)?)i"
)


def parse_complex(text: str) -> complex:
    """Parse the <re><sign><im>i literal grammar, whitespace forbidden."""
    match = _COMPLEX_RE.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r}; expected <re><sign><im>i, e.g. 1+0i"
        )
    return complex(float(match.group("re")), float(match.group("im")))


def format_complex(z: complex) -> str:
    """Render a complex value as re+imi, round-trippable by parse_complex."""
    return f"{z.real!r}{z.imag:+}i"


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _parse_seed(text: str) -> int:
    # np.random.default_rng refuses a negative seed without naming --seed.
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _json_value(value):
    """A complex value as {"re", "im"}; any other value as it is."""
    return {"re": value.real, "im": value.imag} if isinstance(value, complex) else value


def _cell(value) -> str:
    """One CSV cell: a bool in lower case, a complex value by format_complex,
    a float by repr (numpy scalars as the Python values), anything else by str.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, complex):
        return format_complex(complex(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(out, header, rows):
    """The header row, then every row of rows as it comes, each value a _cell."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)


def _distinct_texts(matrix):
    """(values, texts, index): the distinct floats of a matrix and their reprs.

    values and texts are parallel arrays, texts of dtype object; index has
    shape (n, 2n), the real part of entry (i, j) reading texts[index[i, 2j]]
    and the imaginary part texts[index[i, 2j + 1]].  float.__repr__ runs once
    per distinct float bit pattern, so +0.0 and -0.0 keep their own text.
    Raises ValueError, before anything is printed, when an entry is not
    finite.
    """
    # An odd "anti" power is a row-reversed view; its rows are contiguous,
    # which is all that the view as floats needs.
    parts = np.asarray(matrix, dtype=np.complex128).view(np.float64)
    if not np.isfinite(parts).all():
        raise ValueError("matrix has a non-finite entry; refusing to print it")
    unique, index = np.unique(parts.view(np.uint64).ravel(), return_inverse=True)
    values = unique.view(np.float64)
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    return values, texts, index.reshape(parts.shape)


def _complex_cells(matrix) -> list[list[str]]:
    """format_complex of every entry of a matrix, row by row."""
    values, texts, index = _distinct_texts(matrix)
    # f"{im:+}i": a repr without a minus sign takes a plus sign.
    signed = np.where(np.signbit(values), texts, "+" + texts) + "i"
    return (texts[index[:, 0::2]] + signed[index[:, 1::2]]).tolist()


def _json_with_matrix(payload: dict, key: str, matrix) -> str:
    """json.dumps of payload with one more key, last: matrix as rows of {"re", "im"}.

    Each part's text carries the separator that follows it, so the whole
    document is one join of an (n, 2n) gather and no text is built per entry.
    """
    _, texts, index = _distinct_texts(matrix)
    parts = np.empty(index.shape, dtype=object)
    parts[:, 0::2] = ('{"re": ' + texts + ', "im": ')[index[:, 0::2]]
    parts[:, 1::2] = (texts + "}, ")[index[:, 1::2]]
    parts[:, -1] = texts[index[:, -1]] + "}], ["
    parts[0, 0] = f'{json.dumps(payload)[:-1]}, "{key}": [[' + parts[0, 0]
    parts[-1, -1] = parts[-1, -1][:-3] + "]}"
    return "".join(parts.ravel().tolist())


def _print_matrix_pretty(cells, out):
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("[ " + "  ".join(c.rjust(width) for c in row) + " ]", file=out)


def _emit_power(result, fmt, out):
    if fmt == "json":
        payload = {
            "family": result.spec.family,
            "n": result.spec.n,
            "s": result.exponent,
            "path": result.path,
        }
        print(_json_with_matrix(payload, "entries", result.matrix), file=out)
        return
    cells = _complex_cells(result.matrix)
    if fmt == "csv":
        _write_csv(out, [f"c{j + 1}" for j in range(result.spec.n)], cells)
    else:
        print(
            f"family={result.spec.family} n={result.spec.n} s={result.exponent} "
            f"path={result.path}",
            file=out,
        )
        _print_matrix_pretty(cells, out)


def cmd_power(args, out) -> int:
    spec = FamilySpec(args.family, args.n, args.a, args.b)
    result = power_matrix(spec, args.s)
    _emit_power(result, args.format, out)
    return 0


def cmd_eigen(args, out) -> int:
    if args.vectors and args.format == "csv":
        raise ValueError("--vectors has no CSV form; use --format json or pretty")
    spec = FamilySpec(args.family, args.n, args.a, args.b)
    # Eigenvalues and nodes are O(n); only the vectors need decompose, with
    # its transforms and O(n**3) closure check.
    values = eigenvalues(spec)
    _check_finite(spec, values)
    nodes = _nodes(spec.family, spec.n)
    vectors = decompose(spec).vec_matrix if args.vectors else None
    values = _own_eigenvalues(spec, values)
    if args.format == "json":
        payload = {
            "family": spec.family,
            "n": spec.n,
            "eigenvalues": [_json_value(complex(v)) for v in values],
            "nodes": [float(v) for v in nodes],
        }
        text = _json_with_matrix(payload, "vectors", vectors) if args.vectors else json.dumps(payload)
        print(text, file=out)
    elif args.format == "csv":
        _write_csv(out, ["k", "eigenvalue", "node"], zip(range(1, spec.n + 1), values, nodes))
    else:
        cells = _complex_cells(vectors) if args.vectors else None
        print(f"family={spec.family} n={spec.n} a={format_complex(spec.a)} b={format_complex(spec.b)}", file=out)
        for k in range(spec.n):
            print(
                f"  k={k + 1}  eigenvalue={format_complex(complex(values[k]))}  "
                f"node={float(nodes[k])!r}",
                file=out,
            )
        if args.vectors:
            print("eigenvector matrix (columns are eigenvectors):", file=out)
            _print_matrix_pretty(cells, out)
    return 0


def _row(check, spec, s, tol, residual, passed):
    """One verify row; the key order is that of the JSON cases."""
    return {
        "check": check,
        "family": spec.family,
        "n": spec.n,
        "a": spec.a,
        "b": spec.b,
        "s": s,
        "tol": tol,
        "residual": residual,
        "pass": passed,
    }


def _verify_case(spec, s, tol):
    try:
        residual, passed = power_verify(spec, s, tol).residual_vs_oracle, True
    except VerificationError as exc:
        residual, passed = exc.residual, False
    return _row("power", spec, s, tol, residual, passed)


def _draw_spec(rng, family, n=None):
    """A spec with random a, b (|b| >= 0.25) and, unless given, n <= 12 in the family's domain."""
    if n is None:
        rule = _RULES[family]
        step = 2 if rule.even_n else 1
        n = int(rng.integers(-(-rule.min_n // step), 12 // step + 1)) * step
    while True:
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(b) >= 0.25:
            return FamilySpec(family, n, a, b)


def _suite_rows(seed, tol):
    rng = np.random.default_rng(seed)
    rows = []
    for family in FAMILIES:
        for _ in range(12):
            spec = _draw_spec(rng, family)
            s = int(rng.integers(0, 7))
            rows.append(_verify_case(spec, s, tol))
            if np.abs(eigenvalues(spec)).min() >= 0.3:
                rows.append(_verify_case(spec, -int(rng.integers(1, 5)), tol))
    for n in range(2, 13, 2):
        spec = _draw_spec(rng, FAMILY_ANTI, n)
        twin = build_matrix(FamilySpec(FAMILY_ADAGGER, n, spec.a, spec.b))
        exchange = build_exchange(n)
        residual = mat_norm_maxabs(exchange @ twin - twin @ exchange)
        rows.append(_row("commute", spec, 0, 0.0, residual, residual == 0.0))
    for n in range(3, 9):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs, rhs = fib_det_check(n, x)
        det_res = abs(lhs - rhs) / (1.0 + abs(lhs))
        fac_res = abs(fib_factor_eval(n, x) - fib_poly_eval(n - 1, x)) / (
            1.0 + abs(fib_poly_eval(n - 1, x))
        )
        spec = FamilySpec(FAMILY_A, n, x, 1j)
        for check, residual in (("fib-det", det_res), ("fib-factor", fac_res)):
            rows.append(_row(check, spec, 0, tol, residual, residual <= tol))
    return rows


def _case_text(row) -> str:
    """The family, n, a, b, s and residual of one verify row, as key=value text."""
    return (
        f"family={row['family']} n={row['n']} a={format_complex(row['a'])} "
        f"b={format_complex(row['b'])} s={row['s']} residual={row['residual']:.3e}"
    )


def _emit_verify(rows, fmt, out):
    max_residual = max(row["residual"] for row in rows)
    ok = all(row["pass"] for row in rows)
    if fmt == "json":
        payload = {
            "pass": ok,
            "max_residual": max_residual,
            "cases": [{key: _json_value(value) for key, value in row.items()} for row in rows],
        }
        print(json.dumps(payload), file=out)
    elif fmt == "csv":
        header = ["check", "family", "n", "a", "b", "s", "residual", "tol", "pass"]
        _write_csv(out, header, ([row[key] for key in header] for row in rows))
    else:
        for row in rows:
            status = "ok" if row["pass"] else "FAIL"
            print(f"{status}  {row['check']:10s} {_case_text(row)}", file=out)
        print(f"max residual {max_residual:.3e}  ({len(rows)} checks)", file=out)
    return ok


def cmd_verify(args, out) -> int:
    names = ("family", "n", "a", "b", "s")
    given = [name for name in names if getattr(args, name) is not None]
    if args.suite:
        if given:
            raise ValueError(
                "--suite runs the seeded suite and takes no single-case options "
                f"(got {', '.join('--' + name for name in given)})"
            )
        rows = _suite_rows(args.seed, args.tol)
    else:
        missing = [name for name in names if name not in given]
        if missing:
            raise ValueError(
                "single-case verify needs --family --n --a --b --s "
                f"(missing {', '.join('--' + m for m in missing)}); or pass --suite"
            )
        spec = FamilySpec(args.family, args.n, args.a, args.b)
        rows = [_verify_case(spec, args.s, args.tol)]
    ok = _emit_verify(rows, args.format, out)
    if not ok:
        for row in rows:
            if not row["pass"]:
                print(f"residual breach: {_case_text(row)} tol={row['tol']:g}", file=sys.stderr)
        return 1
    return 0


def cmd_fib(args, out) -> int:
    # fib_factor_eval refuses every n < 3 before the recurrence sees n - 1.
    # A value beyond the float range is refused below, once, rather than
    # announced by numpy's warnings and printed as NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        by_factorization = fib_factor_eval(args.n, args.x)
        by_recurrence = fib_poly_eval(args.n - 1, args.x)
        det_lhs, det_rhs = fib_det_check(args.n, args.x)
    fields = {
        "n": args.n,
        "x": args.x,
        "recurrence": by_recurrence,
        "factorization": by_factorization,
        "det_lhs": det_lhs,
        "det_rhs": det_rhs,
        "factorization_residual": abs(by_factorization - by_recurrence),
        "determinant_residual": abs(det_lhs - det_rhs),
    }
    overflowed = [key for key, value in fields.items() if not cmath.isfinite(value)]
    if overflowed:
        raise OverflowError(
            f"fib n={args.n} x={format_complex(args.x)}: {', '.join(overflowed)} "
            "not finite, beyond the float range"
        )
    if args.format == "json":
        print(json.dumps({key: _json_value(value) for key, value in fields.items()}), file=out)
    elif args.format == "csv":
        _write_csv(out, list(fields), [fields.values()])
    else:
        print(f"n={args.n} x={format_complex(args.x)}", file=out)
        print(f"  value by recurrence:    {format_complex(by_recurrence)}", file=out)
        print(f"  value by factorization: {format_complex(by_factorization)}  "
              f"(residual {fields['factorization_residual']:.3e})", file=out)
        print(f"  determinant:            {format_complex(det_lhs)}", file=out)
        print(f"  identity right side:    {format_complex(det_rhs)}  "
              f"(residual {fields['determinant_residual']:.3e})", file=out)
    return 0


def _bench_spec(rng, family, n):
    """Deterministic parameters scaled so the spectral radius is 1.

    Unit spectral radius keeps entries bounded at very large exponents, so
    timings measure the method rather than overflow handling.
    """
    a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if abs(b) < 0.25:
        b += 0.5 + 0.5j
    spec = FamilySpec(family, n, a, b)
    radius = float(np.abs(eigenvalues(spec)).max())
    return FamilySpec(family, n, a / radius, b / radius)


def _bench_rows(specs, exponents):
    """The bench rows, each yielded as soon as it is timed."""
    for spec in specs:
        matrix = build_matrix(spec)
        for s in exponents:
            t0 = time.perf_counter_ns()
            closed = power_matrix(spec, s).matrix
            t_closed = time.perf_counter_ns() - t0
            t0 = time.perf_counter_ns()
            oracle = oracle_power(matrix, s)
            t_oracle = time.perf_counter_ns() - t0
            residual = mat_norm_maxabs(closed - oracle)
            yield [spec.family, spec.n, s, "closed_form", t_closed, residual]
            yield [spec.family, spec.n, s, "binary_pow", t_oracle, 0.0]


def cmd_bench(args, out) -> int:
    # Every spec is built, and a bad n refused, before the header is written.
    rng = np.random.default_rng(args.seed)
    specs = [_bench_spec(rng, args.family, n) for n in args.n]
    _write_csv(out, BENCH_HEADER, _bench_rows(specs, args.s))
    return 0


def _add_common(p, with_s, required=True):
    p.add_argument("--family", choices=FAMILIES, required=required)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--a", type=parse_complex, required=required, metavar="RE+IMi")
    p.add_argument("--b", type=parse_complex, required=required, metavar="RE+IMi")
    if with_s:
        p.add_argument("--s", type=int, required=required)


def _add_format(p):
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")


def _power_arguments(p):
    _add_common(p, with_s=True)
    _add_format(p)


def _eigen_arguments(p):
    _add_common(p, with_s=False)
    _add_format(p)
    p.add_argument("--vectors", action="store_true", help="include the eigenvector matrix")


def _verify_arguments(p):
    _add_common(p, with_s=True, required=False)
    p.add_argument("--suite", action="store_true", help="run the randomized suite")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_format(p)


def _fib_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_complex, required=True, metavar="RE+IMi")
    _add_format(p)


def _bench_arguments(p):
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=_parse_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--s", type=_parse_int_list, required=True, metavar="S1,S2,...")
    p.add_argument("--seed", type=_parse_seed, default=0)


# The subcommands in help order: (name, help, add-arguments, handler).
_COMMANDS = (
    ("power", "compute a matrix power", _power_arguments, cmd_power),
    ("eigen", "eigenvalues, nodes, eigenvectors", _eigen_arguments, cmd_eigen),
    ("verify", "closed form vs brute force", _verify_arguments, cmd_verify),
    ("fib", "Fibonacci polynomial identities", _fib_arguments, cmd_fib),
    ("bench", "timing table (always CSV)", _bench_arguments, cmd_bench),
)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv, with only the subcommand that argv[0] names.

    When argv[0] names no subcommand (no arguments, -h or a misspelt name)
    every subcommand is added, so the top-level help and the invalid-choice
    error list them all.  A subcommand's own help, errors and result do not
    depend on its siblings, and adding one costs about twice as much as
    parsing a whole command line.
    """
    parser = argparse.ArgumentParser(
        prog="tripow",
        description="Closed-form integer powers of structured complex matrices.",
    )
    named = [command for command in _COMMANDS if argv and command[0] == argv[0]]
    # The usage line of an "unrecognized arguments" error lists every
    # subcommand, as argparse's default metavar does when all are added.
    metavar = "{" + ",".join(command[0] for command in _COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments, handler in named or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    # Warnings are shown as one "warning:" line, like errors: the first frame
    # outside tripow, which a warning names, is runpy's under `python -m`.
    # Callers that record warnings still get the location.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head -1`).  Point the real
        # stdout at devnull so the interpreter's final flush stays quiet, and
        # exit as a shell reports a writer killed by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (SingularMatrixError, VerificationError, ClosureError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
