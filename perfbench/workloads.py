"""Seeded inputs and the timed operation of each workload.

Inputs come in cycles.  A cycle holds a fixed mix of input classes in a
seeded order, so every seed times the same mix of sizes and exponents; the
seed changes only the order and the parameters (a, b).
Parameters are drawn the way ``tripow bench`` draws them and scaled to unit
spectral radius through the closed-form nodes, so giant exponents stay
finite.  The generator never calls ``decompose`` or ``power_matrix``: no
program cache is warm when timing starts.  Warm-up inputs use (family, n)
keys that the timed phase never uses.
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import tripow
import tripow.cli
from tripow.spectral import nodes_a, nodes_adagger

FAMILIES = ("a", "adagger", "anti")

# A negative exponent is drawn only for parameters whose smallest eigenvalue
# modulus is at least this share of the spectral radius, so the inverse
# power stays well conditioned and no operation fails.
NEG_MIN_RATIO = 0.3

VERIFY_TOL = 1e-8


class BadOutput(Exception):
    """An operation returned, but its output is not a valid result."""


@dataclass(frozen=True)
class Op:
    """One generated input: the spec handed to tripow and its exponent."""

    spec: tripow.FamilySpec
    s: int

    @property
    def key(self) -> str:
        return f"{self.spec.family}:{self.spec.n}"


def power_argv(op: Op) -> list[str]:
    """The ``tripow power`` command line for op, with JSON output."""
    spec = op.spec
    return [
        "power", "--family", spec.family, "--n", str(spec.n),
        f"--a={_complex_literal(spec.a)}", f"--b={_complex_literal(spec.b)}",
        f"--s={op.s}", "--format", "json",
    ]


def _complex_literal(z: complex) -> str:
    # repr of a float round-trips exactly, so the CLI parses the same (a, b)
    # that the probe checks against.
    return f"{z.real!r}{z.imag:+}i"


def draw_op(rng: np.random.Generator, family: str, n: int, s: int) -> Op:
    """Parameters as ``tripow bench`` draws them, scaled to unit radius."""
    nodes = nodes_a(n) if family == "a" else nodes_adagger(n)
    while True:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(b) < 0.25:
            b += 0.5 + 0.5j
        moduli = np.abs(a + b * nodes)
        radius = float(moduli.max())
        if s > 0 or moduli.min() >= NEG_MIN_RATIO * radius:
            return Op(tripow.FamilySpec(family, n, a / radius, b / radius), s)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _keys(n_values) -> list[tuple[str, int]]:
    return [(f, n) for f in FAMILIES for n in n_values if f != "anti" or n % 2 == 0]


def _shuffled(rng, items) -> list:
    return [items[i] for i in rng.permutation(len(items))]


class Workload:
    """A named input generator plus the public call it times."""

    name = ""

    def cycle(self, rng) -> list[Op]:
        raise NotImplementedError

    def cycles(self, rng):
        """The cycles one process runs, in order; endless unless overridden."""
        while True:
            yield self.cycle(rng)

    def warmup(self, rng) -> list[Op]:
        raise NotImplementedError

    def call_args(self, op: Op) -> tuple:
        """Arguments of the timed call, prepared before the timer starts."""
        return (op.spec, op.s)

    def run(self, spec, s):
        return tripow.power_matrix(spec, s).matrix

    def output_matrix(self, op: Op, out) -> np.ndarray:
        """The computed power inside the output of run, checked for shape."""
        matrix = np.asarray(out)
        if matrix.shape != (op.spec.n, op.spec.n):
            raise BadOutput(f"result shape {matrix.shape} for n={op.spec.n}")
        return matrix


class DenseWorkload(Workload):
    """power_matrix at n=1024: the O(n^3) assembly and closure check dominate."""

    name = "dense-1k"
    n = 1024

    # At s=4096 the powers of eigenvalues of modulus near 0.84 are subnormal,
    # and the assembly product slows by up to 2x depending on how many there
    # are.  s=8 appears twice so that the median lies inside the steady s=8
    # class and the tail inside the variable s=4096 class.
    exponents = (8, 8, 4096)

    def cycle(self, rng):
        classes = [(f, s) for f in FAMILIES for s in self.exponents]
        return [draw_op(rng, f, self.n, s) for f, s in _shuffled(rng, classes)]

    def warmup(self, rng):
        # One large op grows the heap; small ones run the other families' code.
        return [draw_op(rng, f, n, 8) for f, n in (("a", self.n - 2), ("adagger", 62), ("anti", 62))]


class VerifyWorkload(Workload):
    """power_verify at n in {128, 256}: the dense oracle dominates."""

    name = "verify-mid"
    # (256, 64) appears three times so that the median falls well inside
    # one class instead of on the gap between the (128, -3) and (256, 64)
    # classes, where it would jump between them from run to run.
    classes = [(128, 64), (128, 4096), (128, -3), (256, 64), (256, 64), (256, 64), (256, 4096), (256, -3)]

    def cycle(self, rng):
        classes = [(f, n, s) for f in FAMILIES for n, s in self.classes]
        return [draw_op(rng, f, n, s) for f, n, s in _shuffled(rng, classes)]

    def warmup(self, rng):
        return [draw_op(rng, f, 130, s) for f in FAMILIES for s in (64, -3)]

    def run(self, spec, s):
        return tripow.power_verify(spec, s, tol=VERIFY_TOL).matrix


class CliJsonWorkload(Workload):
    """``tripow power --format json`` in-process: argument parsing and JSON."""

    name = "cli-json"
    exponents = (8, 64, 4096)
    groups = 7

    def cycles(self, rng):
        # One process uses every (family, n) key once, as if every call were
        # a fresh process, and then ends.  The keys, sorted by size, are dealt
        # into groups back and forth (0..6, 6..0, ...), so every group holds
        # the same sizes whatever the seed, and each group is a cycle.  Within
        # a group every three keys of adjacent size take the three exponents
        # in a seeded order: the output of s=4096 is mostly zeros and prints
        # faster, so a free draw would change the mix from seed to seed.
        keys = sorted(_keys(range(16, 97)), key=lambda key: (key[1], key[0]))
        groups = [[] for _ in range(self.groups)]
        for start in range(0, len(keys), self.groups):
            order = range(self.groups) if start // self.groups % 2 == 0 else reversed(range(self.groups))
            for group, key in zip(order, keys[start:start + self.groups]):
                groups[group].append(key)
        for group in groups:
            ops = []
            for start in range(0, len(group), len(self.exponents)):
                block = group[start:start + len(self.exponents)]
                exponents = rng.permutation(self.exponents)
                ops += [draw_op(rng, f, n, int(s)) for (f, n), s in zip(block, exponents)]
            yield _shuffled(rng, ops)

    def warmup(self, rng):
        # n=98 grows the heap to the size the largest timed outputs need.
        return [draw_op(rng, f, n, 8) for f, n in _keys((12, 98))]

    def call_args(self, op):
        return (power_argv(op),)

    def run(self, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = tripow.cli.main(argv)
        return code, out.getvalue()

    def output_matrix(self, op, out):
        code, text = out
        if code != 0:
            raise BadOutput(f"tripow power exited with {code}")
        try:
            payload = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise BadOutput(f"stdout is not valid JSON: {exc}") from None
        head = (payload.get("family"), payload.get("n"), payload.get("s"))
        if head != (op.spec.family, op.spec.n, op.s):
            raise BadOutput(f"JSON describes {head}, expected {(op.spec.family, op.spec.n, op.s)}")
        entries = payload["entries"]
        matrix = np.array([[e["re"] + 1j * e["im"] for e in row] for row in entries])
        return super().output_matrix(op, matrix)


WORKLOADS = {w.name: w for w in (DenseWorkload(), VerifyWorkload(), CliJsonWorkload())}
