"""Self-tests of the benchmark's generator, probe, output checks and wrappers.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import itertools
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import tripow  # noqa: E402
import tripow.cli  # noqa: E402
import tripow.powers  # noqa: E402
import tripow.spectral  # noqa: E402

from probe import PROBE_TOL, relative_error  # noqa: E402
from spans import BOUNDARIES, Tracer  # noqa: E402
from workloads import FAMILIES, WORKLOADS, BadOutput, Op, draw_op  # noqa: E402


def _cycles(workload, seed, count=2):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]).spawn(3)[0])
    return list(itertools.islice(workload.cycles(rng), count))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertEqual(_cycles(workload, 11), _cycles(workload, 11))
                self.assertNotEqual(_cycles(workload, 11), _cycles(workload, 12))

    def test_cycles_hold_the_same_mix_for_every_seed(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first, other = _cycles(workload, 1, 1)[0], _cycles(workload, 2, 1)[0]
                self.assertEqual(sorted(op.key for op in first), sorted(op.key for op in other))

    def test_parameters_have_unit_spectral_radius(self):
        for op in _cycles(WORKLOADS["verify-mid"], 3, 1)[0]:
            radius = np.abs(tripow.decompose(op.spec).eigenvalues).max()
            self.assertAlmostEqual(radius, 1.0, places=12)

    def test_warmup_never_uses_a_timed_key(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                timed = {op.key for op in _cycles(workload, 5, 1)[0]}
                warm = {op.key for op in workload.warmup(np.random.default_rng(5))}
                self.assertFalse(timed & warm)

    def test_cli_process_uses_each_key_once(self):
        cycles = _cycles(WORKLOADS["cli-json"], 8, 100)
        keys = [op.key for cycle in cycles for op in cycle]
        self.assertEqual(len(cycles), WORKLOADS["cli-json"].groups)
        self.assertEqual(len(keys), len(set(keys)))
        self.assertEqual(len(keys), 81 + 81 + 41)

    def test_cli_groups_hold_the_same_sizes_and_exponents(self):
        workload = WORKLOADS["cli-json"]
        for seed in (1, 2):
            cycles = _cycles(workload, seed, 100)
            work = [sum(op.spec.n ** 2 for op in cycle) for cycle in cycles]
            self.assertLess(max(work) / min(work), 1.02)
            for cycle in cycles:
                counts = [sum(op.s == s for op in cycle) for s in workload.exponents]
                self.assertLessEqual(max(counts) - min(counts), 1)


class ProbeTest(unittest.TestCase):
    def _error(self, op, defect=0.0):
        matrix = tripow.power_matrix(op.spec, op.s).matrix.copy()
        matrix[op.spec.n // 2, 1] += defect
        return relative_error(op.spec, op.s, matrix, np.random.default_rng(0))

    def _ops(self):
        rng = np.random.default_rng(21)
        for family in FAMILIES:
            for n in (2, 8, 64):
                for s in (1, 3, 8, 64, -1, -3):
                    yield draw_op(rng, family, n, s)
        for family in FAMILIES:
            yield draw_op(rng, family, 256, 4096)

    def test_passes_on_every_family_and_exponent(self):
        for op in self._ops():
            with self.subTest(key=op.key, s=op.s):
                self.assertLessEqual(self._error(op), PROBE_TOL)

    def test_flags_an_injected_defect(self):
        for op in self._ops():
            with self.subTest(key=op.key, s=op.s):
                self.assertGreater(self._error(op, defect=1e-6), PROBE_TOL)

    def test_anti_odd_power_is_not_the_tridiagonal_power(self):
        op = draw_op(np.random.default_rng(4), "anti", 8, 3)
        twin = Op(tripow.FamilySpec("adagger", 8, op.spec.a, op.spec.b), 3)
        wrong = tripow.power_matrix(twin.spec, 3).matrix
        self.assertGreater(relative_error(op.spec, 3, wrong, np.random.default_rng(0)), PROBE_TOL)


class CliOutputTest(unittest.TestCase):
    def setUp(self):
        self.workload = WORKLOADS["cli-json"]
        self.op = draw_op(np.random.default_rng(6), "a", 4, 8)

    def test_parses_the_json_matrix(self):
        out = self.workload.run(*self.workload.call_args(self.op))
        matrix = self.workload.output_matrix(self.op, out)
        expected = tripow.power_matrix(self.op.spec, 8).matrix
        np.testing.assert_array_equal(matrix, expected)

    def test_rejects_nan_nonzero_exit_and_wrong_header(self):
        code, text = self.workload.run(*self.workload.call_args(self.op))
        for bad in ((code, text.replace(text[text.index('"re": ') + 6:].split(",")[0], "NaN", 1)),
                    (1, text),
                    (code, text.replace('"s": 8', '"s": 9'))):
            with self.assertRaises(BadOutput):
                self.workload.output_matrix(self.op, bad)


class TracerTest(unittest.TestCase):
    def _attributes(self):
        return {
            target: getattr(__import__(target.rsplit(".", 1)[0], fromlist=["_"]), target.rsplit(".", 1)[1])
            for targets in BOUNDARIES.values() for target in targets
        }

    def test_remove_restores_every_attribute(self):
        before = self._attributes()
        tracer = Tracer()
        tracer.install()
        during = self._attributes()
        tracer.remove()
        after = self._attributes()
        self.assertTrue(all(during[t] is not before[t] for t in before))
        self.assertTrue(all(after[t] is before[t] for t in before))

    def test_missing_attribute_is_skipped_and_reported(self):
        tracer = Tracer({"gone": ["tripow.powers.no_such_function", "tripow.no_such_module.f"]})
        self.assertEqual(tracer.skipped, ["tripow.powers.no_such_function", "tripow.no_such_module.f"])

    def test_spans_nest_and_count_the_layer_calls(self):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 1
            tripow.power_matrix(tripow.FamilySpec("adagger", 6, 0.5, 0.25), 3)
        finally:
            tracer.remove()
        totals = tracer.totals()
        self.assertEqual(totals["powers.power_matrix"][0], 1)
        self.assertEqual(totals["chebyshev.table"][0], 2)
        self.assertEqual(totals["spectral.transform"][0], 2)
        names = [span[0] for span in tracer.spans]
        decompose = names.index("spectral.decompose")
        self.assertEqual(tracer.spans[decompose][3], names.index("powers.power_matrix"))
        for calls, busy_ns, self_ns in totals.values():
            self.assertLessEqual(0, self_ns)
            self.assertLessEqual(self_ns, busy_ns)


if __name__ == "__main__":
    unittest.main()
