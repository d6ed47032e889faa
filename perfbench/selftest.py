"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection.  The
repeat test starts run.py six times (about a minute in all).
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import couplings  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402


def span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, op_id=0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 3.0, parent=0),
            span(2, 2.0, 5.0, parent=0),  # overlaps span 1: union [1, 5]
            span(3, 9.0, 12.0, parent=0),  # only [9, 10] lies inside the parent
            span(4, 1.5, 2.5, parent=1),  # grandchild: charged to span 1 only
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(got[1], 2.0 - 1.0)
        self.assertAlmostEqual(got[2], 3.0)
        self.assertAlmostEqual(got[3], 3.0)
        self.assertAlmostEqual(got[4], 1.0)

    def test_distinct_batches_is_a_union_of_index_ranges(self):
        a, b = ("seed", 0, 16, b"a"), ("seed", 1, 16, b"a")
        draws = [(a, 0, 4096), (a, 0, 8192), (a, 4096, 8192), (b, 10, 20)]
        self.assertEqual(run.distinct_batches(draws), 8192 + 10)


class CheckerTest(unittest.TestCase):
    """The checker passes the real output and rejects a doctored one."""

    @classmethod
    def setUpClass(cls):
        cls.seed = 5

    def _op(self, ops, key):
        return next(op for op in ops if op.key == key)

    def _verdict(self, op, result):
        checker = workloads.Checker(reference=None)
        checker(op, result)
        return checker

    def test_advantage_above_ceiling_is_rejected(self):
        ops = workloads.protocol_ops(self.seed, couplings.build("protocol"))
        op = self._op(ops, "protocol/C=0.5/postselect-N8")  # TV = 0: ceiling 1/2
        report, _ = op.run()
        self.assertEqual(self._verdict(op, report).wrong, 0)
        doctored = dataclasses.replace(report, advantage=0.95, ci_low=0.9, ci_high=1.0)
        checker = self._verdict(op, doctored)
        self.assertEqual((checker.wrong, checker.failed), (1, 1))
        self.assertIn("above TV ceiling", " ".join(checker.problems))

    def test_noisy_tv_above_noise_free_is_rejected(self):
        ops = workloads.oracle_ops(self.seed, couplings.build("exact-oracle"))
        op = self._op(ops, "exact-oracle/C=1.0/N=12/sigma=0.1")
        tv, _ = op.run()
        self.assertEqual(self._verdict(op, tv).wrong, 0)
        noise_free, _ = self._op(ops, "exact-oracle/C=1.0/N=12/sigma=0.0").run()
        checker = self._verdict(op, noise_free + 1e-3)
        self.assertEqual((checker.wrong, checker.failed), (1, 1))
        self.assertIn("above noise-free TV", " ".join(checker.problems))

    def test_output_differing_from_reference_is_rejected(self):
        reference = json.loads((HERE / "reference.json").read_text())["exact-oracle"]
        ops = workloads.oracle_ops(workloads.DEFAULT_SEED, couplings.build("exact-oracle"))
        op = self._op(ops, "exact-oracle/C=1.0/N=12/sigma=0.0")
        tv, _ = op.run()
        for value, wrong in ((tv, 0), (math.nextafter(tv, 1.0), 1)):
            checker = workloads.Checker(reference)
            checker(op, value)
            self.assertEqual(checker.wrong, wrong)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [row[:3] for row in run.PER_LAYER],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.BENCHMARKED))


class ExactCountsRepeatTest(unittest.TestCase):
    """Counts the program's work fixes must read the same in two runs."""

    COUNTS = {
        "protocol": "macro.batches_drawn",
        "exact-oracle": "signalling.tv_grid_points",
        "cli": "cli.bytes_written",
    }

    def _traced(self, workload):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.5", "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]

    def test_counts_repeat(self):
        for workload, name in self.COUNTS.items():
            first, second = self._traced(workload), self._traced(workload)
            with self.subTest(workload=workload):
                self.assertGreater(first[name]["value"], 0)
                self.assertEqual(first[name], second[name])


if __name__ == "__main__":
    unittest.main()
