"""Self-test of xbench/compare.py on fixed inputs.

  python3 -m unittest discover -s xbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

END_TO_END = [
    {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def lines(workload, runs, trace=0, failed=0, correct=True):
    """JSONL lines as run.py --out writes them; runs = [(p50, ops), ...],
    each run attempting 100 ops of which `failed` failed."""
    out = []
    for seed, (p50, ops) in enumerate(runs):
        out.append(json.dumps({
            "workload": workload, "seed": seed, "seconds": 15, "trace": trace,
            "result": {"correct": correct, "attempted": 100,
                       "failed": failed,
                       "metrics": {
                           "read_p50_ms": {"value": p50, "unit": "ms"},
                           "ops_per_s": {"value": ops, "unit": "1/s"}}}}))
    return out


class CompareTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        q1, median, q3 = compare.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, median, q3), (1.5, 3.0, 4.5))
        self.assertEqual(compare.summarize([7.0]), (7.0, 7.0, 7.0))

    def test_verdicts(self):
        steady = [(10.0, 100.0), (10.1, 101.0), (9.9, 99.0), (10.0, 100.0)]
        base = compare.load_results(lines("w", steady))
        # p50 12% worse (bound 10%), throughput 5% better.
        worse = [(p * 1.12, o * 1.05) for p, o in steady]
        rows = {r["metric"]: r for r in compare.compare(
            base, compare.load_results(lines("w", worse)), END_TO_END)}
        self.assertEqual(rows["read_p50_ms"]["verdict"], "REGRESSED")
        self.assertAlmostEqual(rows["read_p50_ms"]["change"], 0.12)
        self.assertEqual(rows["ops_per_s"]["verdict"], "ok")
        self.assertAlmostEqual(rows["ops_per_s"]["change"], -0.05)

        # Throughput 15% lower is a regression for a higher-is-better metric.
        slower = [(p, o * 0.85) for p, o in steady]
        rows = {r["metric"]: r for r in compare.compare(
            base, compare.load_results(lines("w", slower)), END_TO_END)}
        self.assertEqual(rows["ops_per_s"]["verdict"], "REGRESSED")
        self.assertEqual(rows["read_p50_ms"]["verdict"], "ok")

    def test_wide_spread_is_unresolved(self):
        base = compare.load_results(lines("w", [(10, 100)] * 4))
        noisy = [(8.0, 100.0), (12.0, 100.0), (8.0, 100.0), (12.0, 100.0)]
        rows = {r["metric"]: r for r in compare.compare(
            base, compare.load_results(lines("w", noisy)), END_TO_END)}
        self.assertEqual(rows["read_p50_ms"]["verdict"], "unresolved")

    def test_traced_runs_and_unshared_workloads_are_skipped(self):
        base = compare.load_results(
            lines("a", [(1.0, 1.0)]) + lines("b", [(1.0, 1.0)], trace=1))
        new = compare.load_results(lines("a", [(1.0, 1.0)]) +
                                   lines("c", [(5.0, 5.0)]))
        rows = compare.compare(base, new, END_TO_END)
        self.assertEqual({r["workload"] for r in rows}, {"a"})
        self.assertEqual([r["verdict"] for r in rows], ["ok", "ok"])
        self.assertIn("workload", compare.format_rows(rows))

    def test_failed_gate_is_refused(self):
        bad = lines("w", [(1.0, 1.0)]) + lines("w", [(1.0, 1.0)],
                                                correct=False)
        with self.assertRaisesRegex(ValueError, "correctness gate"):
            compare.load_results(bad)
        # Also when the failing run is a traced one.
        with self.assertRaises(ValueError):
            compare.load_results(lines("w", [(1.0, 1.0)], trace=1,
                                       correct=False))

    def test_error_rates(self):
        steady = [(10.0, 100.0)] * 4
        base = compare.load_results(lines("w", steady))
        same = compare.compare_errors(base, base)
        self.assertEqual([(r["base"], r["new"], r["verdict"]) for r in same],
                         [(0.0, 0.0, "ok")])
        # Same latency and throughput, but 2 of every 100 ops failed.
        failing = compare.load_results(lines("w", steady, failed=2))
        rows = compare.compare_errors(base, failing)
        self.assertEqual(rows[0]["verdict"], "REGRESSED")
        self.assertAlmostEqual(rows[0]["new"], 0.02)
        self.assertEqual(compare.compare_errors(failing, base)[0]["verdict"],
                         "ok")
        self.assertIn("error_rate", compare.format_errors(rows))


if __name__ == "__main__":
    unittest.main()
