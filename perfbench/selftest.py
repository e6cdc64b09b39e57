#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic and determinism.

    python3 perfbench/selftest.py          # arithmetic + tiny-size smoke
    python3 perfbench/selftest.py --quick  # arithmetic only

The smoke builds the benchmark like run.py does, runs every workload at
--seconds 1 twice with one seed, and asserts that every count metric and the
model CRC-32 repeat exactly, and that a traced run emits every per-layer
metric BENCHMARK.json names.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

# End-to-end metrics that are counts of deterministic work, not timings.
EXACT_METRICS = ("replayed_iters_per_request", "unlearn_wire_kib_per_request",
                 "train_wire_kib_per_round", "disk_mib", "final_accuracy",
                 "request_ok_share")


class Arithmetic(unittest.TestCase):
    def test_beyond_counts_samples_past_the_rank(self):
        self.assertEqual(run.percentile_rank(20, 50.0), 10)
        self.assertEqual(run.beyond(20, 50.0), 10)
        self.assertEqual(run.beyond(100, 90.0), 10)
        self.assertEqual(run.beyond(99, 90.0), 9)
        self.assertEqual(run.beyond(1, 50.0), 0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        for n in range(1, 3000):
            pct = run.tail_percentile(n)
            if pct is None:
                continue
            self.assertGreaterEqual(run.beyond(n, pct), run.MIN_BEYOND)
            higher = [p for p in run.TAIL_PERCENTILES if p > pct]
            for p in higher:
                self.assertLess(run.beyond(n, p), run.MIN_BEYOND)

    def test_percentile_is_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50.0), 50)
        self.assertEqual(run.percentile(values, 90.0), 90)
        self.assertEqual(run.percentile([7], 99.0), 7)

    def test_phase_rate(self):
        self.assertEqual(run.rate(19200, 4.0), 4800.0)
        self.assertAlmostEqual(run.rate(20, 8.0), 2.5)
        with self.assertRaises(ValueError):
            run.rate(5, 0.0)

    def test_metric_name_charset(self):
        for good in ("setup_s", "core.round_ms.p50", "io.commit_ms.tail_pct",
                     "9lives", "a" * 64):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", ".hidden", "_x", "a b", "lat/ms", "a" * 65, "é"):
            self.assertFalse(run.valid_name(bad), bad)
        for unit in ("ms", "s", "1/s", "count", "%", "MB/s", "KiB"):
            self.assertTrue(run.valid_unit(unit), unit)
        self.assertFalse(run.valid_unit("per second"))

    def test_benchmark_json_names(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        seen = set()
        for m in metrics:
            self.assertTrue(run.valid_name(m["name"]), m["name"])
            self.assertTrue(run.valid_unit(m["unit"]), m["unit"])
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])

    def test_metrics_reject_bad_and_duplicate_names(self):
        m = run.Metrics()
        m.add("ok_name", 1.0, "s")
        with self.assertRaises(ValueError):
            m.add("ok_name", 2.0, "s")
        with self.assertRaises(ValueError):
            m.add("bad name", 1.0, "s")


class Smoke(unittest.TestCase):
    """Tiny-size runs of every workload (builds the benchmark first)."""

    def test_counts_and_crc_repeat_exactly(self):
        expected = {m["name"] for m in SPEC["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, raw1 = run.measure(workload, 7, 1.0, False)
                second, raw2 = run.measure(workload, 7, 1.0, False)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), expected)
                self.assertEqual(raw1["pass"]["model_crc32"],
                                 raw2["pass"]["model_crc32"])
                for name in EXACT_METRICS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                for name in expected:
                    self.assertNotEqual(first["metrics"][name]["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        expected = {m["name"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run.measure(workload, 3, 1.0, True)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), expected)


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    argv = [a for a in sys.argv if a != "--quick"]
    if quick:
        argv.append("Arithmetic")
    unittest.main(argv=argv)
