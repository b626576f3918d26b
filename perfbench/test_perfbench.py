#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark on first use like run.py does. The metric test runs
every workload twice (traced and untraced), so the suite takes a few
minutes, most of it in the repro workload.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, *extra, seconds="1", trace="0"):
    """Run the benchmark; returns (exit code, parsed last line or None, stdout)."""
    r = subprocess.run([sys.executable, RUN, "--workload", workload, "--seconds", seconds,
                        "--trace", trace, *extra], cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stdout


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                code, result, out = bench(w["name"], trace=trace)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))
                for name in want:
                    self.assertIn(name, out, "%s not printed by name" % name)


class GoldenTest(unittest.TestCase):
    """Runs the driver once per workload and checks its record pass
    against an edited copy of the golden, as run.py does."""

    def failures(self, workload, edit, seed=run.DEFAULT_SEED):
        res = run.run_driver(run.build(), workload, seed, 0.2, False)
        golden = run.load_golden(workload)
        self.assertEqual(run.check_inprocess(res, golden, seed), [])
        edit(golden)
        return run.check_inprocess(res, golden, seed)

    def test_corrupted_dma_line_is_a_failed_operation(self):
        def edit(g):
            g["lines"][3] = g["lines"][3].replace("gbps=", "gbps=9")
        self.assertEqual(len(self.failures("dma", edit)), 1)

    def test_corrupted_counter_snapshot_is_a_failed_operation(self):
        def edit(g):
            g["counters_sha256"]["miss LAT_RD/64"] = "0" * 64
        self.assertEqual(len(self.failures("dma", edit)), 1)

    def test_corrupted_chaos_trial_is_a_failed_operation(self):
        def edit(g):
            g["reference_sha256"][5] = "0" * 16
            g["seeded_sha256"][7] = "0" * 16
        # The reference campaign is checked on every seed, the seeded one
        # only on the seed its golden was recorded with.
        self.assertEqual(len(self.failures("chaos", edit, run.DEFAULT_SEED + 1)), 1)
        self.assertEqual(len(self.failures("chaos", edit)), 2)


class SeedTest(unittest.TestCase):
    def trial_specs(self, seed):
        out = run.build()
        res = run.run_driver(out, "chaos", seed, 0.01, False)
        return [line.split(" | ")[-1] for line in res["lines"] if line.startswith("seed ")]

    def test_seed_changes_chaos_trial_specs(self):
        one = self.trial_specs(1)
        self.assertEqual(one, self.trial_specs(1))
        two = self.trial_specs(2)
        self.assertEqual(len(one), len(two))
        self.assertNotEqual(one, two)


if __name__ == "__main__":
    unittest.main()
