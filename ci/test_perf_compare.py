#!/usr/bin/env python3
"""Unit tests for the paired perfbench comparison: verdicts over synthetic
paired runs and the exit codes of a whole comparison driven by a fake runner
(no build, no perfbench process).

Run directly (``python3 ci/test_perf_compare.py``) or via ctest.  Only the
standard library is used.
"""

from __future__ import annotations

import io
import json
import unittest

import perf_compare as pc

HIGHER = {"name": "pkts_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "setup_s", "better": "lower", "bound": 0.25}


class VerdictTest(unittest.TestCase):
    def test_equal_when_within_bound_and_steady(self):
        parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [101.0, 100, 100, 99, 101, 99, 101, 100, 100, 99]
        self.assertEqual(pc.verdict(HIGHER, parent, change)["verdict"], "equal")

    def test_better_needs_nine_tenths_of_wins_beyond_the_parent_iqr(self):
        parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [v * 1.1 for v in parent]
        row = pc.verdict(HIGHER, parent, change)
        self.assertEqual((row["verdict"], row["wins"], row["losses"]), ("better", 10, 0))
        # Same medians, but one pair in two lost: not a gain.
        change[::2] = [v * 0.99 for v in parent[::2]]
        self.assertNotEqual(pc.verdict(HIGHER, parent, change)["verdict"], "better")

    def test_worse_needs_beyond_bound_and_nine_tenths_of_losses(self):
        parent = [100.0] * 9 + [101.0]
        change = [60.0] * 9 + [61.0]
        row = pc.verdict(HIGHER, parent, change)
        self.assertEqual((row["verdict"], row["losses"]), ("worse", 10))
        # Beyond the bound but the change won two pairs: not resolved either way.
        change[0] = change[1] = 150.0
        self.assertEqual(pc.verdict(HIGHER, parent, change)["verdict"], "unresolved")
        # Consistently slower but inside the bound: equal, not worse.
        self.assertEqual(pc.verdict(HIGHER, parent, [v * 0.9 for v in parent])["verdict"],
                         "equal")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        # pair_min_burst pkts/s on a shared host: 420k..636k over same code.
        parent = [420e3, 556e3, 480e3, 610e3, 430e3]
        change = [636e3, 422e3, 600e3, 450e3, 540e3]
        self.assertEqual(pc.verdict(HIGHER, parent, change)["verdict"], "unresolved")
        # Unless every change run beats every parent run.
        self.assertNotEqual(pc.verdict(HIGHER, parent, [700e3, 720e3, 710e3, 760e3, 705e3])
                            ["verdict"], "unresolved")

    def test_ties_count_for_neither_side(self):
        parent = [1.0, 2.0, 3.0, 4.0]
        change = [1.0, 2.5, 3.0, 3.5]
        row = pc.verdict(HIGHER, parent, change)
        self.assertEqual((row["wins"], row["losses"], row["pairs"]), (1, 1, 4))
        # Identical runs (a simulated metric) tie everywhere and read equal,
        # however widely the seeds spread them.
        row = pc.verdict(LOWER, parent, parent)
        self.assertEqual((row["wins"], row["losses"], row["verdict"]), (0, 0, "equal"))

    def test_direction(self):
        parent = [1.0] * 10
        faster = [0.5] * 10
        self.assertEqual(pc.verdict(LOWER, parent, faster)["verdict"], "better")
        self.assertEqual(pc.verdict(HIGHER, parent, faster)["verdict"], "worse")
        self.assertEqual(pc.verdict(LOWER, faster, parent)["verdict"], "worse")
        self.assertEqual(pc.verdict(HIGHER, faster, parent)["verdict"], "better")


BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [HIGHER, {"name": "app_owd_p50_ms", "better": "lower", "bound": 0.02},
                   {"name": "app_owd_p99_ms", "better": "lower", "bound": 0.05},
                   {"name": "app_delivered_frac", "better": "higher", "bound": 0.01}],
}


def output(seed: int, pkts: float = 500e3, digest: str | None = None,
           counts: dict | None = None, correct: bool = True, owd: float = 37.2) -> str:
    record = {"record": {"workload": "w", "seed": seed, "digest": digest or f"d{seed}",
                         "counts": counts or {"offered": 1000, "delivered": 1000}}}
    metrics = {"pkts_per_s": pkts, "app_owd_p50_ms": owd, "app_owd_p99_ms": 37.6,
               "app_delivered_frac": 1}
    result = {"correct": correct, "attempted": 1000, "failed": 0,
              "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return "build chatter\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"


class CompareTest(unittest.TestCase):
    def compare(self, change_output=None, parent_output=None, returncode=0, stderr=""):
        calls = []

        def run(side, workload, seed, seconds):
            calls.append((side, seed))
            make = change_output if side == "change" else parent_output
            return returncode, (make or output)(seed), stderr

        out = io.StringIO()
        code = pc.compare(BENCH, run, pairs=4, seconds="2", out=out)
        return code, out.getvalue(), calls

    def test_identical_runs_pass_and_alternate_the_order(self):
        code, text, calls = self.compare()
        self.assertEqual(code, 0, text)
        self.assertEqual(calls, [("parent", 201), ("change", 201), ("change", 202),
                                 ("parent", 202), ("parent", 203), ("change", 203),
                                 ("change", 204), ("parent", 204)])
        self.assertIn("equal", text)

    def test_digest_mismatch_fails(self):
        code, text, _ = self.compare(change_output=lambda s: output(s, digest="other"))
        self.assertEqual(code, 1)
        self.assertIn("MISMATCH w seed 201: digest", text)

    def test_count_mismatch_fails(self):
        code, text, _ = self.compare(
            change_output=lambda s: output(s, counts={"offered": 1000, "delivered": 999}))
        self.assertEqual(code, 1)
        self.assertIn("count delivered 1000 != 999", text)

    def test_simulated_metric_mismatch_fails(self):
        code, text, _ = self.compare(change_output=lambda s: output(s, owd=37.3))
        self.assertEqual(code, 1)
        self.assertIn("app_owd_p50_ms", text)

    def test_incorrect_run_fails(self):
        code, text, _ = self.compare(change_output=lambda s: output(s, correct=False))
        self.assertEqual(code, 1)
        self.assertIn('"correct": false', text)

    def test_nonzero_exit_fails(self):
        self.assertEqual(self.compare(returncode=1)[0], 1)

    def test_worse_verdict_fails(self):
        code, text, _ = self.compare(change_output=lambda s: output(s, pkts=300e3))
        self.assertEqual(code, 1)
        self.assertIn("WORSE w pkts_per_s", text)

    def test_build_failure_and_malformed_output_exit_2(self):
        self.assertEqual(self.compare(returncode=2, stderr="perfbench: build failed")[0], 2)
        self.assertEqual(self.compare(change_output=lambda s: "not json\n{}\n")[0], 2)
        self.assertEqual(self.compare(change_output=lambda s: output(s)[:-40])[0], 2)


if __name__ == "__main__":
    unittest.main()
