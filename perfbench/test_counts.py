#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

Run from the repository root (takes about two minutes):

    python3 perfbench/test_counts.py

- Two short traced runs with one seed report identical count metrics.
- Another seed changes the op cycle.
- A planted wrong expectation fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNTS = [
    "sim.instrs", "mhm.stores", "cache.l1_misses",
    "hashing.traversal_bytes", "explore.nodes", "explore.pages_cow_cloned",
    "dpor.races", "dpor.backtracks", "dpor.pruned", "dpor.sleep_set_hits",
    "service.units_executed", "service.units_reused",
    "fleet.frames_replicated",
]


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace)] + list(extra),
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("no result (exit %d): %s"
                             % (proc.returncode, proc.stderr[-2000:]))
    return (proc.returncode, json.loads(lines[-2])["provenance"],
            json.loads(lines[-1]))


class CountsRepeat(unittest.TestCase):
    def test_counts_repeat_and_seed_changes_cycle(self):
        rc_a, prov_a, a = run("explore", 7, 1)
        rc_b, prov_b, b = run("explore", 7, 1)
        rc_c, prov_c, _ = run("explore", 8, 1)
        for rc, result in ((rc_a, a), (rc_b, b)):
            self.assertEqual(rc, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertEqual(rc_c, 0)
        for name in COUNTS:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)
            self.assertGreater(a["metrics"][name]["value"], 0, name)
        self.assertEqual(prov_a["details"]["cycle"],
                         prov_b["details"]["cycle"])
        self.assertNotEqual(prov_a["details"]["cycle"],
                            prov_c["details"]["cycle"])


class PlantedExpectation(unittest.TestCase):
    def test_planted_wrong_expectation_fails(self):
        rc, prov, result = run("check", 7, 0, "--plant-wrong-expectation")
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("lu/" in f for f in prov["failures"]))


if __name__ == "__main__":
    unittest.main()
