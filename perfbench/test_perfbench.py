#!/usr/bin/env python3
"""The benchmark's own tests: a smoke run of every workload (plain and
traced) and the seed test.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds like run.py does. Takes about two
and a half minutes on a 4-core host.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

OUT = run.build_dir()


def binary(name, workload, seed, seconds, *extra):
    cmd = [os.path.join(OUT, name), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_py(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    """Every workload runs, verifies and prints every metric."""

    def check(self, trace):
        wanted = ([n for n, _, _ in run.END_TO_END] if trace == 0
                  else [n for n, _ in run.PER_LAYER])
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                res = run_py(workload, 1, 1, trace)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(sorted(res["metrics"]), sorted(wanted))
                for m in res["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_untraced(self):
        self.check(0)

    def test_traced(self):
        self.check(1)


class Seed(unittest.TestCase):
    """The seed reaches the generator, and only the seed matters."""

    OUTCOME = ("sim_op_p50_ms", "sim_op_p99_ms", "verified_frac")

    def test_same_seed_reproduces_outcomes(self):
        # Runs of different length: the outcome metrics come from a
        # fixed number of ops, so they must not depend on it.
        for workload, seconds in (("attest_closed", 4), ("attest_lossy", 12)):
            with self.subTest(workload=workload):
                a = binary("perfbench_e2e", workload, 7, seconds)
                b = binary("perfbench_e2e", workload, 7, seconds + 2)
                self.assertEqual(a["digest"], b["digest"])
                self.assertNotEqual(a["attempted"], b["attempted"])
                self.assertEqual(a["metrics"]["outcome_samples"],
                                 b["metrics"]["outcome_samples"])
                for name in self.OUTCOME:
                    self.assertEqual(a["metrics"][name], b["metrics"][name],
                                     name)

    def test_other_seed_changes_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = binary("perfbench_e2e", workload, 7, 0.2)
                b = binary("perfbench_e2e", workload, 8, 0.2)
                self.assertNotEqual(a["digest"], b["digest"])

    def test_traced_digest_matches_untraced(self):
        a = binary("perfbench_e2e", "launch_replicated", 5, 0.2)
        b = binary("perfbench_traced", "launch_replicated", 5, 0.2)
        self.assertEqual(a["digest"], b["digest"])
        self.assertEqual(a["digest"], a["digest_width1"])


if __name__ == "__main__":
    if not run.build(OUT):
        sys.exit("build failed")
    unittest.main()
