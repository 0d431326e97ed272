#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at minimal length (--seconds 0: one pass) and
checks that it passes its own correctness checks and prints every
metric BENCHMARK.json names, with its unit, in the table and in the
result line; and that a wrong expected digest makes `decode` fail.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["decode", "sweep", "serve", "fleet"]


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


class Workloads(unittest.TestCase):
    def check(self, workload, trace, key):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:] + out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in bench_spec()[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        table = "\n".join(lines[:-1])
        for name, unit in expected.items():
            row = [l for l in table.splitlines() if l.startswith(name + " ")]
            self.assertEqual(len(row), 1, name)
            self.assertIn(unit + " (", row[0])
        if key == "end_to_end":
            for name, v in result["metrics"].items():
                self.assertNotEqual(v["value"], 0, name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, "per_layer")


class Negative(unittest.TestCase):
    def test_wrong_digest_fails_decode(self):
        out = run("decode", 0, "--expect-digest", "0123456789abcdef")
        self.assertNotEqual(out.returncode, 0)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("check FAIL token digest", out.stdout)

    def test_unknown_workload_is_an_error(self):
        out = run("nope", 0)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
