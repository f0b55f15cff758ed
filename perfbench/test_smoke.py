#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about a minute).

    python3 perfbench/test_smoke.py

For every workload it checks that an untraced run reports every
end-to-end metric of BENCHMARK.json with its unit and a traced run every
per-layer metric, both with their attempted/failed counts; that two runs
with one seed report the same result digest and a run with another seed
passes with a different one; and that GLOSSARY.md covers every metric.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s%s" % (
            workload, seed, trace, proc.returncode, proc.stdout, proc.stderr))
    digest = re.search(r"result digest (\S+)", proc.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else None


class SmokeTest(unittest.TestCase):

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            reported = result["metrics"][m["name"]]
            self.assertEqual(reported["unit"], m["unit"], m["name"])
            self.assertIsInstance(reported["value"], (int, float), m["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, digest = run(workload, 7, 0)
                self.check_result(first, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(first["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                self.assertIsNotNone(digest)
                _, again = run(workload, 7, 0)
                self.assertEqual(again, digest, "same seed, same digest")
                other, changed = run(workload, 8, 0)
                self.check_result(other, SPEC["end_to_end"])
                self.assertNotEqual(changed, digest, "new seed, new inputs")
                traced, _ = run(workload, 7, 1)
                self.check_result(traced, SPEC["per_layer"])

    def test_glossary_covers_every_metric(self):
        glossary = (BENCH_DIR / "GLOSSARY.md").read_text()
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn("`%s`" % m["name"], glossary)


if __name__ == "__main__":
    unittest.main()
