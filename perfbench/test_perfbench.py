#!/usr/bin/env python3
"""The benchmark's own tests: determinism, a second seed, and the metric
names BENCHMARK.json promises. Each run measures one second, so the suite
takes under a minute after the first build.

    python3 perfbench/test_perfbench.py      # from the repository root
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    result = json.loads(done.stdout.splitlines()[-1])
    return done.returncode, result


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_reads_the_same_pages(self):
        # recommend-nocache is read-only at zero cache: every scan reads its
        # page images from the store, so reads per op repeat exactly.
        code1, first = run("recommend-nocache", 11, 1)
        code2, second = run("recommend-nocache", 11, 1)
        self.assertEqual((code1, code2), (0, 0))
        self.assertTrue(first["correct"] and second["correct"])
        reads = first["metrics"]["cloud.reads_per_op"]["value"]
        self.assertGreater(reads, 1)
        self.assertEqual(reads, second["metrics"]["cloud.reads_per_op"]["value"])

    def test_another_seed_runs_clean(self):
        code, result = run("risk-control", 12, 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_metric_names_match_the_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run("follow-hot", 13, trace)
            self.assertEqual(code, 0)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
