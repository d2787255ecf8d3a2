#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- A short pass over all four workloads, untraced and traced, must print
  every metric BENCHMARK.json names, with its unit, and no errors.
- A corrupted stored value must show up as failed operations (a raised
  error_rate), never as a pass. On serve and fork it must also leave
  sim_mips at 0, since only verified batches are credited instructions.
- The percentile helper must give known answers on known inputs, with its
  sample count.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "test"


def run_py(workload, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_binary(workload, expected):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", "7", "--seconds",
         "0.5", "--trace", "0", "--expected", str(expected)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        # The first run builds the binary the other tests call directly.
        cls.first = run_py("kernels", 0)

    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_small_pass_emits_every_metric(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                result = (self.first if workload == "kernels"
                          else run_py(workload, 0))
                self.check_metrics(result, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(run_py(workload, 1), self.spec["per_layer"])

    def test_corrupted_expected_value_raises_error_rate(self):
        lines = (HERE / "expected.txt").read_text().splitlines()
        SCRATCH.mkdir(parents=True, exist_ok=True)
        for kind, workload in (("kernel", "kernels"), ("fork", "fork"),
                               ("serve", "serve")):
            with self.subTest(workload=workload):
                corrupted = []
                for line in lines:
                    if line.startswith(kind + " "):
                        # Every stored record of this kind is off by one.
                        field = "cycles=" if kind == "kernel" else "digest="
                        head, tail = line.split(field, 1)
                        value, rest = (tail.split(" ", 1) + [""])[:2]
                        line = f"{head}{field}{int(value) + 1} {rest}".rstrip()
                    corrupted.append(line)
                path = SCRATCH / f"expected-{kind}.txt"
                path.write_text("\n".join(corrupted) + "\n")
                result = run_binary(workload, path)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["failed"] / result["attempted"], 0)
                if kind != "kernel":
                    # Stored instructions count only for verified batches.
                    self.assertEqual(result["metrics"]["sim_mips"]["value"], 0)

    def test_percentile_helper(self):
        proc = subprocess.run([str(BINARY), "--selftest"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("selftest ok", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
