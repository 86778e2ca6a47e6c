#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at smoke size, untraced and traced, through run.py (which
builds espbench first) and checks the output against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5
WORKLOADS = ["verify", "fleet"]

# Rows that must repeat exactly for one seed: search (a) counts, simulated
# latency, the runtime's ExecStats per round trip, compile sizes and the
# serve firmware's instructions per request.
DETERMINISTIC = [
    "sim_oneway_us.4B", "sim_oneway_us.4KB",
    "mc.states_explored.full_j1", "mc.states_stored.full_j1",
    "mc.transitions.full_j1",
    "analysis.deadlock_configs", "codegen.c_bytes", "ir.optimized_insts",
    "runtime.instr_per_req",
] + [f"{m}.{size}" for size in ("4B", "4KB") for m in (
    "runtime.instr_per_rt", "runtime.ctx_switches_per_rt",
    "runtime.rendezvous_per_rt", "runtime.poll_rounds_per_rt",
    "runtime.ext_deliveries_per_rt", "runtime.pattern_tries_per_rt",
    "vmmc.quanta_per_rt", "sim.fw_cycles_per_rt")]


def run_bench(workload, trace, seed=SEED):
    """Returns (report, result) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}

    def get(self, workload, trace):
        key = (workload, trace)
        if key not in self.runs:
            self.runs[key] = run_bench(workload, trace)
        return self.runs[key]

    def test_every_workload_reports_every_metric(self):
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    report, result = self.get(w, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], report["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    self.assertEqual(set(report["host"]), {
                        "nproc", "cpu_model", "compiler", "build_type",
                        "git_sha"})
                    self.assertEqual(report["failed_share"], 0)

    def test_deterministic_rows_repeat(self):
        first = {**self.get("fleet", 0)[1]["metrics"],
                 **self.get("fleet", 1)[1]["metrics"]}
        again = {**run_bench("fleet", 0)[1]["metrics"],
                 **run_bench("fleet", 1)[1]["metrics"]}
        for name in DETERMINISTIC:
            with self.subTest(metric=name):
                self.assertEqual(first[name]["value"], again[name]["value"])
                self.assertGreater(first[name]["value"], 0)


if __name__ == "__main__":
    unittest.main()
