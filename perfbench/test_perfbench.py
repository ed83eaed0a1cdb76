#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark as run.py does, then check that every
correctness gate trips on a corrupted expected value, that a short run of
each workload, untraced and traced, emits every metric BENCHMARK.json
names with its unit, that the layer map covers every per-layer metric,
and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(args, cwd=REPO, timeout=900):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, expected):
        done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace)])
        self.assertEqual(done.returncode, 0,
                         done.stdout[-3000:] + done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in expected})

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, BENCH["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, BENCH["per_layer"])


class Gates(unittest.TestCase):
    def test_every_gate_trips_on_a_corrupted_expected_value(self):
        done = run(["--selftest"])
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        self.assertIn(" 0 failed", done.stdout)


class LayerMap(unittest.TestCase):
    def test_maps_every_per_layer_metric_to_an_end_to_end_metric(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for name, entry in layers.items():
            with self.subTest(metric=name):
                self.assertTrue(entry["moves"])
                for move in entry["moves"]:
                    self.assertIn(move["workload"], WORKLOADS)
                    self.assertIn(move["metric"], end_to_end)


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(REPO, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(["--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare,
                       timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
