#!/usr/bin/env python3
"""The benchmark's own tests: determinism, metric coverage, refusal.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (first call: about a minute on 4 cores)
and runs every workload a few times for one to six rounds, about three
minutes in all.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7


def bench(workload, trace=0, rounds=1, seed=SEED):
    """Runs one workload; returns (record, result) from its last two lines."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rounds", str(rounds)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_replays_exactly(self):
        # Two runs of one seed must agree on every exact cost: gas, chain
        # bytes, net bytes, the chain head hash and the gossip NetStats,
        # which the fingerprint covers.
        for w in [x["name"] for x in spec()["workloads"]]:
            with self.subTest(workload=w):
                first, result = bench(w)
                self.assertTrue(result["correct"], first["problems"])
                second, _ = bench(w)
                self.assertEqual(first["costs"], second["costs"])
                self.assertTrue(first["costs"]["fingerprint"])

    def test_rounds_replay_to_the_same_end_state(self):
        # Every round of a run rebuilds the system from the same seed, so
        # every round must end in the same state. Fails on lifecycle and
        # reuse while Marketplace::RunWorkload orders executors by heap
        # address (see README.md, "Replay depends on heap layout").
        for w in [x["name"] for x in spec()["workloads"]]:
            with self.subTest(workload=w):
                record, result = bench(w, rounds=6)
                self.assertTrue(result["correct"], record["problems"])
                self.assertEqual(record["replay_diverged_rounds"], 0)

    def test_every_metric_is_emitted_with_its_unit(self):
        s = spec()
        for w in [x["name"] for x in s["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    record, result = bench(w, trace=trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], record["problems"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in s[key]})
                    for m in s[key]:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    for field in ("build_type", "compiler", "commit", "nproc",
                                  "pool_threads", "seed", "ops",
                                  "host.ref_ms"):
                        self.assertIn(field, record)
                    if key == "end_to_end":
                        for m in s[key]:
                            self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_refuses_to_run_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gossip",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
