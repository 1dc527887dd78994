#!/usr/bin/env python3
"""Tests of the benchmark itself, on a tiny size of every workload and a
seed held out from the recorded fingerprints.

    python3 perfbench/test_bench.py

Run from the repository root; builds through run.py into $CARGO_TARGET_DIR
(default .bench_build) and keeps its files under that directory.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SEED = "7919"  # held out: fingerprints.tsv records no row for it

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, extra=(), env=None):
    """Runs one tiny workload through run.py; returns (code, stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "0", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def fingerprints(stdout):
    return sorted(line for line in stdout.splitlines()
                  if line.startswith("fingerprint\t"))


class BenchmarkTest(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, out = run(workload, trace)
                    self.assertEqual(code, 0)
                    r = result(out)
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"], out)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]),
                                     {m["name"] for m in declared})
                    for m in declared:
                        self.assertEqual(r["metrics"][m["name"]]["unit"],
                                         m["unit"], m["name"])
                    if trace == 0:
                        for name, metric in r["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_fingerprints_repeat_across_invocations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = fingerprints(run(workload)[1])
                self.assertTrue(first)
                self.assertEqual(first, fingerprints(run(workload)[1]))

    def test_traced_run_simulates_what_the_untraced_run_does(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(fingerprints(run(workload, 0)[1]),
                                 fingerprints(run(workload, 1)[1]))

    def test_daemon_recovery_matches_an_uninterrupted_run(self):
        halted = fingerprints(run("daemon-stream")[1])
        whole = fingerprints(run("daemon-stream",
                                 extra=["--daemon-uninterrupted"])[1])
        self.assertTrue(halted)
        self.assertEqual(halted, whole)

    def test_a_wrong_fingerprint_fails_and_names_the_cell(self):
        code, out = run("fat8-trace")
        self.assertEqual(code, 0)
        row = fingerprints(out)[0].split("\t")[1:6]
        row[4] = "%016x" % (int(row[4], 16) ^ 1)
        table = os.path.join(BUILD, "test-fingerprints.tsv")
        with open(table, "w") as f:
            f.write("\t".join(row) + "\n")
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", "fat8-trace",
             "--seed", SEED, "--seconds", "0", "--trace", "0", "--size",
             "tiny", "--fingerprints", table, "--scratch",
             os.path.join(BUILD, "run")],
            capture_output=True, text=True, timeout=600)
        r = result(proc.stdout)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertIn("FAILED " + row[3], proc.stdout)

    def test_refuses_a_forced_oracle_allocator(self):
        env = dict(os.environ, GURITA_ALLOCATOR="oracle")
        code, out = run("fat8-trace", env=env)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(BUILD, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fat8-trace",
             "--seed", SEED, "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, env=env, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
