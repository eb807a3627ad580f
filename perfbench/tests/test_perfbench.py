"""Self-tests of kpbench, the benchmark program.

    python3 -m unittest discover -s perfbench/tests

Builds kpbench through run.py (into .bench_build/kpbench) and runs every
workload briefly. Takes about two minutes, most of it one pass over the
Table-2 suite per paper-csdf run.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload kpbench runs, including paper-csdf, which BENCHMARK.json
# leaves out as too unsteady to gate on (see README.md).
WORKLOADS = run.WORKLOADS
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")


class KpbenchTest(unittest.TestCase):
    binary = None
    out_dir = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.out_dir = tempfile.mkdtemp(prefix="kpbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out_dir, ignore_errors=True)

    def kpbench(self, workload, seed=1, trace=0, reference_dir=REFERENCE_DIR, seconds=0.3):
        """Runs one short workload; returns (run record, result object)."""
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--reference-dir", reference_dir, "--out-dir", self.out_dir],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        record = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("run-record "))
        return record, json.loads(lines[-1])

    def corrupted_reference(self, workload, row_name, new_period):
        """A copy of the reference directory with one row's period replaced."""
        tmp = tempfile.mkdtemp(prefix="kpbench-ref-", dir=self.out_dir)
        for name in os.listdir(REFERENCE_DIR):
            shutil.copy(os.path.join(REFERENCE_DIR, name), tmp)
        path = os.path.join(tmp, workload + ".tsv")
        with open(path) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            cells = line.split("\t")
            if cells[0] == row_name:
                cells[3] = new_period
                lines[i] = "\t".join(cells)
                break
        else:
            self.fail(f"{row_name} not in {path}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return tmp

    def test_corrupted_exact_value_is_a_failure(self):
        ref = self.corrupted_reference("paper-sdf", "h263decoder", "1")
        with open(os.path.join(REFERENCE_DIR, "paper-sdf.tsv")) as f:
            self.assertIn("h263decoder\t", f.read())
        record, result = self.kpbench("paper-sdf", reference_dir=ref)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(record["failed_frac"], 0)

    def test_tightened_bound_is_a_failure(self):
        # graph2 is committed as an achievable bound; a bound below what
        # K-Iter reaches must be reported, a looser one must pass.
        tight = self.corrupted_reference("paper-csdf", "graph2", "1")
        _, result = self.kpbench("paper-csdf", reference_dir=tight)
        self.assertEqual(result["failed"], 1)
        loose = self.corrupted_reference("paper-csdf", "graph2", "213585761030272992")
        _, result = self.kpbench("paper-csdf", reference_dir=loose)
        self.assertEqual(result["failed"], 0)

    def test_benchmark_names_kpbench_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_every_declared_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    record, result = self.kpbench(workload, trace=trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    if trace == 0:
                        # Each input at its fastest call is never slower than
                        # all calls as observed.
                        fastest = result["metrics"]["analyses_per_s"]["value"]
                        self.assertGreaterEqual(fastest, record["wall_analyses_per_s"] * (1 - 1e-9))

    def test_second_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                record, result = self.kpbench(workload, seed=2)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(record["failed_frac"], 0)
                self.assertGreaterEqual(result["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
