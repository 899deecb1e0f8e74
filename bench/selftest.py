#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about half a minute).

    python3 bench/selftest.py

Checks the self-time arithmetic on a hand-built span tree, that tracing
rebinds and restores every namespace, that each workload at toy size prints
exactly the metric names and units BENCHMARK.json declares, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0),
            Span("a", 1.0, 4.0, parent=0),
            Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union [1, 6] counts once
            Span("c", 2.0, 3.0, parent=1),
            Span("d", 9.0, 12.0, parent=0),  # runs past its parent: clipped to [9, 10]
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_leaf_and_empty(self):
        self.assertEqual(tracing.self_times([Span("x", 2.0, 2.5)]), [0.5])
        self.assertEqual(tracing.self_times([]), [])


class Install(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        sys.path.insert(0, str(ROOT / "src"))
        import hmmsv
        import hmmsv.cli
        import hmmsv.estimator
        import hmmsv.recursion

        original = hmmsv.recursion.backward_pass
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            wrapped = hmmsv.recursion.backward_pass
            self.assertIsNot(wrapped, original)
            for namespace in (hmmsv, hmmsv.estimator, hmmsv.cli):
                self.assertIs(namespace.backward_pass, wrapped)
            hmmsv.bic(-10.0, 2, 100)
        finally:
            tracing.uninstall(undo)
        for namespace in (hmmsv, hmmsv.recursion, hmmsv.estimator, hmmsv.cli):
            self.assertIs(namespace.backward_pass, original)
        self.assertEqual([s.name for s in tracer.spans], ["estimator.bic"])


class ToyRuns(unittest.TestCase):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_run(self, workload: str, trace: int, group: str):
        done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--toy")
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.declared[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            self.assertTrue(any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines), name)

    def test_workloads(self):
        for wl in self.declared["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    self.check_run(wl["name"], trace, group)


class NoProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = run_bench(bare, "--workload", "fit-h1", "--seed", "1", "--seconds", "1", "--trace", "0")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
