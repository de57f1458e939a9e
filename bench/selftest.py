"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 bench/selftest.py

Shows that every workload ends, with no failed op, and prints every metric
of BENCHMARK.json (end-to-end ones above 0, per-layer ones that the
workload should move above 0); that a corrupted result of the program is
counted as a failed op; and that the benchmark refuses to run where there
are no sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from child import measure  # noqa: E402
from tracer import replace_everywhere  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# per-layer metrics each workload must move (the layer table in README.md)
MOVES = {
    "metric": ["klein_space.project.calls", "klein_space.squared_distance.self_s",
               "klein_space.minimal_lifts.self_s", "klein_space.minimal_lifts.lifts"],
    "plan": ["planner.plan.self_s", "stratification.classify.calls",
             "cut_polytope.cells_distinct", "cut_polytope.halfspaces.calls",
             "cut_polytope.active_descriptors.self_s", "cut_polytope.face_equivalences.self_s",
             "planner.representatives.calls", "planner.strata_seen", "planner.table_reuse"],
    "atlas": ["stratification.catalog.self_s", "stratification.catalog.strata",
              "cut_polytope.vertices.count", "cut_polytope.face_lattice.faces",
              "cut_polytope.face_equivalences.classes", "planner.representatives.self_s"],
    "verify": ["oracle.brute_vertices.self_s", "oracle.brute_vertices.bases",
               "oracle.certify_vertices.edges", "oracle.brute_minimal_images.calls"],
}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class WorkloadRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in SPEC["workloads"]:
            name = workload["name"]
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"])
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0, proc.stderr)
                    metrics = result["metrics"]
                    self.assertEqual([(m, v["unit"]) for m, v in metrics.items()],
                                     [(m["name"], m["unit"]) for m in SPEC[key]])
                    must = [m["name"] for m in SPEC[key]] if trace == 0 else MOVES[name]
                    for metric in must:
                        self.assertGreater(metrics[metric]["value"], 0, metric)

    def test_refuses_a_tree_without_sources(self):
        bare = os.path.join(HERE, "results", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = _run(["--workload", "metric", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def _perturb_distance(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + Fraction(1, 10**9)


def _shift_index(fn):
    def broken(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, index=result.index + 1)
    return broken


def _singleton_classes(cell):
    return [[i] for i in range(len(cell.face_lattice()))]


class CorruptedResults(unittest.TestCase):
    """A wrong answer from the program makes every affected op fail."""

    def _expect_all_failed(self, workload):
        result = measure(workload, 5, 0.2, tiny=True)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"], result["problems"])

    def _with_patched_function(self, name, corrupt, workload):
        import flatklein
        original = getattr(flatklein, name)
        broken = corrupt(original)
        replace_everywhere(original, broken)
        try:
            self._expect_all_failed(workload)
        finally:
            replace_everywhere(broken, original)

    def test_perturbed_distance_fails_metric_ops(self):
        self._with_patched_function("squared_distance", _perturb_distance, "metric")

    def test_perturbed_distance_fails_verify_trials(self):
        self._with_patched_function("squared_distance", _perturb_distance, "verify")

    def test_wrong_index_fails_plan_ops(self):
        self._with_patched_function("plan", _shift_index, "plan")

    def test_wrong_face_classes_fail_atlas_ops(self):
        from flatklein import CutPolytope
        original = CutPolytope.face_equivalences
        CutPolytope.face_equivalences = _singleton_classes
        try:
            self._expect_all_failed("atlas")
        finally:
            CutPolytope.face_equivalences = original


if __name__ == "__main__":
    unittest.main()
