"""Self-test of tools/benchdiff over synthetic perfbench results.

Run from the repository root:

    python3 -m unittest discover -s tools/tests -v

No benchmark runs: every case feeds summarise() (or `--read`) result
records built here, so the test takes well under a second.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TOOL = os.path.join(ROOT, "tools", "benchdiff")

_loader = importlib.machinery.SourceFileLoader("benchdiff", TOOL)
_spec = importlib.util.spec_from_loader("benchdiff", _loader)
benchdiff = importlib.util.module_from_spec(_spec)
_loader.exec_module(benchdiff)

BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pred_per_s", "unit": "events/s", "better": "higher",
     "bound": 0.25},
]}


def result(wall, rate, failed=0, attempted=7):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "pred_per_s": {"value": rate,
                                       "unit": "events/s"}}}


def full_result(scale):
    """A result carrying every end-to-end metric the repository's
    BENCHMARK.json declares, each at 100 times @p scale in its better
    direction (scale > 1 is better)."""
    metrics = {}
    for metric in benchdiff.load_benchmark()["end_to_end"]:
        value = 100 * scale if metric["better"] == "higher" \
            else 100 / scale
        metrics[metric["name"]] = {"value": value,
                                   "unit": metric["unit"]}
    return {"correct": True, "attempted": 7, "failed": 0,
            "metrics": metrics}


def runs(parent, change):
    """Records for pairs 1..n from two lists of results."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side in benchdiff.pair_order(pair):
            out.append({"pair": pair, "side": side,
                        "result": p if side == "parent" else c})
    return out


def row(summary, name):
    return next(r for r in summary["metrics"] if r["name"] == name)


class BenchdiffTest(unittest.TestCase):

    def test_pairs_alternate_the_starting_side(self):
        self.assertEqual(benchdiff.pair_order(1), ("parent", "change"))
        self.assertEqual(benchdiff.pair_order(2), ("change", "parent"))

    def test_clear_gain_is_won_and_resolved(self):
        parent = [result(10 + 0.1 * i, 100) for i in range(10)]
        change = [result(6 + 0.1 * i, 150) for i in range(10)]
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertTrue(summary["ok"])
        wall = row(summary, "wall_s")
        self.assertEqual((wall["wins"], wall["pairs"]), (10, 10))
        self.assertTrue(wall["resolved"])
        self.assertAlmostEqual(wall["parent"]["median"], 10.45)
        self.assertAlmostEqual(wall["change"]["median"], 6.45)
        self.assertAlmostEqual(wall["parent"]["q1"], 10.225)
        self.assertAlmostEqual(wall["parent"]["q3"], 10.675)
        rate = row(summary, "pred_per_s")
        self.assertEqual(rate["wins"], 10)      # higher is better

    def test_noise_is_not_resolved(self):
        parent = [result(w, 100) for w in (10, 12, 10, 12, 10, 12)]
        change = [result(w, 100) for w in (11, 11, 11, 11, 11, 11)]
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertTrue(summary["ok"])
        self.assertFalse(row(summary, "wall_s")["resolved"])
        self.assertEqual(row(summary, "pred_per_s")["wins"], 0)

    def test_worse_than_bound_fails(self):
        parent = [result(10, 100)] * 4
        change = [result(13, 100)] * 4         # wall +30% > 25%
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertFalse(summary["ok"])
        self.assertFalse(row(summary, "wall_s")["within_bound"])
        change = [result(12, 100)] * 4         # +20%: within bound
        self.assertTrue(
            benchdiff.summarise(runs(parent, change), BENCHMARK)["ok"])
        change = [result(10, 70)] * 4          # rate -30%
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertFalse(row(summary, "pred_per_s")["within_bound"])

    def test_rising_failures_fail(self):
        parent = [result(10, 100)] * 3
        change = [result(9, 110, failed=1)] + [result(9, 110)] * 2
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertTrue(summary["failed_rose"])
        self.assertFalse(summary["ok"])
        self.assertEqual(summary["failed"]["change"], 1)

    def test_a_run_without_result_fails(self):
        records = runs([result(10, 100)] * 2, [result(9, 110)] * 2)
        records.append({"pair": 3, "side": "change", "result": None})
        summary = benchdiff.summarise(records, BENCHMARK)
        self.assertEqual(summary["errors"]["change"], 1)
        self.assertFalse(summary["ok"])

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        parent = [result(w, 100) for w in (5, 10, 15, 5, 10, 15)]
        change = [result(10, 100)] * 6
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertTrue(summary["ok"])
        self.assertTrue(row(summary, "wall_s")["unresolved"])
        self.assertFalse(row(summary, "pred_per_s")["unresolved"])
        text = benchdiff.format_summary(summary)
        self.assertIn("ok* (0.25)", text)
        self.assertIn("* unresolved", text)

    def test_change_beating_every_parent_run_is_resolved(self):
        parent = [result(w, 100) for w in (5, 10, 15, 5, 10, 15)]
        change = [result(4, 100)] * 6
        summary = benchdiff.summarise(runs(parent, change), BENCHMARK)
        self.assertFalse(row(summary, "wall_s")["unresolved"])
        self.assertNotIn("*", benchdiff.format_summary(summary))

    def test_read_mode_judges_against_the_repository_bounds(self):
        names = [m["name"]
                 for m in benchdiff.load_benchmark()["end_to_end"]]
        records = runs([full_result(1)] * 3, [full_result(2)] * 3)
        with tempfile.TemporaryDirectory() as tmp:
            saved = os.path.join(tmp, "saved.json")
            with open(saved, "w") as f:
                json.dump({"workload": "studies", "runs": records}, f)
            done = subprocess.run(
                [sys.executable, TOOL, "--read", saved],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 0, done.stderr)
            for name in names:
                self.assertIn(name, done.stdout)
            self.assertEqual(done.stdout.count("3/3"), len(names))
            self.assertNotIn("missing", done.stdout)

            worse = runs([full_result(1)] * 3, [full_result(0.5)] * 3)
            with open(saved, "w") as f:
                json.dump({"workload": "studies", "runs": worse}, f)
            done = subprocess.run(
                [sys.executable, TOOL, "--read", saved],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 1)
            self.assertEqual(done.stdout.count("WORSE"), len(names))

    def test_trace_mode_summarises_every_per_layer_metric(self):
        layers = benchdiff.load_benchmark()["per_layer"]

        def traced(scale):
            # Every per-layer metric at 100 times @p scale in its
            # better direction (scale > 1 is better).
            return {"correct": True, "attempted": 7, "failed": 0,
                    "metrics": {m["name"]: {
                        "value": 100 * scale if m["better"] == "higher"
                        else 100 / scale, "unit": m["unit"]}
                        for m in layers}}

        # The change is 10x worse everywhere: no bound, so no verdict.
        records = runs([traced(1)] * 3, [traced(0.1)] * 3)
        summary = benchdiff.summarise(records, {"per_layer": layers},
                                      trace=True)
        self.assertTrue(summary["ok"])
        self.assertEqual([r["name"] for r in summary["metrics"]],
                         [m["name"] for m in layers])
        self.assertTrue(all(r["wins"] == 0 and r["resolved"]
                            for r in summary["metrics"]))
        with tempfile.TemporaryDirectory() as tmp:
            saved = os.path.join(tmp, "saved.json")
            better = runs([traced(1)] * 3, [traced(2)] * 3)
            with open(saved, "w") as f:
                json.dump({"workload": "studies", "trace": True,
                           "runs": better}, f)
            done = subprocess.run(
                [sys.executable, TOOL, "--read", saved],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 0, done.stderr)
            for metric in layers:
                self.assertIn(metric["name"], done.stdout)
            self.assertEqual(done.stdout.count("3/3"), len(layers))
            self.assertNotIn("WORSE", done.stdout)
            self.assertNotIn("ok (", done.stdout)

    def test_results_mode_names_moved_counters_and_members(self):
        def cell(workload, wall, probes, correct=(5, 7), window=3):
            return {"id": 0, "workload": workload, "input": "ref",
                    "flags": "ref", "scale": 5, "wallMs": wall,
                    "predictors": [
                        {"spec": "l", "eligible": 10, "predicted": 9,
                         "correct": correct[0]},
                        {"spec": "fcm3@16/48x16", "eligible": 10,
                         "predicted": 8, "correct": correct[1]}],
                    "counters": {
                        "counters": {"fcm.vpt.probes": probes,
                                     "fcm.vpt.evictions": 4},
                        "gauges": {"fcm.vpt.occupancy": 48},
                        "histograms": {"fcm.vpt.probe_depth": {
                            "count": probes, "sum": 2 * probes}}},
                    "windows": {"samples": [{"endEvent": 8, "members": [
                        {"eligible": 8, "predicted": 7, "correct": window},
                        {"eligible": 8, "predicted": 6,
                         "correct": 4}]}]}}

        def doc(*cells):
            return {"wallMs": sum(c["wallMs"] for c in cells),
                    "cells": list(cells)}

        a = doc(cell("gcc", 100.0, 50), cell("go", 40.0, 20))
        # Cells are matched by trace and members, not by position.
        b = doc(cell("go", 40.0, 20), cell("gcc", 80.0, 30))
        comparison = benchdiff.compare_results(a, b)
        self.assertTrue(comparison["ok"])
        gcc, go = comparison["cells"]
        self.assertAlmostEqual(gcc["ratio"], 0.8)
        self.assertEqual(gcc["counters"],
                         ["fcm.vpt.probe_depth", "fcm.vpt.probes"])
        self.assertEqual((go["counters"], go["members"]), ([], []))
        text = benchdiff.format_results(comparison)
        self.assertIn("wallMs 100.0 -> 80.0 (0.800x)", text)
        self.assertIn("fcm.vpt.probes (1 cells)", text)
        self.assertNotIn("fcm.vpt.evictions", text)

        # A member's totals, or one window of them, differ: exit 1.
        for changed in (cell("gcc", 80.0, 50, correct=(5, 6)),
                        cell("gcc", 80.0, 50, window=2)):
            comparison = benchdiff.compare_results(
                    a, doc(changed, cell("go", 40.0, 20)))
            self.assertFalse(comparison["ok"])
            self.assertEqual(len(comparison["cells"][0]["members"]), 1)
        self.assertIn("fcm3@16/48x16 correct 7 -> 6",
                      benchdiff.format_results(benchdiff.compare_results(
                          a, doc(cell("gcc", 80.0, 50, correct=(5, 6)),
                                 cell("go", 40.0, 20)))))
        # A cell on one side only.
        self.assertFalse(benchdiff.compare_results(
                a, doc(cell("gcc", 80.0, 30)))["ok"])
        self.assertFalse(benchdiff.compare_results(
                doc(cell("gcc", 80.0, 30)), a)["ok"])

        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("a", "b", "c")]
            for path, document in zip(paths, (
                    a, b, doc(cell("gcc", 80.0, 50, correct=(4, 7)),
                              cell("go", 40.0, 20)))):
                with open(path, "w") as f:
                    json.dump(document, f)
            done = subprocess.run(
                [sys.executable, TOOL, "--results", paths[0], paths[1]],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 0, done.stderr)
            self.assertIn("members identical", done.stdout)
            done = subprocess.run(
                [sys.executable, TOOL, "--results", paths[0], paths[2]],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 1)
            self.assertIn("member differs: l correct 5 -> 4",
                          done.stdout)
            done = subprocess.run(
                [sys.executable, TOOL, "--results", paths[0],
                 os.path.join(tmp, "absent")],
                capture_output=True, text=True)
            self.assertEqual(done.returncode, 2)

    def test_usage_errors_exit_2(self):
        done = subprocess.run([sys.executable, TOOL],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)


if __name__ == "__main__":
    unittest.main()
