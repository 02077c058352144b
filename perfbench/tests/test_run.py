"""Self-test of the perfbench benchmark, at tiny scale.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the program the way the benchmark does, which takes
a while on a clean checkout. Checks: every metric named in BENCHMARK.json
is emitted; a tampered reference digest and a tenant reference built from
the wrong spec both make `failed` > 0 and the command exit nonzero; the
traced output (result and Perfetto timeline) parses.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

# One cheap experiment of the studies workload, checked against the
# committed studies reference (per-experiment entries).
TINY_STUDIES = ["--workload", "studies", "--experiments",
                "ablation_hysteresis"]
TINY_SERVE = ["--serve-scale", "1"]


def bench(*args):
    """Run the benchmark; returns (exit code, result, details block)."""
    done = subprocess.run(RUN + ["--seed", "1", "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    details = next((json.loads(line) for line in lines
                    if line.startswith('{"context"')), None)
    return done.returncode, result, details


class PerfbenchSelfTest(unittest.TestCase):

    def assert_clean(self, code, result, names):
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(metric["unit"])

    def test_vpexp_workload_emits_every_end_to_end_metric(self):
        code, result, details = bench(*TINY_STUDIES, "--trace", "0")
        self.assert_clean(code, result, END_TO_END)
        self.assertEqual(details["context"]["build_type"], "Release")

    def test_serve_workload_emits_every_end_to_end_metric(self):
        code, result, _ = bench("--workload", "serve_event", *TINY_SERVE,
                                "--trace", "0")
        self.assert_clean(code, result, END_TO_END)

    def test_tampered_digest_fails(self):
        with open(os.path.join(ROOT, "perfbench", "reference",
                               "studies.json")) as f:
            reference = json.load(f)
        stats = reference["ablation_hysteresis"]["stats"]
        key, counts = stats[0].rsplit(" ", 1)
        stats[0] = "%s %d" % (key, int(counts) + 1)
        os.makedirs(SCRATCH, exist_ok=True)
        tampered = os.path.join(SCRATCH, "tampered-studies.json")
        with open(tampered, "w") as f:
            json.dump(reference, f)
        code, result, _ = bench(*TINY_STUDIES, "--reference", tampered,
                                "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_tenant_reference_spec_fails(self):
        code, result, _ = bench("--workload", "serve_batch", *TINY_SERVE,
                                "--reference-spec", "l", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_traced_run_emits_ledger_and_timeline(self):
        code, result, details = bench("--workload", "serve_event",
                                      *TINY_SERVE, "--trace", "1")
        self.assert_clean(code, result, PER_LAYER)
        with open(os.path.join(ROOT, details["details"]["timeline"])) as f:
            timeline = json.load(f)
        spans = [e for e in timeline["traceEvents"] if e["ph"] == "X"]
        self.assertTrue(spans)
        names = {e["name"].split(" ")[0] for e in spans}
        for layer in ("vm", "trace", "core", "sim", "net.codec", "rtt",
                      "cell", "replay"):
            self.assertIn(layer, names)
        for span in spans:
            self.assertGreaterEqual(span["dur"], 0)
            self.assertLessEqual(span["args"]["self_us"],
                                 span["dur"] + 1e-3)


if __name__ == "__main__":
    unittest.main()
