"""Fast self-test of the benchmark harness (a few seconds; runs no workload).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that the metric names and
units run.py prints are exactly the ones BENCHMARK.json declares, that every
function the traced run wraps still exists in proplab and records spans, and
that the harness refuses to run, without printing a result, where the
program's sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def fake_round(trace):
    layers = {name: 1.0 for name, _ in run.per_layer_metrics()}
    return {"wall": 2.0, "rss": 100.0, "setups": [1.5], "traced_wall": 2.5,
            "layers": layers if trace else {}, "imports": [(1.2, 1.0)] if trace else [],
            "attempted": 1, "failed": 0}


class BenchmarkFile(unittest.TestCase):
    def test_format(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertIsInstance(bench["run_seconds"], int)
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(bench["per_layer"]) <= 128)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        self.assertEqual(len(set(m["name"] for m in bench["end_to_end"]
                                 + bench["per_layer"])),
                         len(bench["end_to_end"]) + len(bench["per_layer"]))
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_workloads_match(self):
        bench = load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.ROUNDS))


class PrintedMetrics(unittest.TestCase):
    def check_report(self, trace, declared):
        result = run.report([fake_round(trace), fake_round(trace)], trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual([(n, m["unit"]) for n, m in result["metrics"].items()],
                         [(m["name"], m["unit"]) for m in declared])
        json.dumps(result, allow_nan=False)

    def test_end_to_end(self):
        self.check_report(False, load_benchmark()["end_to_end"])

    def test_per_layer(self):
        self.check_report(True, load_benchmark()["per_layer"])


class Tracing(unittest.TestCase):
    def test_wrapped_functions_exist_and_record(self):
        import numpy as np

        tracer = tracing.Tracer()
        tracer.install()
        from proplab import GridSpec, SampledField, tfa

        grid = GridSpec(1, 4.0, 64)
        field = SampledField(grid, np.exp(-np.pi * grid.axis() ** 2))
        tfa.mod_norm(field, tfa.StftSpec(tfa.default_window(grid)), tfa.INF_1)
        summary = tracer.summary()
        self.assertEqual(summary["tfa.mod_norm.calls"], 1)
        # one transform per lattice position, each nested in the mod_norm span
        self.assertEqual(summary["grid.dft.calls"], 64)
        self.assertEqual(summary["grid.dft.points"], 64 * 64)
        parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "grid.dft"}
        self.assertEqual(parents, {"tfa.mod_norm"})
        self.assertGreater(summary["tfa.mod_norm.s"], 0.0)


class MissingSources(unittest.TestCase):
    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "converge",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
