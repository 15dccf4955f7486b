"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract (keys, name and unit
charsets, bounds), that a tiny traced run reports every metric with the
result schema, that its work counters repeat across two runs, that the
traced self times account for the traced wall time, and that the benchmark
exits non-zero without a result when the program is absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest

import run

run.import_program()

from spans import SELF_TIMES  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class ContractTest(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(
            set(BENCH),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(all(PATH.fullmatch(p) and ".." not in p for p in BENCH["paths"]))
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(WORKLOADS))
        names = []
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}, BENCH["end_to_end"])
        self.assertTrue(len(json.dumps(BENCH)) <= 64 * 1024)


class TinyRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = [run.measure(TINY, 7, 1, True, {}) for _ in range(2)]

    def test_result_schema(self):
        for res in self.runs:
            res["end_to_end"]["setup_s"] = 0.1  # set-up is timed by main(), not measure()
            for trace in (False, True):
                line = run.result_line(res, BENCH, trace)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(line["correct"], True)
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                section = BENCH["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(line["metrics"]), [m["name"] for m in section])
                for value in line["metrics"].values():
                    self.assertEqual(set(value), {"value", "unit"})
                    self.assertIsInstance(value["value"], (int, float))
                json.loads(json.dumps(line, allow_nan=False))

    def test_counters_repeat(self):
        first, second = (r["per_layer"] for r in self.runs)
        counters = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "ratio")]
        self.assertEqual({k: first[k] for k in counters}, {k: second[k] for k in counters})
        self.assertGreater(first["simcore.drain_steps"], 0)
        self.assertGreater(first["synctask.deliveries"], 0)
        self.assertEqual(first["topology.build_calls"], 8 + 1 + 16 + 2)

    def test_self_times_account_for_traced_wall(self):
        for res in self.runs:
            layer = res["per_layer"]
            total = sum(layer[m] for m in SELF_TIMES.values())
            self.assertGreater(layer["harness.self_s"], 0.0)
            self.assertLess(layer["bench.self_s"], 0.01 * layer["traced_wall_s"])
            self.assertAlmostEqual(total, layer["traced_wall_s"], delta=0.02 * layer["traced_wall_s"])


class MissingProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        args = ["--workload", "gossip-sync", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
