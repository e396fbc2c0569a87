"""Smoke tests of the benchmark itself.

Every workload, untraced and traced, must emit exactly the metrics
BENCHMARK.json names, with their units; the benchmark must refuse to run
without the sources; the compare step must warn on unlike runs; time a
request spends waiting or in a child process must count.  The runs use
``--smoke`` sizes.  Run from anywhere::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from compare import provenance_warnings  # noqa: E402
from meter import Meter, cpu_time  # noqa: E402


def _run(workload: str, trace: int, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


class EmitsEveryMetric(unittest.TestCase):
    def _check(self, workload: str, trace: int) -> None:
        done = _run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in listed])
        for m in listed:
            entry = result["metrics"][m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertIsInstance(entry["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(entry["value"], 0, m["name"])


for _w in SPEC["workloads"]:
    for _trace in (0, 1):
        def _test(self, workload=_w["name"], trace=_trace):
            self._check(workload, trace)
        setattr(EmitsEveryMetric,
                f"test_{_w['name'].replace('-', '_')}_trace{_trace}", _test)


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_alone_exit_nonzero(self):
        state = HERE / ".state"
        state.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=state) as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench", ignore=shutil
                            .ignore_patterns(".state", "__pycache__"))
            done = _run(SPEC["workloads"][0]["name"], 0, root)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class CompareWarns(unittest.TestCase):
    def _doc(self, engine: str, compiled: bool) -> dict:
        return {"workload": "check-suite", "smoke": False, "trace": 0,
                "provenance": {
                    "engine": engine, "native_compiled": compiled,
                    "engine_provenance": {"compiled": compiled},
                    "python": {"version": "3"}, "nproc": 1}}

    def test_engine_or_compiledness_difference_warns(self):
        same = provenance_warnings(self._doc("ref", False),
                                   self._doc("ref", False))
        self.assertEqual(same, [])
        warned = provenance_warnings(self._doc("ref", False),
                                     self._doc("native", True))
        self.assertTrue(any("engine" in w for w in warned))
        self.assertTrue(any("compiled" in w for w in warned))


class MeterCountsTimeOffThisCpu(unittest.TestCase):
    def test_waiting_counts(self):
        meter = Meter()
        meter.start()
        time.sleep(0.2)
        nominal, raw, off_cpu = meter.stop()
        self.assertGreaterEqual(raw, 0.2)
        self.assertGreaterEqual(off_cpu, 0.15)
        self.assertGreaterEqual(nominal, off_cpu)

    def test_child_cpu_counts(self):
        before = cpu_time()
        subprocess.run([sys.executable, "-c",
                        "import time\n"
                        "end = time.process_time() + 0.2\n"
                        "while time.process_time() < end: pass"],
                       check=True)
        self.assertGreaterEqual(cpu_time() - before, 0.2)


if __name__ == "__main__":
    unittest.main()
