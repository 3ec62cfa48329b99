"""Self-tests of the benchmark harness (not of sabi itself).

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the per-layer counts on a small traced
run, failure counting, and that the seed reaches the library only through
the generated config. Scratch files go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import MISSING, Accumulator, layer_metrics  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from worker import run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sabi.config import parse_config  # noqa: E402
from sabi.runner import resume_member, run_ensemble  # noqa: E402

WORK = HERE.parent / ".perfbench"
API = SimpleNamespace(parse_config=parse_config, run_ensemble=run_ensemble, resume_member=resume_member)


def setUpModule():
    WORK.mkdir(exist_ok=True)


def small(config: dict, n: int = 8) -> dict:
    config["grid"] = {"nx": n, "ny": n, "nz": n}
    return config


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # (id, parent, name, start, end, count, bytes)
        spans = [
            (1, 0, "a", 0.0, 10.0, 0, 0),
            (2, 1, "b", 1.0, 4.0, 0, 0),
            (3, 2, "d", 2.0, 3.0, 0, 0),
            (4, 1, "c", 5.0, 9.0, 0, 0),
        ]
        own = self_times(spans)
        self.assertEqual(own, {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})

    def test_overlapping_children_count_once(self):
        spans = [
            (1, 0, "a", 0.0, 10.0, 0, 0),
            (2, 1, "b", 1.0, 4.0, 0, 0),
            (3, 1, "c", 3.0, 6.0, 0, 0),
        ]
        self.assertEqual(self_times(spans)[1], 5.0)

    def test_missing_boundary_is_minus_one_not_zero(self):
        acc = Accumulator()
        acc.add_spans([(1, 0, "integrators.rk4_step", 0.0, 1.0, 0, 0)])
        values, reasons = layer_metrics(acc)
        self.assertEqual(values["grid.transforms_per_step"], MISSING)
        self.assertIn("grid.rfft", reasons["grid.transforms_per_step"])
        self.assertEqual(values["integrators.self_ms_per_step"], 1e3)

    def test_bypassed_boundary_reads_zero(self):
        acc = Accumulator()
        acc.add_spans([(1, 0, "integrators.rk4_step", 0.0, 1.0, 0, 0)])
        values, reasons = layer_metrics(acc, WORKLOADS["bi-rk4-64"].bypasses)
        self.assertEqual(values["noise.combine_us"], 0.0)
        self.assertEqual(values["outputs.write_mb_per_s"], 0.0)
        self.assertIn("bypassed", reasons["noise.combine_us"])
        # Transforms are not bypassed on bi-rk4-64, so they still read missing.
        self.assertEqual(values["grid.transforms_per_step"], MISSING)


class TracedCounts(unittest.TestCase):
    def test_bi_rk4_counts(self):
        config = small(WORKLOADS["bi-rk4-64"].make_config(3), 16)
        tracer = Tracer()
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            # The first iteration is an untraced warm-up; a tiny budget gives one traced one.
            record = run_round(WORKLOADS["bi-rk4-64"], config, 1e-9, Path(tmp), tracer)
        self.assertEqual(record["failed"], 0)
        acc = Accumulator()
        acc.add_spans(tracer.spans)
        values, _ = layer_metrics(acc)
        self.assertEqual(values["grid.transforms_per_step"], 48)
        self.assertEqual(values["dynamics.drift_calls_per_step"], 4)
        self.assertEqual(values["diagnostics.samples"], 3)


class Failures(unittest.TestCase):
    def test_numerical_error_is_one_failed_operation(self):
        config = small(WORKLOADS["bi-rk4-64"].make_config(1))
        config["integrator"]["dt"] = 1.0  # Courant number 1.27 trips the 0.5 guard
        config["integrator"]["t_end"] = 2.0
        config["ensemble"] = {"members": 3, "seed": 0}
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            record = run_round(WORKLOADS["bi-rk4-64"], config, 1.0, Path(tmp))
        self.assertEqual((record["attempted"], record["failed"]), (1, 1))
        self.assertIn("NumericalError", record["errors"][0])
        self.assertEqual(record["member_steps"], 0)


class SeedPath(unittest.TestCase):
    def _csv(self, config: dict, root: Path) -> bytes:
        result = run_ensemble(parse_config(config), root)
        return (result.output_dir / "member_0001" / "diagnostics.csv").read_bytes()

    def _config(self, seed: int) -> dict:
        config = small(WORKLOADS["mhd-io-32"].make_config(seed))
        config["integrator"]["t_end"] = 0.04
        config["ensemble"]["members"] = 2
        config["output"].update(snapshot_interval=2, checkpoint_interval=2)
        return config

    def test_every_workload_config_follows_seed(self):
        for workload in WORKLOADS.values():
            self.assertEqual(workload.make_config(5), workload.make_config(5))
            self.assertNotEqual(workload.make_config(5), workload.make_config(6))

    def test_same_seed_same_csv_bytes(self):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            a = self._csv(self._config(5), Path(tmp) / "a")
            b = self._csv(self._config(5), Path(tmp) / "b")
            c = self._csv(self._config(6), Path(tmp) / "c")
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_seed_reaches_library_only_through_config(self):
        # The generated config, as JSON text, is everything the library gets:
        # the same text reproduces the outputs, and the seed is in it.
        text = json.dumps(self._config(5))
        self.assertEqual(json.loads(text), self._config(5))
        self.assertNotEqual(text, json.dumps(self._config(6)))
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            direct = self._csv(json.loads(text), Path(tmp) / "a")
            via_round = WORKLOADS["mhd-io-32"].iterate(
                API, parse_config(self._config(5)), Path(tmp) / "b"
            )[1][0].members[1].csv_text.encode()
        self.assertEqual(direct, via_round)


if __name__ == "__main__":
    unittest.main()
