"""Self-tests of the benchmark itself: its oracles, percentiles, set-up
timing, workload properties and the metric names in BENCHMARK.json.

    python3 perfbench/selftest.py      # from the root of a checkout; ~10 s
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import diskcovers as dc  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _wrong_total(seq, spec):
    right = _REAL_RESTRICTED_TOTAL(seq, spec)
    return dc.Permutation(right.images[1:] + right.images[:1])


_REAL_RESTRICTED_TOTAL = dc.restricted_total_monodromy


class Oracles(unittest.TestCase):
    def test_wrong_restriction_answer_fails_its_items(self):
        with mock.patch.object(dc, "restricted_total_monodromy", _wrong_total):
            result = worker.run_pass("queries", 1, trace=False, spawned=time.monotonic())
        self.assertEqual(len(result["failures"]), len(result["items"]))
        self.assertIn("restriction identity fails", result["failures"][0]["error"])

    def test_wrong_orbit_index_fails(self):
        with mock.patch.object(dc, "stabilizer_index", lambda seq: 28):
            with self.assertRaises(workloads.Failed):
                workloads._schreier(3, [(1, 2), (2, 3), (1, 3), (1, 2)])

    def test_wrong_cli_result_fails(self):
        argv, expected = workloads.cli_case(workloads.random.Random(1), "invariants")
        self.assertEqual(workloads._cli_ok(argv, expected), {})
        with self.assertRaises(workloads.Failed):
            workloads._cli_ok(argv, {**expected, "chi": expected["chi"] + 1})

    def test_known_defect_is_told_apart_from_other_failures(self):
        with self.assertRaises(workloads.KnownDefect):
            workloads._cli_invalid("degree-true", workloads.MALFORMED["degree-true"])
        with self.assertRaises(workloads.Failed) as caught:  # valid input to an "invalid" item
            workloads._cli_invalid("degree-true", ["target", "--degree", "3", "--n", "2", "--omega", "3"])
        self.assertNotIsInstance(caught.exception, workloads.KnownDefect)


class Percentiles(unittest.TestCase):
    def test_refused_under_100_items(self):
        with self.assertRaises(ValueError):
            run.percentile([float(i) for i in range(99)], 90)

    def test_ten_samples_beyond_p90(self):
        values = [float(i) for i in range(100)]
        p90 = run.percentile(values, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)
        self.assertEqual(run.percentile(values, 50), 49.0)


class SetupTime(unittest.TestCase):
    def test_setup_excludes_timed_phase(self):
        def slow_plan(workload, seed):
            time.sleep(0.2)
            return workloads.Plan([workloads.Item("sleep", "sleep", lambda: time.sleep(0.4) or {})], {})

        with mock.patch.object(workloads, "plan", slow_plan):
            result = worker.run_pass("queries", 1, trace=False, spawned=time.monotonic())
        self.assertGreaterEqual(result["setup_raw_s"], 0.2)
        self.assertLess(result["setup_raw_s"], 0.4)
        self.assertGreaterEqual(result["wall_s"], 0.4)


class Normalization(unittest.TestCase):
    def test_wall_is_divided_by_the_reference_chunk(self):
        def plan(workload, seed):
            return workloads.Plan([workloads.Item("sleep", "sleep", lambda: time.sleep(0.2) or {})] * 2, {})

        with mock.patch.object(workloads, "plan", plan), \
                mock.patch.object(worker, "reference_chunk", lambda: time.sleep(0.004)):
            result = worker.run_pass("queries", 1, trace=False, spawned=time.monotonic())
        self.assertGreaterEqual(result["ref_chunk_ms"], 4.0)
        self.assertAlmostEqual(result["wall_norm_s"], result["wall_s"] / result["ref_chunk_ms"], places=9)
        self.assertAlmostEqual(result["setup_s"], result["setup_raw_s"] / result["ref_chunk_ms"], places=9)
        self.assertLess(result["wall_norm_s"], result["wall_s"] / 4)

    def test_timer_runs_chunks_inside_a_computing_item(self):
        with worker.Reference(timer=True) as reference:
            end = time.process_time() + 0.3
            while time.process_time() < end:
                pass
        self.assertGreaterEqual(reference.chunks, 5)
        with worker.Reference(timer=False) as reference:
            time.sleep(0.05)
        self.assertEqual(reference.chunks, 0)


class Properties(unittest.TestCase):
    def test_repeat_for_one_seed_and_differ_for_another(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.plan(workload, 1).properties
                self.assertEqual(first, workloads.plan(workload, 1).properties)
                self.assertNotEqual(first, workloads.plan(workload, 2).properties)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tree = [spans.Span("a", 0.0, None, None, end=10.0), spans.Span("b", 1.0, 0, None, end=4.0),
                spans.Span("c", 5.0, 0, None, end=6.0), spans.Span("d", 2.0, 1, None, end=3.0)]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0])

    def test_nested_calls_get_spans_and_uninstall_restores(self):
        original = dc.stabilizer_index
        tracer = spans.Tracer()
        tracer.install()
        try:
            dc.stabilizer_index(dc.disk_covering(3))
        finally:
            tracer.uninstall()
        self.assertIs(dc.stabilizer_index, original)
        names = [s.name for s in tracer.spans]
        outer, inner = names.index("orbit.stabilizer_index"), names.index("orbit.hurwitz_orbit")
        self.assertEqual(tracer.spans[inner].parent, outer)
        self.assertEqual(tracer.spans[inner].counts, {"elements": 16, "letters_computed": 64})


class BenchmarkFile(unittest.TestCase):
    def test_metric_and_workload_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.per_layer_names())
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(metric["unit"], run.unit(metric["name"]), metric["name"])

    def test_cli_commands_cover_the_mix(self):
        kinds = set(workloads.CLI_LIGHT) | {c for c, _ in workloads.CLI_HEAVY} | {"invalid-input"}
        self.assertEqual(kinds, set(run.CLI_COMMANDS))


if __name__ == "__main__":
    unittest.main()
