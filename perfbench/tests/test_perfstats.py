"""Tests of the benchmark's own code.

Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import perfstats  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(i, parent, name, start, end, count=1, busy=None):
    return dict(id=i, parent=parent, op=0, name=name, start=start, end=end, count=count,
                busy=end - start if busy is None else busy)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = perfstats.quartiles(xs)
        self.assertEqual([q1, med, q3], statistics.quantiles(xs, n=4))
        self.assertEqual(med, 4.0)
        self.assertEqual(perfstats.median(xs), 4.0)

    def test_even_count_median_is_midpoint(self):
        self.assertEqual(perfstats.median([1, 2, 3, 10]), 2.5)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(perfstats.quartiles([3.5]), (3.5, 3.5, 3.5))

    def test_spread_is_iqr_over_median(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(perfstats.spread(xs), (q3 - q1) / med)

    def test_summary_reports_count(self):
        s = perfstats.summary([1, 2, 3])
        self.assertEqual((s["median"], s["n"]), (2, 3))


class Tail(unittest.TestCase):
    def test_hundred_samples_gives_p90(self):
        xs = list(range(1, 101))
        self.assertEqual(perfstats.tail(xs), (90, 90))

    def test_forty_samples_gives_p75(self):
        xs = list(range(1, 41))
        value, pct = perfstats.tail(xs)
        self.assertEqual((value, pct), (30, 75))

    def test_always_ten_beyond_and_highest_such_percentile(self):
        for n in range(20, 250):
            xs = [float(i) for i in range(n)]
            value, pct = perfstats.tail(xs)
            self.assertGreaterEqual(sum(x > value for x in xs), 10, n)
            if pct < 99:
                rank = -(-(pct + 1) * n // 100)
                self.assertLess(n - rank, 10, n)

    def test_too_few_samples_fall_back_to_median(self):
        xs = list(range(19))
        self.assertEqual(perfstats.tail(xs), (perfstats.median(xs), 50))
        self.assertEqual(perfstats.tail([4.0]), (4.0, 50))

    def test_order_does_not_matter(self):
        xs = [3, 1, 2] * 20
        self.assertEqual(perfstats.tail(xs), perfstats.tail(sorted(xs)))


class SelfTime(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(perfstats.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(perfstats.union_length([]), 0)

    def test_parent_minus_union_of_children(self):
        spans = [
            span(0, -1, "op", 0, 100),
            span(1, 0, "a", 10, 30),
            span(2, 0, "b", 20, 50),  # overlaps a: counted once
            span(3, 0, "a", 70, 80),
        ]
        t = perfstats.self_times(spans)
        self.assertAlmostEqual(t["op"] * 1e9, 100 - 50)
        self.assertAlmostEqual(t["a"] * 1e9, 30)
        self.assertAlmostEqual(t["b"] * 1e9, 30)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            span(0, -1, "op", 0, 100),
            span(1, 0, "run", 0, 60),
            span(2, 1, "leaf", 10, 50),
        ]
        t = perfstats.self_times(spans)
        self.assertAlmostEqual(t["op"] * 1e9, 40)
        self.assertAlmostEqual(t["run"] * 1e9, 20)
        self.assertAlmostEqual(t["leaf"] * 1e9, 40)

    def test_folded_leaves_cover_their_busy_time(self):
        spans = [
            span(0, -1, "engine.run", 0, 1000),
            span(1, 0, "bench.callback", 5, 990, count=300, busy=120),
        ]
        t = perfstats.self_times(spans)
        self.assertAlmostEqual(t["engine.run"] * 1e9, 880)
        self.assertAlmostEqual(t["bench.callback"] * 1e9, 120)

    def test_parse_round_trip(self):
        lines = ["0 -1 -1 setup 0 5 1 5", "1 -1 0 op 5 20 1 15", "2 1 0 x 6 9 4 2"]
        spans = perfstats.parse_spans(lines)
        self.assertEqual(spans[2], dict(id=2, parent=1, op=0, name="x", start=6, end=9, count=4, busy=2))

    def test_recorder_nests_and_is_free_when_off(self):
        ticks = iter(range(0, 100))
        rec = perfstats.Recorder(True, lambda: next(ticks))
        a = rec.begin("op")
        b = rec.begin("child")
        rec.end(b)
        rec.end(a)
        self.assertEqual([s["parent"] for s in rec.spans], [-1, 0])
        self.assertGreater(rec.spans[0]["end"], rec.spans[1]["end"])
        off = perfstats.Recorder(False, lambda: 0)
        off.end(off.begin("op"))
        self.assertEqual(off.spans, [])


class Schema(unittest.TestCase):
    def test_check_metrics_flags_every_problem(self):
        declared = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
        good = {"a_ms": {"value": 1.5, "unit": "ms"}, "b": {"value": 3, "unit": "count"}}
        self.assertEqual(perfstats.check_metrics(good, declared), [])
        bad = {"a_ms": {"value": float("nan"), "unit": "s"}, "c": {"value": 1, "unit": "ms"}}
        problems = " ".join(perfstats.check_metrics(bad, declared))
        for word in ("missing metric b", "unit 's'", "not a finite", "undeclared metric c"):
            self.assertIn(word, problems)

    def test_metric_names_and_units_are_well_formed(self):
        for kind in (run.END_TO_END, run.PER_LAYER):
            names = [n for n, _ in kind]
            self.assertEqual(len(names), len(set(names)))
            for name, unit in kind:
                self.assertRegex(name, NAME_RE)
                self.assertRegex(unit, UNIT_RE)
        self.assertLessEqual(len(run.PER_LAYER), 128)

    def test_code_matches_benchmark_json(self):
        path = BENCH_DIR.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("BENCHMARK.json is not beside the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
