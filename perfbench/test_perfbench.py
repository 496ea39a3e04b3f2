"""Unit tests for the benchmark's own parsing, statistics and gating.

Run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import passes
import run
import summary
import traced

FIGURES_STDERR = """\
runner: 539 point(s) on 1 worker(s) in 0.025s
runner: 165321 simulated cycles (6.5M cycles/s), 0.0ms avg/point, utilization 97%
runner: slowest point 3a/16B/none at 1.0ms
runner: cache 28 hit(s), 511 miss(es), 0 invalidation(s), 1.6 KiB read, 29.9 KiB written
"""

MESSAGING_STDERR = """\
runner: 288 point(s) on 1 worker(s) in 0.368s (2 failed)
runner: 644083 simulated cycles (1.8M cycles/s), 1.3ms avg/point, utilization 100%
"""


class RunReportParser(unittest.TestCase):
    def test_point_cycle_wall_slowest_and_cache_lines(self):
        r = summary.parse_run_report(FIGURES_STDERR)
        self.assertEqual(r["points"], 539)
        self.assertEqual(r["workers"], 1)
        self.assertAlmostEqual(r["wall_s"], 0.025)
        self.assertEqual(r["errors"], 0)
        self.assertEqual(r["cycles"], 165_321)
        self.assertEqual(r["slowest"], ("3a/16B/none", 1.0))
        self.assertEqual(
            r["cache"],
            {
                "hits": 28,
                "misses": 511,
                "invalidations": 0,
                "bytes_read": round(1.6 * 1024),
                "bytes_written": round(29.9 * 1024),
            },
        )

    def test_report_without_slowest_or_cache_and_with_failures(self):
        r = summary.parse_run_report("note: unrelated line\n" + MESSAGING_STDERR)
        self.assertEqual((r["points"], r["errors"], r["cycles"]), (288, 2, 644_083))
        self.assertAlmostEqual(r["wall_s"], 0.368)
        self.assertIsNone(r["slowest"])
        self.assertIsNone(r["cache"])

    def test_missing_point_or_cycle_line_is_no_report(self):
        self.assertIsNone(summary.parse_run_report(""))
        only_points = FIGURES_STDERR.splitlines()[0]
        self.assertIsNone(summary.parse_run_report(only_points))


class Summariser(unittest.TestCase):
    def test_median_and_tail_with_ten_samples_beyond(self):
        values = list(range(1, 540))  # 539 samples, like the figures sweep
        n, med, label, tail = summary.summarize(values)
        self.assertEqual((n, med), (539, 270))
        # p99 leaves 5.39 samples beyond it, p98 leaves 10.78.
        self.assertEqual(label, "p98")
        self.assertEqual(tail, summary.percentile(values, 98))
        self.assertGreaterEqual(sum(v > tail for v in values), 10)

    def test_tail_rung_follows_sample_count(self):
        self.assertEqual(summary.summarize(list(range(288)))[2], "p95")
        self.assertEqual(summary.summarize(list(range(100)))[2], "p90")
        self.assertEqual(summary.summarize([5.0] * 18)[2:], ("max", 5.0))

    def test_tail_of_a_higher_is_better_metric_is_the_low_side(self):
        values = list(range(1, 101))
        self.assertEqual(summary.summarize(values, better="higher")[2:], ("p10", 10))
        self.assertEqual(summary.summarize([3.0, 1.0], better="higher")[2:], ("min", 1.0))

    def test_nearest_rank_percentile(self):
        self.assertEqual(summary.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(summary.percentile([4, 1, 3, 2], 100), 4)
        self.assertEqual(summary.percentile([7], 1), 7)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            summary.summarize([])


class ReferenceGate(unittest.TestCase):
    REF = b"table\n"
    REPORT = summary.parse_run_report(FIGURES_STDERR)

    def gate(self, kind="cold", code=0, stdout=REF, report=REPORT, cycles=165_321):
        return summary.gate(kind, code, stdout, report, self.REF, cycles)

    def test_matching_pass_is_clean(self):
        self.assertEqual(self.gate(), [])

    def test_each_condition_fails_the_pass(self):
        self.assertEqual(self.gate(code=1), ["exit status 1"])
        self.assertEqual(self.gate(stdout=b"table\n\n"), ["stdout differs from the reference"])
        self.assertEqual(
            self.gate(cycles=165_320), ["165321 simulated cycles, reference 165320"]
        )
        self.assertEqual(self.gate(report=None), ["no RunReport on stderr"])

    def test_replay_must_be_served_entirely_from_the_cache(self):
        # The fill-shaped report has 511 misses: fine for a fill, not a replay.
        self.assertEqual(self.gate(kind="fill"), [])
        self.assertEqual(
            self.gate(kind="replay"), ["replay had 511 miss(es), 0 invalidation(s)"]
        )
        warm = summary.parse_run_report(
            FIGURES_STDERR.replace("28 hit(s), 511 miss(es)", "539 hit(s), 0 miss(es)")
        )
        self.assertEqual(self.gate(kind="replay", report=warm), [])
        stale = summary.parse_run_report(
            FIGURES_STDERR.replace("511 miss(es), 0 invalidation", "0 miss(es), 3 invalidation")
        )
        self.assertEqual(
            self.gate(kind="replay", report=stale), ["replay had 0 miss(es), 3 invalidation(s)"]
        )
        no_cache = summary.parse_run_report(MESSAGING_STDERR.replace(" (2 failed)", ""))
        self.assertEqual(
            summary.gate("replay", 0, self.REF, no_cache, self.REF, 644_083),
            ["replay ran without a cache"],
        )


class TimedMetrics(unittest.TestCase):
    FIGURES = run.WORKLOADS["figures"]

    @staticmethod
    def make(kind, wall_s, reasons=()):
        return passes.Pass(kind, wall_s, 51_200, None, list(reasons))

    def test_failed_passes_count_but_never_become_samples(self):
        runs = [
            self.make("warmup", 0.030),
            self.make("fill", 0.050),
            self.make("fill", 0.070),
            self.make("fill", 0.060),
            self.make("cold", 0.040),
            self.make("replay", 0.010),
            # A killed pass has no timing; an early exit has a tiny one.
            self.make("cold", 0.0, ["exit status -9"]),
            self.make("fill", 0.001, ["exit status 101"]),
            self.make("replay", 0.001, ["replay had 3 miss(es), 0 invalidation(s)"]),
        ]
        metrics, attempted, failed, lines = run.timed_metrics(self.FIGURES, runs)
        self.assertEqual((attempted, failed), (9, 3))
        value = {name: m["value"] for name, m in metrics.items()}
        self.assertEqual(value["sweep_s"], 0.040)
        self.assertEqual(value["replay_s"], 0.010)
        self.assertEqual(value["setup_s"], 0.050)
        self.assertAlmostEqual(value["sim_mcps"], 0.165321 / 0.040)
        self.assertEqual(value["peak_rss_mb"], 50.0)
        self.assertIn("failed cold pass: exit status -9", lines)

    def test_a_metric_with_no_passing_sample_is_an_error(self):
        runs = [
            self.make("fill", 0.050),
            self.make("replay", 0.010),
            self.make("cold", 0.0, ["exit status -9"]),
        ]
        with self.assertRaisesRegex(RuntimeError, "sweep_s(.|\n)*exit status -9"):
            run.timed_metrics(self.FIGURES, runs)


class CostModel(unittest.TestCase):
    def test_recovers_exact_unit_costs(self):
        rows = [[1.0, t, j] for t, j in [(10, 1), (200, 3), (35, 40), (500, 2), (80, 9)]]
        targets = [3000 + 230 * r[1] + 700 * r[2] for r in rows]
        coef = summary.least_squares(rows, targets)
        for got, want in zip(coef, [3000, 230, 700]):
            self.assertAlmostEqual(got, want, places=6)

    def test_negative_costs_are_dropped_and_refit(self):
        rows = [[1.0, t, j] for t, j in [(100, 1), (200, 5), (300, 2), (400, 8)]]
        targets = [-500 + 10 * r[1] + 50 * r[2] for r in rows]
        coef = summary.least_squares(rows, targets)
        self.assertEqual(coef[0], 0.0)
        self.assertTrue(all(c > 0 for c in coef[1:]), coef)


class SpanTree(unittest.TestCase):
    def test_children_attach_to_the_root_that_closes_after_them(self):
        rep = {
            "span_names": ["cache.key", "sim.run", "runner.point", "cache.load", "cache.replay"],
            # [name, point, start, end] in closing order.
            "spans": [
                [0, 0, 0, 5],
                [1, 0, 5, 95],
                [2, 0, 0, 100],
                [0, 0, 200, 204],
                [3, 0, 204, 210],
                [4, 0, 200, 212],
            ],
        }
        total, count = traced.span_totals(rep)
        self.assertEqual(total[("runner.point", "runner.point")], 100)
        self.assertEqual(total[("runner.point", "*children")], 95)
        self.assertEqual(total[("cache.replay", "cache.key")], 4)
        self.assertEqual(total[("cache.replay", "cache.load")], 6)
        self.assertEqual(count[("runner.point", "cache.key")], 1)


class BenchmarkManifest(unittest.TestCase):
    def test_manifest_lists_exactly_the_reported_metrics(self):
        manifest = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["per_layer"]], list(traced.PER_LAYER)
        )
        # `manycore` runs by hand only (README.md says why).
        self.assertEqual(
            [w["name"] for w in manifest["workloads"]],
            [w for w in run.WORKLOADS if w != "manycore"],
        )


if __name__ == "__main__":
    unittest.main()
