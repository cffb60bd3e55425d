"""Self-tests of the benchmark's own code: the output checks, the
statistics and derived-ratio helpers, span self-time arithmetic and
rtl_err_ms, each on a fixed input.

Run with: python3 e2ebench/run.py --self-test
"""

import statistics
import unittest

import benchlib


def fleet_summary(**overrides):
    summary = {"offered": 100, "delivered": 90, "failed": 10,
               "server_completed": 95, "fault_events": 0, "classes": [],
               "digest": "d", "wall_s": 1.0, "cpu_s": 1.0}
    summary.update(overrides)
    return summary


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "workload": "fleet-city"}


class ConservationTest(unittest.TestCase):
    def test_balanced_report_passes(self):
        classes = [{"name": "a", "offered": 60, "delivered": 55, "failed": 5},
                   {"name": "b", "offered": 40, "delivered": 35, "failed": 5}]
        self.assertEqual(
            benchlib.conservation_violations(fleet_summary(classes=classes)),
            [])

    def test_unsettled_request_is_caught(self):
        problems = benchlib.conservation_violations(fleet_summary(failed=9))
        self.assertEqual(len(problems), 1)
        self.assertIn("!= offered 100", problems[0])

    def test_class_imbalance_is_caught(self):
        classes = [{"name": "a", "offered": 60, "delivered": 55, "failed": 4},
                   {"name": "b", "offered": 40, "delivered": 35, "failed": 5}]
        problems = benchlib.conservation_violations(
            fleet_summary(classes=classes))
        self.assertEqual(problems, ["class a: delivered 55 + failed 4 != "
                                    "offered 60"])

    def test_class_offers_must_cover_the_fleet(self):
        classes = [{"name": "a", "offered": 50, "delivered": 45, "failed": 5}]
        self.assertEqual(
            benchlib.conservation_violations(fleet_summary(classes=classes)),
            ["class offers do not sum to the fleet's"])

    def test_servers_must_complete_what_was_delivered(self):
        problems = benchlib.conservation_violations(
            fleet_summary(server_completed=89))
        self.assertEqual(problems, ["server completions 89 < delivered 90"])


class CheckRunTest(unittest.TestCase):
    def fleet_doc(self, ops):
        return {"manifest": {"workload": "fleet-city"},
                "warmup": [fleet_summary()], "ops": ops, "traced_ops": [],
                "rtl_attempted": 4, "rtl_errors": []}

    def test_counts_every_call(self):
        attempted, failed, problems = benchlib.check_run(
            self.fleet_doc([fleet_summary(), fleet_summary()]))
        self.assertEqual((attempted, failed, problems), (7, 0, []))

    def test_digest_drift_and_exceptions_fail(self):
        doc = self.fleet_doc([fleet_summary(digest="other"),
                              fleet_summary(error="boom")])
        doc["rtl_errors"] = ["no anchors"]
        attempted, failed, _ = benchlib.check_run(doc)
        self.assertEqual((attempted, failed), (7, 3))

    def test_suite_checks_each_scenario(self):
        good = {"name": "s", "digest": "x", "wall_s": 1.0,
                "anchors": [["worker-count invariance (1 vs 4)", 1.0]]}
        bad = dict(good, anchors=[["worker-count invariance (1 vs 4)", 0.0]])
        doc = {"manifest": {"workload": "paper-suite"},
               "warmup": [{"scenarios": [good]}],
               "ops": [{"scenarios": [good]}, {"scenarios": [bad]}],
               "traced_ops": [], "rtl_attempted": 0, "rtl_errors": []}
        attempted, failed, problems = benchlib.check_run(doc)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("worker count", problems[0])


class StatisticsTest(unittest.TestCase):
    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / 14.5)
        self.assertAlmostEqual(benchlib.quartile_spread(values), 5.5 / 14.5)

    def test_fastest_call(self):
        ops = [{"wall_s": 0.7, "cpu_s": 0.6}, {"wall_s": 0.5, "cpu_s": 0.9}]
        self.assertEqual(benchlib.fastest(ops), 0.5)
        self.assertEqual(benchlib.fastest(ops, "cpu_s"), 0.6)

    def test_suite_pass_takes_each_scenario_at_its_fastest(self):
        passes = [{"scenarios": [{"name": "a", "wall_s": 1.0},
                                 {"name": "b", "wall_s": 3.0}]},
                  {"scenarios": [{"name": "a", "wall_s": 2.0},
                                 {"name": "b", "wall_s": 2.5}]}]
        self.assertEqual(benchlib.call_wall(passes), 3.5)
        self.assertEqual(benchlib.call_wall([{"wall_s": 0.4},
                                             {"wall_s": 0.3}]), 0.3)

    def test_end_to_end_takes_the_fastest_call_and_setup_sample(self):
        doc = {"manifest": {"workload": "fleet-city"},
               "ops": [fleet_summary(wall_s=0.6), fleet_summary(wall_s=0.5)],
               "setup_s": [2e-4, 1e-4, 3e-4], "peak_rss_mb": 17.5,
               "rtl_replicas": [(61.0, 110.0)]}
        metrics = benchlib.end_to_end(doc)
        self.assertEqual(metrics["wall_s"], (0.5, "s"))
        self.assertEqual(metrics["sim_req_per_s"], (200.0, "1/s"))
        self.assertEqual(metrics["setup_s"], (1e-4, "s"))

    def test_ratio_of_an_unused_layer_is_zero(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(3, 4), 0.75)

    def test_obs_counters_histograms_and_workers(self):
        records = [
            {"name": "traced", "counters": {"kernel.events_fired": 10},
             "histograms": {"serve.batch_size": {"count": 4, "sum": 40}},
             "workers": [{"busy_ns": 3e9, "stall_ns": 1e9}]},
            {"name": "traced", "counters": {"kernel.events_fired": 99},
             "histograms": {}, "workers": []},
        ]
        first = benchlib.first_records({"scenarios": records}, {"traced"})
        self.assertEqual(benchlib.counter(first, "kernel.events_fired"), 10)
        self.assertEqual(benchlib.hist_mean(first, "serve.batch_size"), 10.0)
        self.assertEqual(benchlib.hist_mean(first, "serve.queue_depth"), 0.0)
        self.assertEqual(benchlib.worker_seconds(first, "busy_ns"), 3.0)


class SpanTest(unittest.TestCase):
    SPANS = [
        span("op", 0, 100),            # children cover 10..40 and 50..90
        span("fleet.run", 10, 40, 0),  # child covers 20..30
        span("sample", 20, 30, 1),
        span("fleet.run", 50, 90, 0),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        self.assertEqual(benchlib.self_times_ns(self.SPANS), [30, 20, 10, 40])

    def test_layer_table_sums_calls(self):
        table = benchlib.layer_table(self.SPANS)
        self.assertEqual(table["fleet.run"]["calls"], 2)
        self.assertAlmostEqual(table["fleet.run"]["total_s"], 70e-9)
        self.assertAlmostEqual(table["fleet.run"]["self_s"], 60e-9)

    def test_span_seconds_filters_by_ancestor(self):
        self.assertEqual(len(benchlib.span_seconds(self.SPANS, "sample",
                                                   under="op")), 1)
        self.assertEqual(benchlib.span_seconds(self.SPANS, "sample",
                                               under="warmup"), [])


class RtlErrorTest(unittest.TestCase):
    def test_paper_anchor_error_on_fixed_input(self):
        # fig2 at seed 1: min cell 61.52 ms @ C1, max cell 115.56 ms @ C3.
        self.assertAlmostEqual(benchlib.rtl_err_ms([(61.52, 115.56)]), 3.04)
        self.assertAlmostEqual(
            benchlib.rtl_err_ms([(61.52, 115.56), (60.0, 111.0)]),
            (3.04 + 1.0) / 2)

    def test_exact_reproduction_has_no_error(self):
        self.assertEqual(benchlib.rtl_err_ms([(61.0, 110.0)]), 0.0)


if __name__ == "__main__":
    unittest.main()
