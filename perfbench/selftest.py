"""Self-tests for the benchmark's own arithmetic.

Run with ``python3 perfbench/run.py --self-test``.  Nothing here starts
a daemon or imports the program.
"""

from __future__ import annotations

import math
import sys
import unittest

import stats
from loadgen import Phase


def phase_of(latencies_ms, status=None, rate=100.0) -> Phase:
    """A finished phase whose requests were sent when due."""
    n = len(latencies_ms)
    due = [i / rate for i in range(n)]
    return Phase("t", rate, due, free=list(due), sent=list(due),
                 written=list(due), answered=list(due),
                 done=[d + ms / 1e3 for d, ms in zip(due, latencies_ms)],
                 conn=[i % 2 for i in range(n)], status=list(status or [200] * n), body=[b""] * n)


class Percentiles(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(values, 90), 4.6)
        self.assertAlmostEqual(stats.percentile(range(1, 101), 99), 99.01)

    def test_sample_count_rule(self):
        # Ten samples must lie beyond the reported percentile.
        self.assertTrue(stats.supports(1000, 99))
        self.assertFalse(stats.supports(999, 99))
        self.assertTrue(stats.supports(200, 95))
        self.assertFalse(stats.supports(199, 95))

    def test_windowed_tail_is_the_lower_quartile_of_window_tails(self):
        # 1000 samples: p95 leaves 50 beyond, enough for 5 windows.
        calm = ([1.0] * 19 + [2.0]) * 50
        tail = stats.windowed_percentile(calm, 95)
        self.assertAlmostEqual(tail, stats.percentile(calm, 95))
        # A noisy episode over three of the five windows leaves it.
        noisy = list(calm)
        noisy[200:800] = [x + 5.0 for x in noisy[200:800]]
        self.assertEqual(len(stats.window_tails(noisy, 95)), 5)
        self.assertAlmostEqual(stats.windowed_percentile(noisy, 95), tail)
        self.assertEqual(stats.percentile(noisy, 95), 6.0)
        # A program slower on every request moves it.
        slower = [x * 1.3 for x in calm]
        self.assertAlmostEqual(stats.windowed_percentile(slower, 95),
                               1.3 * tail)
        # 300 samples support one p95 window: the plain percentile.
        values = [float(i) for i in range(300)]
        self.assertEqual(stats.windowed_percentile(values, 95),
                         stats.percentile(values, 95))

    def test_misses_push_the_tail_past_any_limit(self):
        values = [1.0] * 98 + [stats.MISS] * 2
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertTrue(math.isinf(stats.percentile(values, 99)))


class FailuresAreMisses(unittest.TestCase):
    def test_failed_refused_and_wrong_requests_miss(self):
        phase = phase_of([2.0] * 6, status=[200, 500, 429, 503, -1, 200])
        phase.wrong.add(5)
        latencies = phase.latencies_ms()
        self.assertAlmostEqual(latencies[0], 2.0)
        self.assertTrue(all(math.isinf(x) for x in latencies[1:]))
        counts = phase.counts()
        self.assertEqual((counts["succeeded"], counts["failed"],
                          counts["refused"], counts["wrong"]),
                         (1, 2, 2, 1))

    def test_failures_past_five_percent_cost_a_window_its_rate(self):
        # One 1 s window of 100 requests, then one with 6% failures.
        done = [i / 100.0 for i in range(200)]
        latencies = [1.0] * 100 + [1.0] * 94 + [stats.MISS] * 6
        self.assertEqual(stats.window_rates(done, latencies, 0.0, 2.0, 5.0,
                                            95), [100.0, 0.0])
        latencies[194:196] = [1.0] * 2   # 4%: misses only drop the rate
        self.assertEqual(stats.window_rates(done, latencies, 0.0, 2.0, 5.0,
                                            95), [100.0, 96.0])


class SaturatedThroughput(unittest.TestCase):
    def test_counts_completions_per_whole_window(self):
        done = [0.1, 0.2, 0.7, 1.5, 2.9, 3.2]
        rates = stats.window_rates(done, [1.0] * 6, 0.0, 3.5, 5.0, 95,
                                   width=1.0)
        # [0,1) [1,2) [2,3); 3.2 is in a partial window and not counted.
        self.assertEqual(rates, [3.0, 1.0, 1.0])
        self.assertEqual(stats.window_rates(done, [1.0] * 6, 0.0, 3.0, 5.0,
                                            95, width=0.5),
                         [4.0, 2.0, 0.0, 2.0, 0.0, 2.0])

    def test_a_slow_window_misses_the_limit(self):
        done = [k * 0.01 for k in range(500)]
        latencies = [2.0] * 500
        latencies[100:200] = [60.0] * 100
        rates = stats.window_rates(done, latencies, 0.0, 5.0, 50.0, 95)
        self.assertEqual(rates, [100.0, 0.0, 100.0, 100.0, 100.0])
        # The interquartile mean leaves the lowest and highest quarter
        # of the windows out.
        self.assertEqual(stats.interquartile_mean(rates), 100.0)
        self.assertEqual(stats.interquartile_mean([9, 1, 2, 3, 0]), 2.0)
        self.assertEqual(stats.interquartile_mean([0, 4, 5, 1e6]), 4.5)


class LagAccounting(unittest.TestCase):
    def test_lag_counts_only_the_generators_lateness(self):
        due = [0.0, 1.0, 2.0]
        free = [0.0, 1.5, 1.0]       # request 1 waited for a connection
        sent = [0.25, 1.5, 2.5]
        self.assertEqual(stats.send_lags(due, free, sent), [0.25, 0.0, 0.5])

    def test_backlog_is_charged_to_latency_not_lag(self):
        phase = phase_of([1.0, 1.0, 1.0])
        phase.free[1] = phase.sent[1] = phase.due[1] + 0.004
        phase.done[1] = phase.sent[1] + 0.001
        self.assertAlmostEqual(phase.send_lags_ms()[1], 0.0)
        self.assertAlmostEqual(phase.latencies_ms()[1], 5.0)


class Coverage(unittest.TestCase):
    def test_union_counts_overlaps_once_and_clips(self):
        from traced_http import union_ms
        self.assertAlmostEqual(union_ms([(0.0, 0.002), (0.001, 0.003),
                                         (0.005, 0.006)], 0.0, 0.010), 4.0)
        self.assertAlmostEqual(union_ms([(-1.0, 0.002), (0.009, 2.0)],
                                        0.0, 0.010), 3.0)
        self.assertAlmostEqual(union_ms([(0.0, 0.004), (0.001, 0.002)],
                                        0.0, 0.010), 4.0)

    def test_handler_self_time_is_not_covered(self):
        from traced_http import coverage
        phase = phase_of([10.0])
        phase.written[0] = phase.sent[0] + 0.001
        phase.answered[0] = phase.done[0] - 0.001
        t = phase.sent[0]
        # (id, parent, name, start, end, size, failed, thread)
        spans = [(1, 0, "http.request", t - 1.0, t + 0.009, None, False, 7),
                 (2, 1, "http.parse", t + 0.002, t + 0.003, None, False, 7),
                 (3, 1, "http.handler", t + 0.003, t + 0.009, None, False,
                  7),
                 (4, 3, "http.explain", t + 0.004, t + 0.008, None, False,
                  7)]
        covered, parts = coverage(phase, [0], spans)
        # client write 1 + request leg 1 (sent+1..parse) + parse 1 +
        # explain 4 + client read 1; the handler's 2 ms outside explain
        # are not covered.
        self.assertAlmostEqual(covered, 8.0)
        # With http.send at 8..8.5 ms the response leg runs to the
        # client's first byte at 9 ms: only the handler's self time
        # (3..4 ms) is left.
        spans.append((5, 3, "http.send", t + 0.008, t + 0.0085, None,
                      False, 7))
        covered, _ = coverage(phase, [0], spans)
        self.assertAlmostEqual(covered, 9.0)
        self.assertEqual(parts["matched_share"], 1.0)


class OutputCheck(unittest.TestCase):
    def test_peak_relative_error(self):
        self.assertAlmostEqual(stats.peak_relative_error([1.0, 2.001],
                                                         [1.0, 2.0]),
                               0.0005)
        self.assertTrue(math.isinf(stats.peak_relative_error([1.0],
                                                             [1.0, 2.0])))


def main() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
