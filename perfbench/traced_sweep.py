"""The traced run of ``sweep_table2``: per-layer metrics.

Half of ``--seconds`` sweeps untraced (the overhead baseline), then the
spans are installed in this process and the other half sweeps traced.
"""

from __future__ import annotations

import time

import spans
from http_workloads import MIN_COVERAGE
from layers import layer_metrics, layer_report, merge_engine_stats


def run(runner, datasets) -> dict:
    half = runner.seconds / 2.0
    _, plain_maps, plain_s, plain_wrong = runner.measure(datasets, half)
    recorder = spans.Recorder()
    spans.install(recorder)
    runner.engine_stats = []
    start = time.monotonic()
    sweeps, maps, elapsed, wrong = runner.measure(datasets, half)
    window = spans.window(recorder.snapshot(), start, time.monotonic())
    metrics, table = layer_metrics(
        window, merge_engine_stats(runner.engine_stats), maps)
    evaluate = table.get("eval.evaluate", {})
    metrics.update({
        "http.outside_engine_ms": 0.0,
        "http.send_lag_p99_ms": 0.0,
        "trace.coverage": evaluate.get("total_ms", 0.0) / (elapsed * 1e3),
        "trace.untraced_ms": (elapsed * 1e3 - evaluate.get("total_ms", 0.0))
                             / maps,
        "trace.overhead_ms": (elapsed * 1e3 / maps
                              - plain_s * 1e3 / plain_maps),
        "error_rate": (plain_wrong + wrong) / (plain_maps + maps),
    })
    if metrics["trace.coverage"] < MIN_COVERAGE:
        runner.failures.append(
            f"evaluate_methods spans cover {metrics['trace.coverage']:.3f} "
            f"of sweep time, below {MIN_COVERAGE}")
    runner.report["layers"] = layer_report(table)
    runner.report["sweeps"] = len(sweeps)
    return {"attempted": plain_maps + maps, "failed": plain_wrong + wrong,
            "metrics": metrics}
