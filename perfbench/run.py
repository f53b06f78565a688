#!/usr/bin/env python3
"""The repository's benchmark: the explanation service over HTTP and the
Table II sweep in-process, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload http_hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload
    python3 perfbench/run.py --self-test               # own arithmetic

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics.  Workloads,
their nominal rates, latency limits and the metric definitions live in
``perfbench/workloads.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("http_hot", "http_cold", "sweep_table2")


def load_config() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def metric_units(benchmark: dict, traced: bool) -> dict:
    """``name -> unit`` of the metrics this kind of run must print."""
    section = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[section]}


def check_checkout(root: str) -> None:
    """The benchmark builds nothing, but it needs the program."""
    needed = [os.path.join("src", "repro", "serve", "http.py"),
              os.path.join("tools", "serve_daemon.py")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root,
                                                                     p))]
    if missing:
        raise SystemExit(f"perfbench: not a checkout of the program "
                         f"(missing {', '.join(missing)}); run from the "
                         f"repository root")


def run_workload(name: str, config: dict, root: str, seed: int,
                 seconds: float, traced: bool) -> dict:
    cfg = config["workloads"][name]
    work = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if name == "sweep_table2":
            import sweep
            runner = sweep.SweepRun(cfg, work, seconds, traced)
        elif traced:
            import traced_http
            runner = traced_http.TracedHttpRun(name, cfg, root, work, seed,
                                               seconds)
        else:
            import http_workloads
            runner = http_workloads.HttpRun(name, cfg, root, work, seed,
                                            seconds)
        result = runner.run()
        result["report"] = runner.report
        result["failures"] = runner.failures
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))   # only when no other run's
        except OSError:
            pass


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def emit(name: str, result: dict, units: dict) -> dict:
    """Print the human report and build the result object."""
    metrics = {}
    missing = []
    for key, unit in units.items():
        value = result["metrics"].get(key)
        if not finite(value):
            missing.append(key)
            continue
        metrics[key] = {"value": float(value), "unit": unit}
    failures = list(result["failures"])
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print(f"== {name}")
    for key, entry in metrics.items():
        print(f"  {key:<36} {entry['value']:>14.4f} {entry['unit']}")
    if "error_rate" not in metrics:
        print(f"  {'error_rate':<36} {failed / attempted:>14.4f} ratio "
              f"({failed} failed of {attempted} attempted)")
    for key, value in result["report"].items():
        print(f"  [{key}] {json.dumps(value, default=str, sort_keys=True)}")
    for line in failures:
        print(f"  FAIL {line}")
    return {"correct": not failures and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own arithmetic tests")
    args = parser.parse_args(argv)
    # A terminated run still stops the daemons it started: SIGTERM
    # unwinds through their ``finally`` blocks like an exception.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, HERE)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    root = os.getcwd()
    check_checkout(root)
    sys.path.insert(0, os.path.join(root, "src"))
    config = load_config()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = args.seconds or benchmark["run_seconds"]
    traced = bool(args.trace)
    units = metric_units(benchmark, traced)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = None
    for name in names:
        started = time.monotonic()
        result = run_workload(name, config, root, args.seed, seconds,
                              traced)
        out = emit(name, result, units)
        print(f"  ({time.monotonic() - started:.1f} s wall)")
        if len(names) == 1:
            final = out
            continue
        # Every workload at once: metrics are prefixed by workload.
        final = final or {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
        final["correct"] = final["correct"] and out["correct"]
        final["attempted"] += out["attempted"]
        final["failed"] += out["failed"]
        final["metrics"].update({f"{name}.{key}": value for key, value
                                 in out["metrics"].items()})
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
