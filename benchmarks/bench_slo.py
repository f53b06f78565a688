"""SLO load harness: tail latency per priority class under open-loop load.

Drives the ``repro.serve`` engine with the traffic shape the request-
context layer exists for — mixed priority classes, deadlines, and
tenants arriving *open-loop* (arrivals do not wait for completions, so
queueing delay is real, not masked by a closed feedback loop) — and
writes per-class latency percentiles into the ``slo`` section of
``BENCH_serve.json``:

* **Calibration** — a closed-loop warm-up measures this machine's serve
  capacity (req/s) for the mixed-method workload; the open-loop trace
  then offers ``--load`` (default 0.7) of that, so the harness stresses
  queueing without collapsing into unbounded backlog, on any hardware.
* **Trace** — Poisson (exponential inter-arrival) ``interactive`` and
  ``normal`` traffic over mixed methods, two image shapes, and rotating
  tenants, plus ``bulk`` arriving in periodic *bursts* (a Table-style
  sweep dumping a chunk of work at once).  Interactive requests carry a
  deadline; the same seeded trace replays for every engine variant.
* **A/B** — the identical trace runs with the scheduler's priority
  pop order and with an insertion-order reference (the scheduler's
  ``_pop_order`` replaced by the identity).  Per-class
  p50/p95/p99 (from each request's ``RequestContext`` stage stamps),
  deadline-miss rate, and served throughput are recorded for both.

Two gates fail the run (exit nonzero) unless ``--no-gate``:

* ``interactive_p95_ms`` must be **strictly lower** than
  ``bulk_p95_ms`` with priority on — the point of class-aware flushing.
* Priority-on served throughput must be within 10% of priority-off —
  ordering must not cost capacity.

The recorded ``*_p95_ms``/``*_p99_ms`` keys gate in CI against the
committed baseline via ``tools/check_bench.py`` (time semantics: lower
is better), so a scheduling regression that fattens the interactive
tail fails the job even when mean throughput looks fine::

    PYTHONPATH=src python benchmarks/bench_slo.py --label current
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.serve import (DeadlineExceeded, ExplainEngine, RequestContext,
                         ThreadedExecutor, demo_spec)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_serve.json")

WIDTH = 8
METHODS = ("gradcam", "fullgrad")
SIDES = (16, 24)                       # two shapes -> distinct queues
TENANTS = ("acme", "globex", "initech")

#: Class mix of the open-loop portion (bulk arrives separately, in
#: bursts, on top of this).
POISSON_MIX = (("interactive", 0.35), ("normal", 0.65))
BULK_FRACTION = 0.3                    # of total trace volume


def build_images(rng: np.random.Generator, n: int, in_channels: int):
    """Distinct noise images (no cache hits: every request costs
    compute, so queueing is the phenomenon under test), alternating
    between the two shapes."""
    return [rng.standard_normal((in_channels, side, side))
            .astype(np.float32)
            for i in range(n) for side in (SIDES[i % len(SIDES)],)]


def build_trace(rng: np.random.Generator, n: int, offered_rps: float,
                deadline_ms: float):
    """Seeded arrival schedule: ``[(t, priority, tenant, method,
    img_idx, timeout_ms)]`` sorted by arrival time ``t`` (seconds from
    trace start).  Poisson interactive/normal plus bulk bursts."""
    n_bulk = int(n * BULK_FRACTION)
    n_poisson = n - n_bulk
    duration = n_poisson / (offered_rps * (1.0 - BULK_FRACTION))

    trace = []
    t = 0.0
    classes, weights = zip(*POISSON_MIX)
    for i in range(n_poisson):
        t += rng.exponential(1.0 / (offered_rps * (1.0 - BULK_FRACTION)))
        cls = classes[rng.choice(len(classes), p=weights)]
        timeout = deadline_ms if cls == "interactive" else None
        trace.append((t, cls, TENANTS[i % len(TENANTS)],
                      METHODS[i % len(METHODS)], i, timeout))
    # Bulk bursts: a few sweep-style dumps spread over the trace, each
    # depositing its whole chunk at one instant.
    n_bursts = max(1, min(4, n_bulk // 8))
    per_burst = n_bulk // n_bursts
    idx = n_poisson
    for b in range(n_bursts):
        t_burst = duration * (b + 0.5) / n_bursts
        for j in range(per_burst if b < n_bursts - 1
                       else n_bulk - per_burst * (n_bursts - 1)):
            trace.append((t_burst, "bulk", TENANTS[idx % len(TENANTS)],
                          METHODS[idx % len(METHODS)], idx, None))
            idx += 1
    trace.sort(key=lambda item: item[0])
    return trace


def make_engine(num_classes, in_channels, priority: bool, workers: int,
                max_batch: int):
    spec = demo_spec(METHODS, num_classes=num_classes,
                     in_channels=in_channels, width=WIDTH)
    classifier, explainers = spec.materialize()
    engine = ExplainEngine(classifier, explainers, max_batch=max_batch,
                           max_delay_ms=5.0, cache_size=16,
                           executor=ThreadedExecutor(workers=workers))
    if not priority:
        # The reference arm: ready queues pop in insertion order.
        engine._scheduler._pop_order = lambda keys, now: keys
    return engine


def calibrate(num_classes, in_channels, images, workers, max_batch,
              n: int) -> float:
    """Closed-loop capacity (req/s): how fast this machine serves the
    mixed workload when arrivals never outpace completions."""
    engine = make_engine(num_classes, in_channels, True, workers,
                         max_batch)
    try:
        start = time.perf_counter()
        for i in range(n):
            engine.submit_async(images[i % len(images)], 0,
                                METHODS[i % len(METHODS)])
        engine.drain()
        return n / (time.perf_counter() - start)
    finally:
        engine.close()


def run_trace(trace, images, num_classes, in_channels, priority: bool,
              workers: int, max_batch: int) -> dict:
    """Replay one seeded trace open-loop; returns per-class latencies,
    deadline misses, and served throughput."""
    engine = make_engine(num_classes, in_channels, priority, workers,
                         max_batch)
    submitted = []                     # (handle, ctx, priority_class)
    try:
        start = time.monotonic()
        for t, cls, tenant, method, img_idx, timeout_ms in trace:
            now = time.monotonic() - start
            if t > now:
                time.sleep(t - now)
            if timeout_ms is not None:
                ctx = RequestContext.with_timeout(
                    timeout_ms, priority=cls, tenant=tenant)
            else:
                ctx = RequestContext(priority=cls, tenant=tenant)
            handle = engine.submit_async(images[img_idx], 0, method,
                                         ctx=ctx)
            submitted.append((handle, ctx, cls))
            engine.kick()              # open loop: dispatch ready queues
        engine.drain()
        elapsed = time.monotonic() - start
        stats = engine.stats()
    finally:
        engine.close()

    latencies = {cls: [] for cls, _ in POISSON_MIX}
    latencies["bulk"] = []
    misses = deadlined = 0
    for handle, ctx, cls in submitted:
        try:
            handle.result()
        except DeadlineExceeded:
            misses += 1
            if ctx.deadline is not None:
                deadlined += 1
            continue
        if ctx.deadline is not None:
            deadlined += 1
        lat = ctx.latency_ms()
        assert lat is not None, "resolved request missing stage stamps"
        latencies[cls].append(lat)
    served = len(submitted) - misses
    return {
        "latencies": latencies,
        "misses": misses,
        "deadlined": deadlined,
        "served_rps": served / elapsed,
        "elapsed_s": elapsed,
        "tenants": stats["tenants"],
        "promotions": stats.get("priority_promotions", 0),
    }


def percentiles(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {"p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="current",
                        help="entry name in the JSON (seed | current | ...)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--requests", type=int, default=300,
                        help="trace length (open-loop arrivals)")
    parser.add_argument("--load", type=float, default=0.7,
                        help="offered fraction of calibrated capacity")
    parser.add_argument("--deadline-ms", type=float, default=500.0,
                        help="interactive-class deadline")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-gate", action="store_true",
                        help="record results without failing on the "
                        "priority-ordering / throughput-parity gates")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    num_classes, in_channels = 2, 1
    images = build_images(rng, args.requests, in_channels)

    capacity = calibrate(num_classes, in_channels, images, args.workers,
                         args.max_batch, n=min(args.requests, 120))
    offered = capacity * args.load
    print(f"calibrated capacity {capacity:.1f} req/s "
          f"({args.workers} workers); offering {offered:.1f} req/s "
          f"({args.load:.0%} load)")

    trace = build_trace(rng, args.requests, offered, args.deadline_ms)

    runs = {}
    for priority in (True, False):
        tag = "priority_on" if priority else "priority_off"
        runs[tag] = run_trace(trace, images, num_classes, in_channels,
                              priority, args.workers, args.max_batch)
        r = runs[tag]
        line = " ".join(
            f"{cls}={percentiles(v)['p95']:.0f}ms"
            for cls, v in r["latencies"].items() if v)
        print(f"{tag}: {r['served_rps']:.1f} req/s served, "
              f"{r['misses']} deadline miss(es), p95 {line}")

    on = runs["priority_on"]
    section = {
        "n_requests": args.requests,
        "offered_rps": round(offered, 2),
        "capacity_rps": round(capacity, 2),
        "load_fraction": args.load,
        "deadline_ms": args.deadline_ms,
        "workers": args.workers,
        "deadline_miss_rate": round(
            on["misses"] / max(1, on["deadlined"]), 4),
        "priority_on_served_rps": round(on["served_rps"], 2),
        "priority_off_served_rps": round(
            runs["priority_off"]["served_rps"], 2),
        "priority_promotions": on["promotions"],
        "tenants_served": {t: c["served"]
                           for t, c in on["tenants"].items()},
    }
    for cls, values in on["latencies"].items():
        if not values:
            continue
        pcts = percentiles(values)
        section[f"{cls}_p50_ms"] = round(pcts["p50"], 2)
        section[f"{cls}_p95_ms"] = round(pcts["p95"], 2)
        section[f"{cls}_p99_ms"] = round(pcts["p99"], 2)
    for cls, values in runs["priority_off"]["latencies"].items():
        if values:
            section[f"off_{cls}_p95_ms"] = round(
                percentiles(values)["p95"], 2)

    failures = []
    inter = on["latencies"]["interactive"]
    bulk = on["latencies"]["bulk"]
    if inter and bulk:
        p95_i = percentiles(inter)["p95"]
        p95_b = percentiles(bulk)["p95"]
        if p95_i >= p95_b:
            failures.append(
                f"priority ordering ineffective: interactive p95 "
                f"{p95_i:.1f}ms >= bulk p95 {p95_b:.1f}ms with "
                "priority on")
    ratio = (on["served_rps"]
             / max(runs["priority_off"]["served_rps"], 1e-9))
    if ratio < 0.9:
        failures.append(
            f"priority ordering costs capacity: served {ratio:.2f}x of "
            "the priority-off run (floor 0.90x)")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    entry = doc.setdefault(args.label, {})
    entry["slo"] = section
    entry.setdefault("python", platform.python_version())
    entry.setdefault("numpy", np.__version__)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if failures and not args.no_gate:
        raise SystemExit("bench_slo gate failed:\n  "
                         + "\n  ".join(failures))


if __name__ == "__main__":
    main()
