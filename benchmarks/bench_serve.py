"""Serving-runtime micro-benchmark: throughput, dedup, shard balance.

Exercises the ``repro.serve`` engine runtime the way traffic would and
writes machine-readable results to ``BENCH_serve.json`` at the repo
root:

* **Mixed-method throughput** — N distinct requests round-robin over a
  mixed gradient/perturbation method set, submitted via
  ``submit_async`` and resolved with ``drain()``; requests/sec for the
  ``SerialExecutor`` vs the ``ThreadedExecutor`` vs the
  ``ProcessExecutor`` (persistent worker processes materializing the
  same model spec).  Executor speedups are hardware-bound (threads
  overlap only where BLAS releases the GIL; processes sidestep the GIL
  but pay header round trips), so ``cpu_count`` is recorded next to
  them.  ``--executor`` selects a subset — CI runs a dedicated
  ``--executor process`` smoke so pool startup *and* shutdown are
  exercised on every push.
* **Transport** — a payload-dominated workload (an ``echo`` explainer
  whose compute is a channel mean, 64x64 images, batch 16) through a
  process pool's shared-memory arenas.  Records requests/sec and
  payload MB/s, and **fails the run** unless every batch sent crossed
  the arenas and none was resent stale — that invariant is structural,
  not hardware-dependent, so it gates everywhere.
* **Duplicate-heavy dedup** — U unique images requested R times each
  through one method; the run *verifies* via ``stats()`` counters that
  each unique request was computed exactly once (``cache_inserts ==
  U``) with every duplicate served by dedup fan-out or the cache, and
  records the hit breakdown.
* **Shard balance** — distinct-key fill of the sharded cache; per-shard
  sizes and the max/mean imbalance ratio.

Runs at the brain smoke scale (16x16, width-8 classifier, untrained
weights — engine cost is architecture-bound, not weight-bound)::

    PYTHONPATH=src python benchmarks/bench_serve.py --label current
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.data import make_dataset
from repro.serve import (EngineSpec, ExplainEngine, ProcessExecutor,
                         ShardedSaliencyCache, ThreadedExecutor, demo_spec)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_serve.json")

IMAGE_SIZE = 16
WIDTH = 8

EXECUTORS = ("serial", "threaded", "process")

MIXED_METHODS = ("gradcam", "fullgrad", "simple_fullgrad", "occlusion")


def serve_spec(num_classes: int, in_channels: int) -> EngineSpec:
    """The mixed-method model recipe: the parent engine and every
    ``ProcessExecutor`` worker materialize bit-identical replicas from
    this one spec (seeded untrained init is deterministic)."""
    return demo_spec(MIXED_METHODS, num_classes=num_classes,
                     in_channels=in_channels, width=WIDTH)


def build_engine(num_classes: int, in_channels: int, executor,
                 max_batch: int = 8, cache_size: int = 512,
                 shards: int = 4) -> ExplainEngine:
    """Fresh engine (cold cache) over the mixed method set."""
    classifier, explainers = serve_spec(num_classes,
                                        in_channels).materialize()
    return ExplainEngine(
        classifier, explainers,
        max_batch=max_batch, cache_size=cache_size, cache_shards=shards,
        executor=executor)


def throughput(num_classes, in_channels, images, labels, make_executor_fn,
               repeats: int) -> float:
    """Best-of-``repeats`` requests/sec for one executor flavour, plus
    the last repeat's engine-side plan-cache stats (None when the
    engine reports no plans section).

    ``make_executor_fn`` builds a fresh executor per repeat (each
    engine's ``close()`` shuts its executor down — for the process
    pool that exercises the full startup *and* orphan-free shutdown
    path every repeat).  Pool startup happens before the clock starts:
    the pool is persistent, so steady-state request throughput is the
    metric.
    """
    methods = MIXED_METHODS
    best = 0.0
    plan_stats = None
    for _ in range(repeats):
        engine = build_engine(num_classes, in_channels, make_executor_fn())
        try:
            start = time.perf_counter()
            handles = [
                engine.submit_async(images[i], int(labels[i]),
                                    methods[i % len(methods)])
                for i in range(len(images))
            ]
            engine.drain()
            elapsed = time.perf_counter() - start
            assert all(h.done for h in handles)
            best = max(best, len(images) / elapsed)
            plan_stats = engine.stats()["plans"]
        finally:
            engine.close()
    return best, plan_stats


def transport_workload(num_classes: int, in_channels: int, workers: int,
                       repeats: int, requests: int = 32, side: int = 64,
                       batch: int = 16) -> dict:
    """The process pool's transport on a payload-dominated workload.

    The ``echo`` explainer (channel mean — output depends on input, so
    a broken transport would corrupt results, not just slow down)
    makes moving the payload the dominant cost: at 64x64 each request
    carries ``side*side*4`` bytes out plus the same back, all of which
    must cross through the shared-memory arenas while the pipe carries
    only control headers.  That is structural and gates
    unconditionally; the req/s is recorded (and gated against the
    baseline by ``check_bench`` via the ``*_rps`` suffix).
    """
    spec = demo_spec(("echo",), num_classes=num_classes,
                     in_channels=in_channels, width=WIDTH)
    rng = np.random.default_rng(7)
    images = rng.standard_normal(
        (requests, in_channels, side, side)).astype(np.float32)
    payload_per_request = (in_channels + 1) * side * side * 4  # out + ret

    best = 0.0
    stats = None
    for _ in range(repeats):
        executor = ProcessExecutor(spec, workers=workers)
        classifier, explainers = spec.materialize()
        engine = ExplainEngine(classifier, explainers, max_batch=batch,
                               cache_size=2 * requests, executor=executor)
        try:
            start = time.perf_counter()
            handles = [engine.submit_async(images[i], 0, "echo")
                       for i in range(requests)]
            engine.drain()
            elapsed = time.perf_counter() - start
            assert all(h.done for h in handles)
            if requests / elapsed > best:
                best = requests / elapsed
                stats = executor.transport_stats()
        finally:
            engine.close()
    section = {
        "requests": requests, "image_side": side, "batch": batch,
        "workers": workers,
        "payload_bytes_per_request": payload_per_request,
        "shm_rps": round(best, 2),
        "shm_payload_mb_s": round(best * payload_per_request / 1e6, 2),
        "shm_copies_avoided": stats["copies_avoided"],
        "shm_arena_bytes": stats["arena_bytes"],
        "shm_overlap_occupancy": stats["overlap_occupancy"],
        "shm_fallbacks": stats["fallbacks"],
    }
    print(f"transport ({requests} reqs, {side}x{side}, batch {batch}): "
          f"{section['shm_rps']:7.1f} req/s, "
          f"{section['shm_payload_mb_s']:6.1f} MB/s payload, "
          f"{stats['shm_batches']}/{stats['sends']} batches over the "
          f"arenas, {section['shm_fallbacks']} stale resends")
    if stats["shm_batches"] != stats["sends"] or section["shm_fallbacks"]:
        raise SystemExit(
            "transport regression: expected every batch to cross the "
            f"shared-memory arenas, got {stats['shm_batches']} of "
            f"{stats['sends']} and {section['shm_fallbacks']} stale "
            "resends")
    return section


def dedup_workload(classifier, images, labels, unique: int,
                   repeats: int) -> dict:
    """Duplicate-heavy traffic; verifies exactly-once compute.

    Verification is direct: the explainer is wrapped with a counter of
    images actually explained, so the check cannot be fooled by counter
    bookkeeping (re-inserting an existing cache key, say) — exactly
    ``unique`` maps must have been computed for ``unique * repeats``
    requests.
    """
    from repro.explain import GradCAMExplainer
    from repro.explain.base import Explainer

    inner = GradCAMExplainer(classifier)
    computed = {"images": 0}

    class CountingGradCAM(Explainer):
        name = "gradcam"
        needs_gradients = True

        def explain_batch(self, imgs, labs, targets=None):
            computed["images"] += len(imgs)
            return inner.explain_batch(imgs, labs, targets)

    engine = ExplainEngine(classifier, {"gradcam": CountingGradCAM()},
                           max_batch=4, cache_size=512, cache_shards=4,
                           executor="serial")
    rng = np.random.default_rng(0)
    order = rng.permutation(np.repeat(np.arange(unique), repeats))
    for i in order:
        engine.submit_async(images[i], int(labels[i]), "gradcam")
    engine.drain()
    stats = engine.stats()
    total = unique * repeats
    if computed["images"] != unique:
        raise SystemExit(
            f"dedup violated: {computed['images']} maps computed for "
            f"{unique} unique requests")
    if stats["cache_inserts"] != unique:
        raise SystemExit(
            f"dedup violated: {stats['cache_inserts']} cache inserts for "
            f"{unique} unique requests")
    if stats["requests_served"] != total:
        raise SystemExit(
            f"lost requests: served {stats['requests_served']} of {total}")
    return {
        "total_requests": total,
        "unique_requests": unique,
        "computed": stats["cache_inserts"],
        "dedup_fanouts": stats["dedup_hits"],
        "cache_hits": stats["cache_hits"],
        "batches_run": stats["batches_run"],
        "dedup_hit_rate": round(
            (stats["dedup_hits"] + stats["cache_hits"]) / total, 4),
    }


def shard_balance(n_keys: int = 512, shards: int = 8) -> dict:
    """Distinct-digest fill: how evenly crc32 routing spreads load.

    Balance is measured on per-shard *insert* counters (the routing
    decision), not post-eviction sizes — sizes are clamped by each
    shard's capacity, which would make any imbalance invisible.
    """
    from repro.explain.base import SaliencyResult

    cache = ShardedSaliencyCache(capacity=n_keys, shards=shards)
    for i in range(n_keys):
        cache.put((f"digest-{i:06d}", "m", 0, None),
                  SaliencyResult(np.zeros((2, 2)), 0))
    routed = [s.inserts for s in cache.shards]
    return {
        "keys": n_keys,
        "shards": shards,
        "routed_per_shard": routed,
        "shard_sizes": cache.shard_sizes(),
        "imbalance_max_over_mean": round(max(routed) / (n_keys / shards), 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="current",
                        help="entry name in the JSON (seed | current | ...)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--requests", type=int, default=48,
                        help="mixed-workload request count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    parser.add_argument("--executor", nargs="+", choices=EXECUTORS,
                        default=list(EXECUTORS),
                        help="throughput flavours to run (results merge "
                        "into the label, so partial runs compose; the "
                        "dedup/shard sections ride with 'serial', the "
                        "transport section with 'process')")
    args = parser.parse_args()

    dataset = make_dataset("brain_tumor1", "train", image_size=IMAGE_SIZE,
                           seed=0, counts={0: args.requests,
                                           1: args.requests})
    images = dataset.images[:args.requests]
    labels = dataset.labels[:args.requests]
    num_classes = dataset.num_classes
    in_channels = dataset.image_shape[0]
    classifier, _ = serve_spec(num_classes, in_channels).materialize()

    make_executor_fns = {
        "serial": lambda: "serial",
        "threaded": lambda: ThreadedExecutor(workers=args.workers),
        "process": lambda: ProcessExecutor(
            serve_spec(num_classes, in_channels), workers=args.workers),
    }
    rps = {}
    for flavour in args.executor:
        rps[flavour], plan_stats = throughput(
            num_classes, in_channels, images, labels,
            make_executor_fns[flavour], args.repeats)
        print(f"mixed workload ({args.requests} reqs, 4 methods): "
              f"{flavour:8s} {rps[flavour]:7.1f} req/s "
              f"({os.cpu_count()} cpu, {args.workers} workers)")
        if plan_stats is not None:
            # The in-process plan cache; process-pool runs replay on the
            # workers' per-replica caches (engine-side counters stay 0).
            print(f"    plans: compiled={plan_stats['compiled']} "
                  f"replay_hits={plan_stats['replay_hits']} "
                  f"fallbacks={plan_stats['fallbacks']} "
                  f"arena={plan_stats['arena_bytes'] / 1024:.0f}KiB")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    # Merge into the label's entry rather than replacing it, so the
    # `admission` section bench_admission.py writes for the same label
    # — and the rps keys of flavours run by a previous partial
    # invocation (CI's dedicated `--executor process` smoke) — survive.
    entry = doc.setdefault(args.label, {})
    entry.update({f"{flavour}_rps": round(value, 2)
                  for flavour, value in rps.items()})

    if "process" in args.executor:
        entry["transport"] = transport_workload(
            num_classes, in_channels, args.workers, args.repeats)

    if "serial" in args.executor:
        dedup = dedup_workload(classifier, images, labels,
                               unique=min(8, args.requests), repeats=4)
        print(f"dedup workload: {dedup['total_requests']} requests -> "
              f"{dedup['computed']} computed (exactly once per unique), "
              f"{dedup['dedup_fanouts']} dedup fan-outs + "
              f"{dedup['cache_hits']} cache hits "
              f"({dedup['dedup_hit_rate']:.0%} duplicate traffic absorbed)")
        balance = shard_balance()
        print(f"shard balance (routed keys): {balance['routed_per_shard']} "
              f"(max/mean {balance['imbalance_max_over_mean']:.2f})")
        entry["dedup"] = dedup
        entry["shard_balance"] = balance

    # Speedups derive from whatever the merged entry now holds, so a
    # process-only rerun refreshes process_speedup against the stored
    # serial baseline instead of dropping it.
    serial_rps = entry.get("serial_rps")
    for flavour in ("threaded", "process"):
        flavour_rps = entry.get(f"{flavour}_rps")
        if serial_rps and flavour_rps:
            entry[f"{flavour}_speedup"] = round(flavour_rps / serial_rps, 3)
            print(f"{flavour} vs serial: {entry[f'{flavour}_speedup']:.2f}x")
    entry.update({
        "pool_workers": args.workers,
        "cpu_count": os.cpu_count(),
        "requests": args.requests,
        "image_size": IMAGE_SIZE,
        "classifier_width": WIDTH,
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
