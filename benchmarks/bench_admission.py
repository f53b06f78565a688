"""Admission-control micro-benchmark: bounded-queue overload.

Exercises the admission-controlled ``repro.serve`` runtime and writes an
``admission`` section into ``BENCH_serve.json`` (next to the throughput/
dedup/shard numbers ``bench_serve.py`` records for the same label).
N distinct requests flood an engine whose ``max_pending`` is far below
N, once per admission policy.  Under ``policy="block"`` every request
is served and the producer's total blocked time is recorded; under
``policy="reject"`` the overflow raises ``EngineOverloaded`` and the
run records the admitted/rejected split.  Both report the *served*
rate (requests actually resolved per second — a rejected request does
no work and must not inflate a throughput headline) next to the
offered rate.

Costs come from a stub explainer with a deterministic per-map sleep (the
dynamics under test are the runtime's, not the model's), so the run is
seconds, not minutes::

    PYTHONPATH=src python benchmarks/bench_admission.py --label current
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.explain.base import Explainer, SaliencyResult
from repro.serve import EngineOverloaded, ExplainEngine, ThreadedExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_serve.json")


class SleepStub(Explainer):
    """Deterministic-cost explainer: ``sleep_ms`` per map."""

    needs_gradients = False

    def __init__(self, name: str, sleep_ms: float):
        self.name = name
        self.sleep_ms = sleep_ms

    def explain_batch(self, images, labels, target_labels=None):
        if self.sleep_ms:
            time.sleep(self.sleep_ms * len(images) / 1000.0)
        return [SaliencyResult(np.zeros(images.shape[2:]), int(y))
                for y in labels]


def _img(i: int) -> np.ndarray:
    return np.full((1, 8, 8), float(i), dtype=np.float32)


# ----------------------------------------------------------------------
def overload_run(policy: str, requests: int, max_pending: int,
                 workers: int) -> dict:
    """Flood one bounded engine with distinct requests; returns the
    admitted/rejected/blocked accounting plus end-to-end req/s."""
    stub = SleepStub("stub", sleep_ms=1.0)
    engine = ExplainEngine(None, {"stub": stub}, max_batch=4,
                           max_pending=max_pending, policy=policy,
                           cache_size=2 * requests,
                           executor=ThreadedExecutor(workers=workers))
    rejected = 0
    start = time.perf_counter()
    with engine:
        for i in range(requests):
            try:
                engine.submit_async(_img(i), 0, "stub")
            except EngineOverloaded:
                rejected += 1
        engine.drain()
        elapsed = time.perf_counter() - start
        stats = engine.stats()
    admitted = requests - rejected
    if stats["requests_served"] != admitted:
        raise SystemExit(
            f"{policy}: served {stats['requests_served']} of {admitted} "
            "admitted requests (handles were stranded)")
    if policy == "block" and rejected:
        raise SystemExit("block policy must never reject")
    return {
        "policy": policy,
        "requests": requests,
        "max_pending": max_pending,
        "admitted": admitted,
        "rejected": rejected,
        "served_rps": round(admitted / elapsed, 1),
        "offered_rps": round(requests / elapsed, 1),
        "blocked_submits": stats["admission_blocked"],
        "blocked_ms_total": stats["admission_blocked_ms"],
        "batches_run": stats["batches_run"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="current",
                        help="entry name in the JSON (seed | current | ...)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--requests", type=int, default=96,
                        help="overload-section request count")
    parser.add_argument("--max-pending", type=int, default=16)
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    args = parser.parse_args()

    overload = {policy: overload_run(policy, args.requests,
                                     args.max_pending, args.workers)
                for policy in ("block", "reject")}
    blk, rej = overload["block"], overload["reject"]
    print(f"overload ({args.requests} reqs, max_pending="
          f"{args.max_pending}):")
    print(f"  block : {blk['served_rps']:7.1f} served/s, all served, "
          f"{blk['blocked_submits']} submits blocked "
          f"{blk['blocked_ms_total']:.0f} ms total")
    print(f"  reject: {rej['served_rps']:7.1f} served/s "
          f"({rej['offered_rps']:.0f} offered/s), "
          f"{rej['admitted']} admitted / {rej['rejected']} rejected")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault(args.label, {})["admission"] = {
        "overload": overload,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
