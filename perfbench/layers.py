"""Per-layer metrics from a traced window: spans, handle stamps and the
engine's own ``stats()`` counters.

Every workload computes the same set; a layer the workload does not
reach reads 0 (its spans and counters are empty), which is the
prediction for that workload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import spans

MIB = 1024.0 * 1024.0

#: The ten Table II methods; each gets ``explain.<method>.ms_per_map``.
TABLE2_METHODS = ("lime", "fullgrad", "simple_fullgrad", "smooth_fullgrad",
                  "gradcam", "stylex", "tscam", "lagan", "icam", "cae")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _gap_ms(rows: List[dict], late: str, early: str) -> float:
    """Mean ``late - early`` stamp gap in ms over rows that have both."""
    return mean((r[late] - r[early]) * 1e3 for r in rows
                if r[late] is not None and r[early] is not None)


def layer_report(table: Dict[str, dict]) -> Dict[str, dict]:
    """Per span name: calls and self/total milliseconds, for the report."""
    return {name: {"count": row["count"],
                   "self_ms": round(row["self_ms"], 3),
                   "total_ms": round(row["total_ms"], 3)}
            for name, row in sorted(table.items())}


def merge_engine_stats(many: List[dict]) -> dict:
    """One engine-stats view over several engines: counters add, and the
    plans section folds the way the engine folds its pool workers'."""
    from repro.serve.engine import _merge_plan_stats
    merged = {key: sum(stats[key] for stats in many)
              for key in ("cache_hits", "cache_misses", "cache_evictions",
                          "requests_served", "store_served", "batches_run",
                          "dedup_hits", "admission_rejected")}
    merged["plans"] = _merge_plan_stats(None, many) or {}
    return merged


def layer_metrics(dump: dict, engine: dict, n_requests: int
                  ) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Per-layer metrics and the per-span-name table of one window.

    ``engine`` is an ``ExplainEngine.stats()`` dict (or a
    :func:`merge_engine_stats` view); ``n_requests`` counts the
    requests the window served, for per-request shares.
    """
    table = spans.layer_table(dump["spans"])
    names = spans.parent_names(dump["spans"])

    def self_ms(name: str) -> float:
        row = table.get(name)
        return row["self_ms"] / row["count"] if row else 0.0

    def children(parent: str, name: str) -> List[list]:
        return [s for s in dump["spans"]
                if s[2] == name and names.get(s[1]) == parent]

    label_calls = children("http.explain", "classifier.predict")
    top_classifier = [s for s in dump["spans"]
                      if s[2].startswith("classifier.")
                      and not names.get(s[1], "").startswith("classifier.")]
    computed = [r for r in dump["stamps"] if r["dispatched_at"] is not None]
    cache_lookups = engine["cache_hits"] + engine["cache_misses"]
    store = engine.get("store") or {}
    store_lookups = store.get("hits", 0) + store.get("misses", 0)
    plans = engine.get("plans") or {}
    attempts = plans.get("replay_hits", 0) + plans.get("fallbacks", 0)
    computed_served = (engine["requests_served"] - engine["cache_hits"]
                       - engine["store_served"])
    transport = engine.get("transport") or {}
    evaluate = table.get("eval.evaluate", {})
    scored = evaluate.get("size", 0)
    served_in_eval = sum((s[4] - s[3]) * 1e3 for s in
                         children("eval.evaluate", "engine.explain_batch"))
    # CAE-model calls made by the CAE explainer (ICAM shares the model
    # class but is its own method).
    cae_encode = children("explain.cae", "cae.encode")
    cae_decode = children("explain.cae", "cae.decode")
    decoded = sum(s[5] or 0 for s in cae_decode)
    metrics = {
        "http.decode_ms": self_ms("http.decode"),
        "http.encode_ms": self_ms("http.encode"),
        "http.label_ms": (sum((s[4] - s[3]) * 1e3 for s in label_calls)
                          / max(1, n_requests)),
        "http.label_predicts_per_req": len(label_calls) / max(1, n_requests),
        "engine.submit_ms": self_ms("engine.submit"),
        "engine.digest_ms": self_ms("engine.digest"),
        "engine.result_wait_ms": self_ms("engine.result"),
        "engine.admission_rejected": engine["admission_rejected"],
        "cache.get_ms": self_ms("cache.get"),
        "cache.hit_ratio": (engine["cache_hits"] / cache_lookups
                            if cache_lookups else 0.0),
        "cache.evictions": engine["cache_evictions"],
        "store.get_ms": self_ms("store.get"),
        "store.hit_ratio": (store.get("hits", 0) / store_lookups
                            if store_lookups else 0.0),
        "store.put_ms": self_ms("store.put"),
        "store.write_drops": store.get("write_drops", 0),
        "store.bytes_per_record": (store["bytes"] / store["entries"]
                                   if store.get("entries") else 0.0),
        "scheduler.queue_wait_ms": _gap_ms(computed, "dispatched_at",
                                           "enqueued_at"),
        "scheduler.batch_size": (computed_served / engine["batches_run"]
                                 if engine["batches_run"] else 0.0),
        "scheduler.dedup_hits": engine["dedup_hits"],
        "executor.dispatch_ms": _gap_ms(computed, "worker_recv_at",
                                        "dispatched_at"),
        "executor.worker_busy_ms": _gap_ms(computed, "worker_done_at",
                                           "worker_recv_at"),
        "executor.return_ms": _gap_ms(computed, "computed_at",
                                      "worker_done_at"),
        "executor.retries": table.get("executor.run_batch",
                                      {}).get("failed", 0),
        "transport.shm_fallbacks": transport.get("fallbacks", 0),
        "plans.replay_ratio": (plans.get("replay_hits", 0) / attempts
                               if attempts else 0.0),
        "plans.compile_ms": self_ms("plans.compile"),
        "plans.arena_mb": plans.get("arena_bytes", 0) / MIB,
        "cae.encode_ms": mean((s[4] - s[3]) * 1e3 for s in cae_encode),
        "cae.decode_ms": mean((s[4] - s[3]) * 1e3 for s in cae_decode),
        "cae.frames_kept_ratio": (sum(c[2] for c in dump["counts"]
                                      if c[1] == "cae.series_len")
                                  / decoded if decoded else 0.0),
        "classifier.predict_ms": mean((s[4] - s[3]) * 1e3
                                      for s in top_classifier),
        "classifier.rows_per_call": mean(s[5] or 0 for s in top_classifier),
        "eval.scoring_ms_per_map": ((evaluate.get("total_ms", 0.0)
                                     - served_in_eval) / scored
                                    if scored else 0.0),
    }
    for method in TABLE2_METHODS:
        row = table.get(f"explain.{method}", {})
        metrics[f"explain.{method}.ms_per_map"] = (
            row["total_ms"] / row["size"] if row.get("size") else 0.0)
    return metrics, table
