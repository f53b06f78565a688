"""Tests for the admission-controlled serving runtime: ``max_pending``
backpressure (block vs reject), adaptive per-queue micro-batching, and
cost-aware (GDSF) cache eviction."""

import threading

import numpy as np
import pytest
from conftest import FlakyExplainer, GatedExplainer, StubExplainer

from repro.explain.base import SaliencyResult
from repro.serve import (EngineOverloaded, ExplainEngine,
                         MicroBatchScheduler, SaliencyCache,
                         ShardedSaliencyCache)


def _img(i: int, side: int = 4) -> np.ndarray:
    return np.full((1, side, side), float(i), dtype=np.float32)


def _result(value: float = 1.0) -> SaliencyResult:
    return SaliencyResult(np.full((4, 4), value), 0)


class TestBlockPolicy:
    def test_over_limit_submit_blocks_until_room(self):
        gated = GatedExplainer()
        engine = ExplainEngine(None, {"gated": gated}, max_batch=1,
                               max_pending=2, policy="block",
                               executor="threaded")
        with engine:
            engine.submit_async(_img(0), 0, "gated")
            engine.submit_async(_img(1), 0, "gated")
            assert gated.entered.wait(timeout=5)   # work is in flight

            admitted = threading.Event()

            def over_limit():
                engine.submit_async(_img(2), 0, "gated")
                admitted.set()

            t = threading.Thread(target=over_limit)
            t.start()
            # The third unique request must wait for room, not sail in.
            assert not admitted.wait(timeout=0.3)
            gated.release.set()
            assert admitted.wait(timeout=10)
            t.join(timeout=10)
            assert engine.drain() >= 1
            stats = engine.stats()
            assert stats["requests_served"] == 3
            assert stats["admission_blocked"] == 1
            assert stats["admission_blocked_ms"] > 0
            assert stats["admission_rejected"] == 0
            assert stats["unresolved"] == 0

    def test_serial_executor_blocked_submit_makes_progress(self):
        # max_pending below the flush point and no worker threads: the
        # blocked submit must dispatch the queued work itself instead of
        # deadlocking on a flush that will never come.
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               max_pending=2, policy="block",
                               executor="serial")
        handles = [engine.submit_async(_img(i), 0, "stub")
                   for i in range(10)]
        engine.drain()
        assert all(h.done for h in handles)
        assert stub.computed == 10
        stats = engine.stats()
        assert stats["requests_served"] == 10
        assert stats["admission_blocked"] >= 1

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_blocked_submit_makes_room_as_work_fails(self, executor):
        # Each blocked submit dispatches the queued request, which fails
        # and resolves, so room frees: the producer never sees
        # EngineOverloaded, and every handle carries the backend error.
        broken = FlakyExplainer(failures=None)        # every batch fails
        engine = ExplainEngine(None, {"flaky": broken}, max_batch=8,
                               max_pending=1, policy="block",
                               executor=executor)
        with engine:
            handles = [engine.submit_async(_img(i), 0, "flaky")
                       for i in range(5)]
            engine.drain()
            for handle in handles:
                with pytest.raises(RuntimeError, match="backend failure"):
                    handle.result()
            stats = engine.stats()
            assert broken.calls == 5                  # one per request
            assert stats["requests_failed"] == 5
            assert stats["admission_blocked"] == 4
            assert stats["unresolved"] == 0
            assert engine.pending_count() == 0

    def test_blocked_submit_recovers_transient_failure_via_retry(self):
        flaky = FlakyExplainer(failures=1)
        engine = ExplainEngine(None, {"flaky": flaky}, max_batch=8,
                               max_pending=2, policy="block",
                               executor="serial")
        h1 = engine.submit_async(_img(0), 0, "flaky")
        h2 = engine.submit_async(_img(1), 0, "flaky")
        # The blocked third submit dispatches the queued pair; it fails
        # once, and its halves re-run and succeed, so the fails-once
        # backend never reaches the producer.
        h3 = engine.submit_async(_img(2), 0, "flaky")
        assert h1.done and h2.done
        engine.drain()
        assert [h.result().label for h in (h1, h2, h3)] == [0, 0, 0]
        assert flaky.calls == 4           # the pair, its halves, then h3

    def test_blocked_submit_dispatches_ready_queues_before_partials(self):
        # Backpressure progress must prefer queues that are already
        # ready (here: past their deadline) over force-flushing another
        # method's still-accumulating partial queue.
        stub_a, stub_b = StubExplainer(), StubExplainer()
        engine = ExplainEngine(None, {"a": stub_a, "b": stub_b},
                               max_batch=4, max_delay_ms=60_000.0,
                               max_pending=2, policy="block",
                               executor="serial")
        ha = engine.submit_async(_img(0), 0, "a")
        hb = engine.submit_async(_img(1), 0, "b")
        with engine._lock:                 # age queue "a" past deadline
            for request in engine._scheduler._queues[
                    ("a", (1, 4, 4), "normal")]:
                request.enqueued_at -= 120.0
        engine.submit_async(_img(2), 0, "a")    # over limit: must block
        assert ha.done                     # ready queue was dispatched
        assert not hb.done                 # partial queue kept batching
        engine.drain()
        assert hb.done

    def test_blocked_failure_not_raised_after_retry_recovered(self):
        engine = ExplainEngine(None,
                               {"flaky": FlakyExplainer(), "stub": StubExplainer()},
                               max_batch=1, max_pending=1, policy="block")
        failed = engine.submit_async(_img(0), 0, "flaky")   # fails alone
        with pytest.raises(RuntimeError, match="transient"):
            failed.result()
        # The failure is the handle's alone: a resubmit recomputes, and
        # later submits and drain() never re-raise it.
        retry = engine.submit_async(_img(0), 0, "flaky")
        assert retry.result().label == 0
        other = engine.submit_async(_img(1), 0, "stub")
        assert engine.drain() == 3
        assert other.done
        assert engine.drain() == 0


class TestRejectPolicy:
    def test_over_limit_submit_raises_engine_overloaded(self):
        gated = GatedExplainer()
        engine = ExplainEngine(None, {"gated": gated}, max_batch=1,
                               max_pending=1, policy="reject",
                               executor="threaded")
        with engine:
            h1 = engine.submit_async(_img(0), 0, "gated")
            assert gated.entered.wait(timeout=5)
            with pytest.raises(EngineOverloaded):
                engine.submit_async(_img(1), 0, "gated")
            # Duplicates of in-flight work add no compute: admitted.
            h2 = engine.submit_async(_img(0), 0, "gated")
            gated.release.set()
            engine.drain()
            assert h1.result() is h2.result()
            stats = engine.stats()
            assert stats["admission_rejected"] == 1
            assert stats["requests_served"] == 2
            assert gated.computed == 1

    def test_cache_hits_bypass_admission(self):
        gated = GatedExplainer()
        stub = StubExplainer()
        engine = ExplainEngine(None, {"gated": gated, "stub": stub},
                               max_batch=1, max_pending=1, policy="reject",
                               executor="threaded")
        with engine:
            warm = engine.submit_async(_img(7), 0, "stub")
            engine.drain()
            assert warm.done
            engine.submit_async(_img(0), 0, "gated")   # fills the bound
            assert gated.entered.wait(timeout=5)
            hit = engine.submit_async(_img(7), 0, "stub")
            assert hit.cache_hit and hit.done          # served, not rejected
            gated.release.set()

    def test_rejected_request_is_not_queued(self):
        gated = GatedExplainer()
        engine = ExplainEngine(None, {"gated": gated}, max_batch=1,
                               max_pending=1, policy="reject",
                               executor="threaded")
        with engine:
            engine.submit_async(_img(0), 0, "gated")
            assert gated.entered.wait(timeout=5)
            with pytest.raises(EngineOverloaded):
                engine.submit_async(_img(1), 0, "gated")
            assert engine.pending_count("gated") == 0
            assert engine.stats()["pending_handles"] == 1  # only in-flight
            gated.release.set()
            assert engine.drain() == 1

    def test_sync_queued_work_never_consumes_admission_budget(self):
        # The bound governs async ingestion; sync submits flush inline
        # and are self-limiting, so a sync producer's partial queue
        # must neither trigger rejections nor count as unresolved.
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=16,
                               max_pending=2, policy="reject")
        for i in range(4):                     # sync partial queue > bound
            engine.submit(_img(i), 0, "stub")
        assert engine.stats()["unresolved"] == 0
        handle = engine.submit_async(_img(99), 0, "stub")  # must admit
        assert engine.stats()["unresolved"] == 1
        engine.drain()
        assert handle.done
        assert engine.stats()["admission_rejected"] == 0

    def test_invalid_admission_config_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ExplainEngine(None, {"stub": StubExplainer()}, max_pending=0)
        with pytest.raises(ValueError, match="admission policy"):
            ExplainEngine(None, {"stub": StubExplainer()}, policy="shrug")


class TestAdaptiveBatching:
    def test_limit_ramps_up_by_doubling_to_max(self):
        sched = MicroBatchScheduler(max_batch=32, min_batch=2,
                                    target_batch_ms=100.0)
        qk = ("cheap", (1, 4, 4))
        assert sched.batch_limit(qk) == 2
        limits = []
        for _ in range(5):
            # 1 ms per map: the desired batch is 100 maps, far above
            # the ceiling — the ramp must double, then clamp at max.
            sched.observe(qk, batch_ms=float(sched.batch_limit(qk)),
                          batch_size=sched.batch_limit(qk))
            limits.append(sched.batch_limit(qk))
        assert limits == [4, 8, 16, 32, 32]

    def test_limit_clamps_down_to_min_on_expensive_batches(self):
        sched = MicroBatchScheduler(max_batch=32, min_batch=2,
                                    target_batch_ms=100.0)
        qk = ("stylex", (1, 4, 4))
        for _ in range(5):
            sched.observe(qk, batch_ms=float(sched.batch_limit(qk)),
                          batch_size=sched.batch_limit(qk))
        assert sched.batch_limit(qk) == 32
        # One observed expensive batch (10 s per map) pulls the limit
        # straight back to the floor — no slow multiplicative decay.
        sched.observe(qk, batch_ms=10_000.0 * 32, batch_size=32)
        assert sched.batch_limit(qk) == 2

    def test_limits_are_per_queue(self):
        sched = MicroBatchScheduler(max_batch=16, min_batch=1,
                                    target_batch_ms=10.0)
        cheap = ("occlusion", (1, 4, 4))
        pricey = ("stylex", (1, 4, 4))
        for _ in range(4):
            sched.observe(cheap, batch_ms=0.1, batch_size=1)
            sched.observe(pricey, batch_ms=100.0, batch_size=1)
        assert sched.batch_limit(cheap) == 16
        assert sched.batch_limit(pricey) == 1
        assert set(sched.batch_limits()) == {"occlusion@1x4x4",
                                             "stylex@1x4x4"}

    def test_static_scheduler_ignores_observations(self):
        sched = MicroBatchScheduler(max_batch=8)
        qk = ("m", (1, 4, 4))
        sched.observe(qk, batch_ms=1e6, batch_size=1)
        assert sched.batch_limit(qk) == 8
        assert sched.batch_limits() == {}

    def test_invalid_adaptive_config_rejected(self):
        with pytest.raises(ValueError, match="min_batch"):
            MicroBatchScheduler(max_batch=4, min_batch=8)
        with pytest.raises(ValueError, match="target_batch_ms"):
            MicroBatchScheduler(max_batch=4, min_batch=2,
                                target_batch_ms=0.0)

    def test_engine_cheap_queue_ramps_wide(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               min_batch=1, target_batch_ms=500.0)
        handles = [engine.submit_async(_img(i), 0, "stub")
                   for i in range(24)]
        engine.drain()
        assert all(h.done for h in handles)
        stats = engine.stats()
        # Instant maps: the queue's limit must have ramped to the
        # ceiling, so far fewer batches ran than requests were served.
        assert stats["batch_limits"]["stub@1x4x4"] == 8
        assert stats["batches_run"] < 24

    def test_engine_expensive_queue_stays_small(self):
        pricey = StubExplainer(sleep_ms=10.0)
        pricey.name = "pricey"
        engine = ExplainEngine(None, {"pricey": pricey}, max_batch=8,
                               min_batch=1, target_batch_ms=15.0)
        for i in range(6):
            engine.submit_async(_img(i), 0, "pricey")
        engine.drain()
        # ~10 ms per map against a 15 ms budget: batches must stay at
        # one map each, bounding each flush's tail latency.
        assert engine.stats()["batch_limits"]["pricey@1x4x4"] == 1
        assert engine.stats()["batches_run"] == 6


class TestCostAwareEviction:
    def test_cost_policy_keeps_expensive_entry_under_pressure(self):
        pricey_key = ("pricey", "stylex", 0, None)
        flood = [(f"cheap{i}", "cae", 0, None) for i in range(20)]

        survivors = {}
        for policy in ("lru", "cost"):
            cache = SaliencyCache(capacity=4, policy=policy)
            cache.put(pricey_key, _result(), cost_ms=1000.0)
            for key in flood:
                cache.put(key, _result(), cost_ms=0.5)
            survivors[policy] = pricey_key in cache
        assert survivors["cost"] is True      # GDSF priority kept it
        assert survivors["lru"] is False      # recency-only evicted it

    def test_cost_policy_clock_ages_stale_entries_out(self):
        cache = SaliencyCache(capacity=2, policy="cost")
        stale = ("stale", "m", 0, None)
        cache.put(stale, _result(), cost_ms=10.0)
        # Keep inserting moderately-costed keys; every eviction ratchets
        # the clock, so even a higher-cost entry is eventually evictable
        # once enough priority mass has passed through the shard.
        for i in range(300):
            cache.put((f"k{i}", "m", 0, None), _result(), cost_ms=5.0)
        assert stale not in cache

    def test_sharded_cache_threads_policy_and_cost(self):
        cache = ShardedSaliencyCache(capacity=8, shards=2, policy="cost")
        assert cache.stats()["policy"] == "cost"
        cache.put(("d0", "m", 0, None), _result(), cost_ms=3.0)
        assert cache.get(("d0", "m", 0, None)) is not None

    def test_engine_cost_eviction_survives_cheap_flood(self):
        results = {}
        for eviction in ("lru", "cost"):
            pricey = StubExplainer(sleep_ms=20.0)
            pricey.name = "pricey"
            cheap = StubExplainer()
            cheap.name = "cheap"
            engine = ExplainEngine(None,
                                   {"pricey": pricey, "cheap": cheap},
                                   max_batch=4, cache_size=4,
                                   eviction=eviction)
            engine.explain(_img(0), 0, "pricey")      # cached, costed
            for i in range(1, 17):                    # cheap flood
                engine.explain(_img(i), 0, "cheap")
            engine.explain(_img(0), 0, "pricey")      # revisit
            results[eviction] = pricey.computed
        assert results["cost"] == 1    # revisit was a cache hit
        assert results["lru"] == 2     # flood evicted it: recomputed

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="eviction policy"):
            SaliencyCache(capacity=4, policy="fifo")


class TestFrozenCacheEntries:
    def test_mutating_any_array_field_of_a_hit_raises(self):
        cache = SaliencyCache(capacity=4)
        result = SaliencyResult(np.ones((4, 4)), 0,
                                meta={"bias_maps": np.ones((2, 4, 4)),
                                      "note": "writable non-array"})
        cache.put(("d", "m", 0, None), result)
        hit = cache.get(("d", "m", 0, None))
        with pytest.raises((ValueError, RuntimeError)):
            hit.saliency[0, 0] = 99.0
        with pytest.raises((ValueError, RuntimeError)):
            hit.meta["bias_maps"][0, 0, 0] = 99.0
        # The map is still readable and the non-array meta untouched.
        assert hit.normalized().max() <= 1.0
        assert hit.meta["note"] == "writable non-array"
