"""Tests for the admission-controlled serving runtime: ``max_pending``
backpressure (block vs reject) and frozen cache entries."""

import threading

import numpy as np
import pytest
from conftest import FlakyExplainer, GatedExplainer, StubExplainer

from repro.explain.base import SaliencyResult
from repro.serve import EngineOverloaded, ExplainEngine, SaliencyCache


def _img(i: int, side: int = 4) -> np.ndarray:
    return np.full((1, side, side), float(i), dtype=np.float32)


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
