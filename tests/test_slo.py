"""Tests for the request-context layer: priority classes, deadlines,
tenants, SLO-aware flush ordering, and the worker stamps the process
pool applies to request contexts."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import GatedExplainer, StubExplainer
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain.base import SaliencyResult
from repro.serve import (DeadlineExceeded, EngineOverloaded, ExplainEngine,
                         MicroBatchScheduler, ProcessExecutor, RequestContext,
                         SaliencyCache, SaliencyStore, ShardedSaliencyCache,
                         ThreadedExecutor, demo_spec)
from repro.serve.scheduler import AGING_MS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _img(i: int, side: int = 4) -> np.ndarray:
    return np.full((1, side, side), float(i), dtype=np.float32)


def _key(i: int):
    return (f"digest-{i:04d}", "m", 0, None)


def _result(value: float = 1.0) -> SaliencyResult:
    return SaliencyResult(np.full((4, 4), value), 0)


# ----------------------------------------------------------------------
# RequestContext itself
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_defaults_and_validation(self):
        ctx = RequestContext()
        assert ctx.priority == "normal"
        assert ctx.deadline is None and ctx.tenant is None
        assert ctx.trace_id
        with pytest.raises(ValueError):
            RequestContext(priority="urgent")

    def test_ensure_normalizes(self):
        assert RequestContext.ensure(None).priority == "normal"
        assert RequestContext.ensure("bulk").priority == "bulk"
        ctx = RequestContext(tenant="t")
        assert RequestContext.ensure(ctx) is ctx
        with pytest.raises(TypeError):
            RequestContext.ensure(42)

    def test_with_timeout_and_expiry(self):
        ctx = RequestContext.with_timeout(10_000)
        assert not ctx.expired()
        assert 0 < ctx.remaining_ms() <= 10_000
        dead = RequestContext(deadline=time.monotonic() - 0.001)
        assert dead.expired()

    def test_stamp_is_set_if_unset(self):
        ctx = RequestContext().stamp("admitted")
        first = ctx.admitted_at
        assert first is not None
        assert ctx.stamp("admitted").admitted_at == first

    def test_latency_needs_both_ends(self):
        ctx = RequestContext()
        assert ctx.latency_ms() is None
        ctx.stamp("admitted").stamp("resolved")
        assert ctx.latency_ms() >= 0.0


# ----------------------------------------------------------------------
# Scheduler ordering properties
# ----------------------------------------------------------------------
class TestFlushOrdering:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["interactive", "normal", "bulk"]),
                    min_size=1, max_size=24))
    def test_fifo_never_inverted_within_one_class(self, classes):
        # Property: whatever the class mix, flattening the popped
        # batches preserves each class's submission order exactly.
        sched = MicroBatchScheduler(max_batch=3)
        for i, cls in enumerate(classes):
            sched.enqueue("m", _img(i), 0, None, _key(i), object(),
                          ctx=RequestContext(priority=cls))
        batches, expired = sched.pop_batches()
        assert not expired
        popped = {"interactive": [], "normal": [], "bulk": []}
        for queue_key, requests in batches:
            popped[queue_key[2]].extend(
                int(r.key[0].split("-")[1]) for r in requests)
        for cls in popped:
            want = [i for i, c in enumerate(classes) if c == cls]
            assert popped[cls] == want, f"FIFO inverted within {cls}"

    def test_fresh_queues_pop_interactive_before_bulk(self):
        sched = MicroBatchScheduler(max_batch=8)
        for i, cls in enumerate(["bulk", "normal", "interactive"]):
            sched.enqueue("m", _img(i), 0, None, _key(i), object(),
                          ctx=RequestContext(priority=cls))
        batches, _ = sched.pop_batches()
        assert [qk[2] for qk, _ in batches] == ["interactive", "normal",
                                                "bulk"]

    def test_aged_bulk_outranks_fresh_interactive(self):
        # A bulk queue that has waited >> rank_gap * AGING_MS must pop
        # before a fresh interactive queue: floods delay bulk, never
        # starve it.
        sched = MicroBatchScheduler(max_batch=8)
        req, _, _ = sched.enqueue("m", _img(0), 0, None, _key(0),
                                  object(),
                                  ctx=RequestContext(priority="bulk"))
        req.enqueued_at -= 10 * AGING_MS / 1000.0   # 10 rank-steps
        sched.enqueue("m", _img(1), 0, None, _key(1), object(),
                      ctx=RequestContext(priority="interactive"))
        batches, _ = sched.pop_batches()
        assert [qk[2] for qk, _ in batches] == ["bulk", "interactive"]


class TestDedupMerge:
    def test_more_urgent_attach_promotes_queued_request(self):
        sched = MicroBatchScheduler(max_batch=8)
        first, _, _ = sched.enqueue("m", _img(0), 0, None, _key(0),
                                    object(),
                                    ctx=RequestContext(priority="bulk"))
        attached, deduped, _ = sched.enqueue(
            "m", _img(0), 0, None, _key(0), object(),
            ctx=RequestContext(priority="interactive"))
        assert deduped and attached is first
        assert first.ctx.priority == "interactive"
        assert first.queue_key[2] == "interactive"
        assert sched.promotions == 1
        batches, _ = sched.pop_batches()
        assert [qk[2] for qk, _ in batches] == ["interactive"]
        assert len(batches[0][1][0].handles) == 2

    def test_less_urgent_attach_never_demotes(self):
        sched = MicroBatchScheduler(max_batch=8)
        first, _, _ = sched.enqueue(
            "m", _img(0), 0, None, _key(0), object(),
            ctx=RequestContext(priority="interactive"))
        sched.enqueue("m", _img(0), 0, None, _key(0), object(),
                      ctx=RequestContext(priority="bulk"))
        assert first.ctx.priority == "interactive"
        assert sched.promotions == 0

    def test_dedup_deadline_loosest_wins(self):
        sched = MicroBatchScheduler(max_batch=8)
        tight = RequestContext.with_timeout(50)
        first, _, _ = sched.enqueue("m", _img(0), 0, None, _key(0),
                                    object(), ctx=tight)
        loose = RequestContext.with_timeout(5_000)
        sched.enqueue("m", _img(0), 0, None, _key(0), object(), ctx=loose)
        assert first.ctx.deadline == loose.deadline
        # An undeadlined handle must get its result: None dominates.
        sched.enqueue("m", _img(0), 0, None, _key(0), object(),
                      ctx=RequestContext())
        assert first.ctx.deadline is None


# ----------------------------------------------------------------------
# Deadlines end to end
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_never_reaches_executor(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        with engine:
            ctx = RequestContext.with_timeout(15, priority="interactive",
                                              tenant="acme")
            handle = engine.submit_async(_img(0), 0, "stub", ctx=ctx)
            time.sleep(0.03)               # deadline passes while queued
            engine.kick()                  # sweep resolves it
            with pytest.raises(DeadlineExceeded) as err:
                handle.result()
            assert err.value.ctx is ctx
            assert stub.computed == 0      # no executor dispatch
            stats = engine.stats()
            assert stats["deadline_expired"] == 1
            assert stats["tenants"]["acme"]["deadline_expired"] == 1
            assert stats["unresolved"] == 0

    def test_dead_on_arrival_is_resolved_without_queueing(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        with engine:
            ctx = RequestContext(deadline=time.monotonic() - 0.01)
            handle = engine.submit_async(_img(0), 0, "stub", ctx=ctx)
            assert handle.done
            with pytest.raises(DeadlineExceeded):
                handle.result()
            assert stub.computed == 0
            assert engine.stats()["queues"] == {}

    def test_expiry_frees_admission_slot_without_compute(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               max_pending=1, policy="reject",
                               executor="serial")
        with engine:
            engine.submit_async(_img(0), 0, "stub",
                                ctx=RequestContext.with_timeout(15))
            with pytest.raises(EngineOverloaded):
                engine.submit_async(_img(1), 0, "stub")
            time.sleep(0.03)
            engine.kick()                  # expiry releases the slot
            survivor = engine.submit_async(_img(2), 0, "stub")
            engine.drain()
            assert survivor.result().label == 0
            assert stub.computed == 1      # only the survivor computed

    def test_drain_sweeps_expired_without_kick(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        with engine:
            handle = engine.submit_async(
                _img(0), 0, "stub", ctx=RequestContext.with_timeout(10))
            live = engine.submit_async(_img(1), 0, "stub")
            time.sleep(0.03)
            engine.drain()
            with pytest.raises(DeadlineExceeded):
                handle.result()
            assert live.result().label == 0
            assert stub.computed == 1


# ----------------------------------------------------------------------
# kick(): capacity-throttled, priority-ordered dispatch
# ----------------------------------------------------------------------
class TestKickThrottle:
    def test_kick_dispatches_interactive_first_up_to_capacity(self):
        ga, gb = GatedExplainer(), GatedExplainer()
        engine = ExplainEngine(None, {"a": ga, "b": gb}, max_batch=8,
                               max_delay_ms=1.0,
                               executor=ThreadedExecutor(workers=1))
        try:
            engine.submit_async(_img(0), 0, "a", ctx="bulk")
            engine.submit_async(_img(1), 0, "b", ctx="interactive")
            time.sleep(0.01)               # both queues past max_delay
            assert engine.kick() == 1      # capacity 1: one batch only
            assert gb.entered.wait(timeout=5)   # ... the interactive one
            assert not ga.entered.is_set()
            assert engine.kick() == 0      # worker busy: nothing launched
            ga.release.set()
            gb.release.set()
            engine.drain()                 # unthrottled: bulk runs now
            assert ga.computed == 1 and gb.computed == 1
        finally:
            ga.release.set()
            gb.release.set()
            engine.close()


# ----------------------------------------------------------------------
# Operator stats: queues, tenants
# ----------------------------------------------------------------------
class TestStats:
    def test_queue_stats_depth_and_age(self):
        sched = MicroBatchScheduler(max_batch=8)
        for i in range(2):
            sched.enqueue("m", _img(i), 0, None, _key(i), object(),
                          ctx=RequestContext(priority="interactive"))
        sched.enqueue("other", _img(9, side=6), 0, None, _key(9),
                      object(), ctx=RequestContext(priority="bulk"))
        stats = sched.queue_stats()
        assert set(stats) == {"m@1x4x4#interactive", "other@1x6x6#bulk"}
        inter = stats["m@1x4x4#interactive"]
        assert inter["depth"] == 2 and inter["handles"] == 2
        assert inter["oldest_ms"] >= 0.0
        assert sched.queue_stats() != {} and sched.pop_batches()
        assert sched.queue_stats() == {}   # empty queues are elided

    def test_engine_stats_expose_queues_and_tenants(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        with engine:
            engine.submit_async(_img(0), 0, "stub",
                                ctx=RequestContext(tenant="acme"))
            stats = engine.stats()
            assert stats["queues"]["stub@1x4x4#normal"]["depth"] == 1
            engine.drain()
            stats = engine.stats()
            assert stats["tenants"]["acme"]["served"] == 1
            # The duplicate resolves from cache: tenant hit recorded.
            engine.submit_async(_img(0), 0, "stub",
                                ctx=RequestContext(tenant="acme"))
            engine.drain()
            assert engine.stats()["tenants"]["acme"]["served"] == 2

    def test_cache_counts_tenant_hits(self):
        cache = SaliencyCache(capacity=4)
        cache.put(_key(0), _result())
        assert cache.get(_key(0), tenant="acme") is not None
        assert cache.get(_key(0)) is not None          # anonymous: uncounted
        assert cache.stats()["tenant_hits"] == {"acme": 1}
        sharded = ShardedSaliencyCache(capacity=8, shards=2)
        sharded.put(_key(1), _result())
        sharded.get(_key(1), tenant="globex")
        sharded.get(_key(1), tenant="globex")
        assert sharded.stats()["tenant_hits"] == {"globex": 2}

    def test_store_counts_tenant_hits(self, tmp_path):
        store = SaliencyStore(str(tmp_path / "store"))
        try:
            store.put(_key(0), _result())
            store.flush()
            assert store.get(_key(0), tenant="acme") is not None
            assert store.get(_key(0)) is not None
            assert store.stats()["tenant_hits"] == {"acme": 1}
        finally:
            store.close()

    def test_store_flush_deadline_uses_monotonic_clock(self):
        # PRs 7/8 computed the flush timeout from os.times().elapsed,
        # whose resolution is a whole clock tick (10 ms); pin the fix.
        with open(os.path.join(REPO_ROOT, "src", "repro", "serve",
                               "store.py")) as fh:
            source = fh.read()
        for line in source.splitlines():   # comments may mention it
            assert "os.times" not in line.split("#", 1)[0]


# ----------------------------------------------------------------------
# Worker stamps on process-pool replies
# ----------------------------------------------------------------------
class TestTransportCarriage:
    def test_worker_stamps_ride_the_reply(self):
        """The batch reply (``ok_shm``) carries the worker's stamps, and
        run_batch applies them to the contexts it was given."""
        executor = ProcessExecutor(demo_spec(("gradcam",), width=8),
                                   workers=1)
        try:
            rng = np.random.default_rng(3)
            images = rng.standard_normal((2, 1, 16, 16)) \
                .astype(np.float32)
            labels = np.zeros(2, dtype=np.int64)
            ctxs = [RequestContext(priority="interactive",
                                   tenant="acme"),
                    RequestContext(priority="bulk", tenant="globex")]
            results, batch_ms = executor.run_batch(
                "gradcam", images, labels, None, ctxs=ctxs)
            assert len(results) == 2 and batch_ms >= 0.0
            for ctx in ctxs:
                assert ctx.worker_pid is not None
                assert ctx.worker_pid != os.getpid()
                assert ctx.worker_recv_at <= ctx.worker_done_at
            # Without contexts the same protocol runs; nothing to stamp.
            bare, _ = executor.run_batch("gradcam", images, labels, None)
            assert len(bare) == 2
            assert executor.transport_stats()["shm_batches"] == 2
            (worker,) = executor.worker_stats()
            assert worker["maps"] == 4
        finally:
            executor.shutdown()


# ----------------------------------------------------------------------
# explain_batch spawns per-element contexts
# ----------------------------------------------------------------------
class TestBatchContext:
    def test_explain_batch_spawns_per_element_stamps(self):
        stub = StubExplainer()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        with engine:
            template = RequestContext(priority="bulk", tenant="acme")
            images = np.stack([_img(0), _img(1)])
            results = engine.explain_batch(images, np.zeros(2, np.int64),
                                           "stub", ctx=template)
            assert len(results) == 2
            stats = engine.stats()
            assert stats["tenants"]["acme"]["served"] == 2
            # The template itself was never stamped (spawn() copies).
            assert template.admitted_at is None


# ----------------------------------------------------------------------
# check_bench gates the SLO keys
# ----------------------------------------------------------------------
class TestCheckBenchGate:
    SCRIPT = os.path.join(REPO_ROOT, "tools", "check_bench.py")

    def test_self_check_passes(self):
        proc = subprocess.run([sys.executable, self.SCRIPT,
                               "--self-check"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_p95_regression_fails_the_gate(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(
            {"current": {"slo": {"interactive_p95_ms": 10.0}}}))
        cur.write_text(json.dumps(
            {"ci": {"slo": {"interactive_p95_ms": 100.0}}}))
        proc = subprocess.run(
            [sys.executable, self.SCRIPT, str(base), str(cur),
             "--current-label", "ci"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "interactive_p95_ms" in proc.stdout + proc.stderr

    def test_committed_baseline_has_slo_section(self):
        with open(os.path.join(REPO_ROOT, "BENCH_serve.json")) as fh:
            doc = json.load(fh)
        slo = doc["current"]["slo"]
        for cls in ("interactive", "normal", "bulk"):
            assert f"{cls}_p95_ms" in slo and f"{cls}_p99_ms" in slo
        assert "deadline_miss_rate" in slo
        assert "priority_on_served_rps" in slo
