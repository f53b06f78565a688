"""Tests for the process-pool serving executor: spec replication,
serial-parity, cross-process dedup, failure isolation and lifecycle
(worker death, clean shutdown, handle conservation)."""

import os
import threading
import time

import numpy as np
import pytest
from conftest import CountingClassifier

from repro.serve import (EngineOverloaded, EngineSpec, ExplainEngine,
                         ProcessExecutor, WorkerBatchError, WorkerCrashed,
                         demo_spec, make_executor)
from repro.serve.worker import _demo_explainers


def _images(n: int, side: int = 16, channels: int = 1) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((n, channels, side, side)) \
        .astype(np.float32)


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker pool over the demo spec (gradcam + occlusion
    + a 100 ms/map sleeper).  Engines built on it must not be closed —
    ``close()`` would shut the shared workers down; the fixture owns
    the shutdown."""
    spec = demo_spec(("gradcam", "occlusion", "slow"), slow_ms=100.0)
    classifier, explainers = spec.materialize()
    executor = ProcessExecutor(spec, workers=2)
    yield classifier, explainers, executor
    executor.shutdown()
    assert all(not c.process.is_alive() for c in executor._all)


def _engine(pool, **kwargs) -> ExplainEngine:
    classifier, explainers, executor = pool
    kwargs.setdefault("max_batch", 4)
    return ExplainEngine(classifier, explainers, executor=executor,
                         **kwargs)


def _maps_computed(executor) -> int:
    return sum(s["maps"] for s in executor.worker_stats())


class TestEngineSpec:
    def test_string_factory_resolves_and_materializes(self):
        spec = demo_spec(("gradcam",), width=8, seed=3)
        assert spec.factory == "repro.serve.worker:_demo_explainers"
        classifier, explainers = spec.materialize()
        assert set(explainers) == {"gradcam"}
        # Same recipe, fresh call: replicas are bit-identical (the
        # parity the worker processes rely on).
        again, _ = demo_spec(("gradcam",), width=8, seed=3).materialize()
        images = _images(2)
        np.testing.assert_array_equal(classifier.predict_proba(images),
                                      again.predict_proba(images))

    def test_callable_factory_passes_through(self):
        spec = EngineSpec(_demo_explainers,
                          kwargs=dict(methods=("occlusion",)))
        _, explainers = spec.materialize()
        assert set(explainers) == {"occlusion"}

    def test_malformed_string_factory_rejected(self):
        with pytest.raises(ValueError, match="module:attr"):
            EngineSpec("no-colon-here").resolve_factory()

    def test_factory_must_return_explainer_mapping(self):
        with pytest.raises(TypeError, match="mapping"):
            EngineSpec(dict).materialize()

    def test_unknown_demo_method_rejected(self):
        with pytest.raises(KeyError, match="no methods"):
            demo_spec(("nope",)).materialize()

    def test_make_executor_process_requires_spec(self):
        with pytest.raises(ValueError, match="EngineSpec"):
            make_executor("process")


class TestProcessExecutor:
    def test_submitted_callables_run_in_parent(self, pool):
        # The executor contract: submit() runs the engine's bookkeeping
        # closure in the *parent* (locks, cache, handles live here);
        # only run_batch ships compute to a worker.
        _, _, executor = pool
        assert executor.submit(os.getpid).result() == os.getpid()

    def test_serial_parity_peak_relative(self, pool):
        classifier, explainers, _ = pool
        engine = _engine(pool)
        serial = ExplainEngine(classifier, explainers, max_batch=4)
        images = _images(6)
        labels = np.array([0, 1, 0, 1, 0, 1])
        for method in ("gradcam", "occlusion"):
            remote = engine.explain_batch(images, labels, method)
            local = serial.explain_batch(images, labels, method)
            for r, l in zip(remote, local):
                peak = max(np.abs(l.saliency).max(), 1e-12)
                assert np.abs(r.saliency - l.saliency).max() / peak < 1e-3
                assert r.label == l.label

    def test_omitted_labels_resolve_in_parent(self, pool):
        """``label=None`` resolves in the parent, one predict per batch;
        the workers receive plain labels, so the maps match the serial
        engine's and the labels are the classifier's argmax."""
        classifier, explainers, executor = pool
        counting = CountingClassifier(classifier)
        engine = ExplainEngine(counting, explainers, executor=executor,
                               max_batch=4)
        serial = ExplainEngine(classifier, explainers, max_batch=4)
        images = _images(4)
        argmax = list(classifier.predict(images))
        for method in ("gradcam", "occlusion"):
            handles = [engine.submit(img, None, method) for img in images]
            local = [serial.submit(img, None, method) for img in images]
            for r, l in zip(handles, local):
                r, l = r.result(), l.result()
                peak = max(np.abs(l.saliency).max(), 1e-12)
                assert np.abs(r.saliency - l.saliency).max() / peak < 1e-3
            assert [h.result().label for h in handles] == argmax
        assert counting.rows == [4, 4]

    def test_worker_measured_cost_feeds_cache(self, pool):
        # The sleeper costs ~100 ms/map *inside the worker*; the cost
        # recorded at insert must reflect that compute, which only
        # works if the worker's own clock rides back with the payload.
        engine = _engine(pool, cache_size=64)
        handle = engine.submit(_images(1)[0], 0, "slow")
        handle.result()
        shard = engine.cache._shard(next(iter(
            k for s in engine.cache.shards for k in s._store)))
        (cost,) = shard._cost.values()
        assert cost > 50.0
        # The worker's stamps land on the request's own context.
        assert handle.ctx.worker_pid not in (None, os.getpid())
        assert handle.ctx.worker_recv_at <= handle.ctx.worker_done_at

    def test_stats_aggregate_worker_plan_counters(self, pool):
        # Each replica compiles privately; stats() must sum the per-
        # worker plan counters (and max arena_bytes) instead of showing
        # the parent's unused cache.  The shared pool may have compiled
        # in earlier tests, so the assertions are monotone (>=).
        engine = _engine(pool, cache_size=64)
        images = _images(8)
        labels = np.zeros(4, dtype=np.int64)
        engine.explain_batch(images[:4], labels, "gradcam")
        engine.explain_batch(images[4:], labels, "gradcam")
        plans = engine.stats()["plans"]
        assert plans is not None
        assert plans["compiled"] >= 1
        assert plans["compiled"] + plans["replay_hits"] >= 2
        assert plans["arena_bytes"] > 0
        per_worker = [w["plans"] for _, _, ex in [pool]
                      for w in ex.worker_stats()]
        assert plans["compiled"] >= max(w["compiled"]
                                        for w in per_worker)

    def test_dedup_exactly_once_across_processes(self, pool):
        _, _, executor = pool
        engine = _engine(pool, max_batch=2)
        before = _maps_computed(executor)
        unique, repeats = 4, 3
        images = _images(unique)
        rng = np.random.default_rng(0)
        order = rng.permutation(np.repeat(np.arange(unique), repeats))
        handles = [engine.submit_async(images[i], int(i % 2), "gradcam")
                   for i in order]
        engine.drain()
        assert all(h.done for h in handles)
        stats = engine.stats()
        # Exactly one compute per unique request, counted where the
        # compute actually happened: inside the worker processes.
        assert _maps_computed(executor) - before == unique
        assert stats["cache_inserts"] == unique
        assert stats["requests_served"] == unique * repeats
        assert stats["dedup_hits"] + stats["cache_hits"] \
            == unique * (repeats - 1)

    def test_pending_handles_conservation_across_dispatch(self, pool):
        engine = _engine(pool, max_batch=2)
        images = _images(3)
        # Two submits fill the queue: the batch dispatches to a worker
        # (a ~200 ms sleep) and its handles are *in flight*, not queued.
        h1 = engine.submit_async(images[0], 0, "slow")
        h2 = engine.submit_async(images[1], 0, "slow")
        h3 = engine.submit_async(images[2], 0, "slow")   # stays queued
        stats = engine.stats()
        assert stats["pending"] == 1                     # queued unique
        assert stats["pending_handles"] == 3             # queued+in-flight
        engine.drain()
        assert all(h.done for h in (h1, h2, h3))
        stats = engine.stats()
        assert stats["pending_handles"] == 0
        assert stats["requests_served"] == 3

    def test_worker_counters_ride_replies_while_a_batch_runs(self):
        # Every reply carries the worker's counters, so stats() reads
        # the workers' plan caches mid-flight instead of the parent's
        # unused one, and worker_stats() never waits for an idle pool.
        spec = demo_spec(("gradcam", "slow"), slow_ms=400.0)
        classifier, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=1)
        (fresh,) = executor.worker_stats()       # from the handshake
        assert (fresh["batches"], fresh["maps"]) == (0, 0)
        assert fresh["plans"]["compiled"] == 0
        with ExplainEngine(classifier, explainers, max_batch=1,
                           executor=executor) as engine:
            images = _images(3)
            engine.explain_batch(images[:2], np.zeros(2, np.int64),
                                 "gradcam")
            handle = engine.submit_async(images[2], 0, "slow")
            for _ in range(5000):
                if executor._all[0].inflight:
                    break
                time.sleep(0.001)
            start = time.perf_counter()
            (worker,) = executor.worker_stats()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            plans = engine.stats()["plans"]
            assert elapsed_ms < 100.0
            assert worker["maps"] == 2            # the slow map is out
            assert plans["compiled"] >= 1
            assert not handle.done                # probed mid-batch
            handle.result()
            (worker,) = executor.worker_stats()
            assert (worker["batches"], worker["maps"]) == (3, 3)

    def test_remote_failure_resolves_handle_with_traceback(self):
        spec = demo_spec(("boom", "occlusion"))
        classifier, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=1)
        engine = ExplainEngine(classifier, explainers, max_batch=1,
                               executor=executor)
        try:
            handle = engine.submit_async(_images(1)[0], 0, "boom")
            engine.drain()                   # the error is the handle's
            with pytest.raises(WorkerBatchError,
                               match="injected worker failure") as exc:
                handle.result()
            # The remote traceback names the real failure site, not the
            # parent-side pipe round-trip.
            assert "explain_batch" in exc.value.remote_traceback
            # Nothing stays queued, and the pool survived a batch that
            # merely *raised*: other methods still serve on it.
            assert engine.pending_count("boom") == 0
            assert executor.alive_workers == 1
            ok = engine.explain(_images(1)[0], 1, "occlusion")
            assert ok.label == 1
            engine.close()                   # clean
        finally:
            executor.shutdown()

    def test_worker_death_mid_batch_then_close_overloads_with_cause(self):
        spec = demo_spec(("exit", "occlusion"))
        classifier, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=1)
        engine = ExplainEngine(classifier, explainers, max_batch=1,
                               executor=executor)
        handle = engine.submit_async(_images(1)[0], 0, "exit")
        engine.drain()                 # the lone worker os._exits mid-batch
        later = engine.submit_async(_images(1)[0], 1, "occlusion")
        # close() drains cleanly, and the shutdown reaps every process:
        # no orphans.
        engine.close()
        assert executor.alive_workers == 0
        assert all(not c.process.is_alive() for c in executor._all)
        assert engine.pending_count() == 0
        # With no survivor, the request and the work behind it resolved
        # in the engine's cannot-make-progress type, crash as the cause.
        for pending in (handle, later):
            with pytest.raises(EngineOverloaded) as exc:
                pending.result()
            assert isinstance(exc.value.__cause__, WorkerCrashed)

    def test_batch_failure_recovers_on_surviving_worker(self):
        # One worker dies mid-batch; the lone request resolves with the
        # crash (a deterministic crash is not re-run), and the pool keeps
        # a survivor that serves the next work.
        spec = demo_spec(("exit", "gradcam"))
        classifier, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=2)
        engine = ExplainEngine(classifier, explainers, max_batch=1,
                               executor=executor)
        try:
            handle = engine.submit_async(_images(1)[0], 0, "exit")
            engine.drain()
            with pytest.raises(WorkerCrashed):
                handle.result()              # survivor remains: not Overloaded
            assert executor.alive_workers == 1
            result = engine.explain(_images(1)[0], 1, "gradcam")
            assert result.label == 1
        finally:
            executor.shutdown()

    def test_engine_close_shuts_pool_down_cleanly(self):
        spec = demo_spec(("occlusion",))
        classifier, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=2)
        with ExplainEngine(classifier, explainers, max_batch=2,
                           executor=executor) as engine:
            handles = [engine.submit_async(img, 0, "occlusion")
                       for img in _images(4)]
            engine.drain()
            assert all(h.done for h in handles)
        # __exit__ drained then shut down: every worker exited by
        # itself (clean stop message, exitcode 0), none orphaned.
        assert executor.alive_workers == 0
        for channel in executor._all:
            assert not channel.process.is_alive()
            assert channel.process.exitcode == 0
        executor.shutdown()                  # idempotent

    def test_broken_spec_fails_constructor_with_remote_traceback(self):
        with pytest.raises(WorkerCrashed, match="materialize"):
            ProcessExecutor(demo_spec(("nope",)), workers=1)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessExecutor(demo_spec(), workers=0)
        with pytest.raises(TypeError, match="EngineSpec"):
            ProcessExecutor("not a spec")
