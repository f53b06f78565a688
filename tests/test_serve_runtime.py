"""Tests for the sharded/deduplicating/async ``repro.serve`` runtime:
cache shards, scheduler dedup fan-out, executors, heterogeneous-shape
queues, and the thread-safety substrate they rely on."""

import threading
import time
import zlib

import numpy as np
import pytest
from conftest import (FlakyExplainer, GatedExplainer, MarkerExplainer,
                      StubExplainer)

from repro import nn
from repro.explain import GradCAMExplainer, OcclusionExplainer
from repro.explain.base import Explainer, SaliencyResult
from repro.serve import (DeadlineExceeded, ExplainEngine, RequestContext,
                         SaliencyCache, SerialExecutor,
                         ShardedSaliencyCache, ThreadedExecutor,
                         image_digest, make_executor, request_key)


def _keys_for_shard(shard: int, shards: int, count: int):
    """Deterministically craft cache keys whose digests route to one
    shard (the cache routes on ``crc32(digest) % shards``)."""
    keys = []
    i = 0
    while len(keys) < count:
        digest = f"digest-{i}"
        if zlib.crc32(digest.encode()) % shards == shard:
            keys.append((digest, "m", 0, None))
        i += 1
    return keys


def _result(value: float = 1.0) -> SaliencyResult:
    return SaliencyResult(np.full((4, 4), value), 0)


class TestShardedSaliencyCache:
    def test_same_key_routes_to_same_shard(self):
        cache = ShardedSaliencyCache(capacity=16, shards=4)
        key = ("abc123", "gradcam", 1, None)
        cache.put(key, _result())
        assert key in cache
        assert cache.get(key) is not None
        assert cache.hits == 1

    def test_sizes_and_eviction_accounting_aggregate(self):
        cache = ShardedSaliencyCache(capacity=16, shards=4)
        for i in range(40):
            cache.put((f"d{i}", "m", 0, None), _result(i))
        assert len(cache) == sum(cache.shard_sizes())
        assert cache.inserts == 40
        assert cache.evictions == cache.inserts - len(cache)
        for shard, size in zip(cache.shards, cache.shard_sizes()):
            assert size <= shard.capacity
        stats = cache.stats()
        assert stats["shards"] == 4
        assert stats["size"] == len(cache)
        assert stats["shard_sizes"] == cache.shard_sizes()

    def test_per_shard_lru_eviction(self):
        # capacity 8 over 4 shards -> 2 entries per shard; 5 keys all
        # crafted onto shard 1 must leave the 2 most recent, 3 evicted,
        # and every other shard untouched.
        cache = ShardedSaliencyCache(capacity=8, shards=4)
        keys = _keys_for_shard(1, 4, 5)
        for i, key in enumerate(keys):
            cache.put(key, _result(i))
        assert cache.shard_sizes()[1] == 2
        assert sum(cache.shard_sizes()) == 2
        assert cache.evictions == 3
        assert keys[-1] in cache and keys[-2] in cache
        assert keys[0] not in cache

    def test_shards_clamped_to_capacity(self):
        cache = ShardedSaliencyCache(capacity=2, shards=8)
        assert len(cache.shards) == 2

    def test_capacity_split_evenly(self):
        cache = ShardedSaliencyCache(capacity=10, shards=4)
        assert sorted(s.capacity for s in cache.shards) == [2, 2, 3, 3]
        assert sum(s.capacity for s in cache.shards) == 10

    def test_single_shard_matches_plain_lru(self):
        sharded = ShardedSaliencyCache(capacity=2, shards=1)
        plain = SaliencyCache(capacity=2)
        keys = [(f"d{i}", "m", 0, None) for i in range(3)]
        for i, key in enumerate(keys):
            sharded.put(key, _result(i))
            plain.put(key, _result(i))
        assert (keys[0] in sharded) == (keys[0] in plain) is False
        assert sharded.evictions == plain.evictions == 1


@pytest.fixture()
def engine(tiny_classifier):
    return ExplainEngine(
        tiny_classifier,
        {"gradcam": GradCAMExplainer(tiny_classifier),
         "occlusion": OcclusionExplainer(tiny_classifier, window=4,
                                         stride=4)},
        max_batch=4, cache_size=32, cache_shards=4)


@pytest.fixture()
def sample(tiny_test_set):
    return tiny_test_set.images, tiny_test_set.labels


class TestDedup:
    def test_duplicate_submits_share_one_computation(self, engine, sample):
        images, labels = sample
        handles = [engine.submit(images[0], int(labels[0]), "gradcam")
                   for _ in range(3)]
        assert engine.pending_count("gradcam") == 1      # one unique
        assert engine.stats()["dedup_hits"] == 2
        assert engine.stats()["pending_handles"] == 3
        engine.flush("gradcam")
        results = [h.result() for h in handles]
        assert results[0] is results[1] is results[2]    # fanned out
        stats = engine.stats()
        assert stats["batches_run"] == 1
        assert stats["requests_served"] == 3
        assert stats["cache_inserts"] == 1

    def test_explain_batch_duplicates_computed_once(self, engine, sample):
        images, labels = sample
        batch = images[[0, 0, 1]]
        labs = labels[[0, 0, 1]]
        results = engine.explain_batch(batch, labs, "occlusion")
        assert len(results) == 3
        assert results[0] is results[1]
        stats = engine.stats()
        assert stats["batches_run"] == 1                 # 2 unique, 1 batch
        assert stats["dedup_hits"] == 1
        assert stats["cache_inserts"] == 2

    def test_different_label_or_target_not_deduped(self, engine, sample):
        images, labels = sample
        engine.submit(images[0], 0, "gradcam")
        engine.submit(images[0], 1, "gradcam")
        engine.submit(images[0], 0, "gradcam", target_label=1)
        assert engine.pending_count("gradcam") == 3
        assert engine.stats()["dedup_hits"] == 0

    def test_duplicate_of_inflight_batch_attaches(self, tiny_classifier,
                                                  sample):
        """A duplicate arriving while its twin's batch is running on a
        worker must attach to the in-flight request, not recompute."""
        release = threading.Event()
        entered = threading.Event()
        computed = {"images": 0}

        class Blocking(Explainer):
            name = "block"

            def explain_batch(self, images, labels, target_labels=None):
                computed["images"] += len(images)
                entered.set()
                assert release.wait(timeout=5)
                return [SaliencyResult(np.zeros(images.shape[2:]), int(y))
                        for y in labels]

        images, labels = sample
        with ExplainEngine(tiny_classifier, {"block": Blocking()},
                           max_batch=1, executor="threaded") as engine:
            h1 = engine.submit_async(images[0], int(labels[0]), "block")
            assert entered.wait(timeout=5)       # batch is now in flight
            h2 = engine.submit_async(images[0], int(labels[0]), "block")
            release.set()
            assert engine.drain() == 2
            assert computed["images"] == 1       # exactly one pass
            assert h1.result() is h2.result()
            stats = engine.stats()
            assert stats["dedup_hits"] == 1
            assert stats["requests_served"] == 2

    def test_dedup_result_carries_digest(self, engine, sample):
        images, labels = sample
        result = engine.explain(images[0], int(labels[0]), "gradcam")
        expected = request_key(images[0], "gradcam", int(labels[0]), None)
        assert result.image_digest == expected[0]


class TestDigestOncePerRequest:
    def test_submit_hashes_each_image_once(self, engine, sample,
                                           monkeypatch):
        import repro.serve.engine as engine_mod
        calls = []
        real = image_digest

        def counting(image):
            calls.append(1)
            return real(image)

        monkeypatch.setattr(engine_mod, "image_digest", counting)
        images, labels = sample
        engine.explain(images[0], int(labels[0]), "gradcam")
        assert len(calls) == 1                 # submit + insert share it
        engine.explain(images[0], int(labels[0]), "gradcam")
        assert len(calls) == 2                 # cache hit: one more probe


class _ShapeStub(Explainer):
    name = "stub"

    def explain_batch(self, images, labels, target_labels=None):
        return [SaliencyResult(np.full(images.shape[2:], images.shape[-1],
                                       dtype=float), int(y))
                for y in labels]


class TestHeterogeneousShapes:
    def test_shape_queues_flush_independently(self, tiny_classifier):
        engine = ExplainEngine(tiny_classifier, {"stub": _ShapeStub()},
                               max_batch=2)
        big = [engine.submit(np.full((1, 16, 16), i, dtype=np.float32),
                             0, "stub") for i in range(1)]
        small = [engine.submit(np.full((1, 8, 8), i, dtype=np.float32),
                               0, "stub") for i in range(1)]
        assert engine.pending_count("stub") == 2
        # Filling the 16x16 queue auto-flushes only that queue.
        big.append(engine.submit(np.full((1, 16, 16), 9, dtype=np.float32),
                                 0, "stub"))
        assert all(h.done for h in big)
        assert not small[0].done
        assert engine.pending_count("stub") == 1
        engine.flush("stub")
        assert small[0].done
        assert small[0].result().saliency.shape == (8, 8)
        assert big[0].result().saliency.shape == (16, 16)
        assert engine.stats()["batches_run"] == 2

    def test_never_stacks_mixed_shapes(self, tiny_classifier):
        seen = []

        class Recorder(Explainer):
            name = "rec"

            def explain_batch(self, images, labels, target_labels=None):
                seen.append(images.shape)
                return [SaliencyResult(np.zeros(images.shape[2:]), int(y))
                        for y in labels]

        engine = ExplainEngine(tiny_classifier, {"rec": Recorder()},
                               max_batch=8)
        for i in range(3):
            engine.submit(np.full((1, 16, 16), i, dtype=np.float32),
                          0, "rec")
        for i in range(2):
            engine.submit(np.full((1, 8, 8), i, dtype=np.float32),
                          0, "rec")
        engine.flush()
        assert sorted(seen) == [(2, 1, 8, 8), (3, 1, 16, 16)]


class TestExecutors:
    def test_make_executor_resolution(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        threaded = make_executor("threaded")
        assert isinstance(threaded, ThreadedExecutor)
        threaded.shutdown()
        with pytest.raises(ValueError):
            make_executor("hyperdrive")

    def test_threaded_default_workers_derive_from_cpu_count(self):
        # Not a hardcoded constant: the default pool sizes to the
        # visible cores, clamped to [1, 8].
        from repro.serve import default_worker_count
        import os as _os
        expected = max(1, min(_os.cpu_count() or 1, 8))
        assert default_worker_count() == expected
        executor = ThreadedExecutor()
        try:
            assert executor.workers == expected
        finally:
            executor.shutdown()
        via_factory = make_executor("threaded")
        try:
            assert via_factory.workers == expected
        finally:
            via_factory.shutdown()
        explicit = ThreadedExecutor(workers=3)
        try:
            assert explicit.workers == 3
        finally:
            explicit.shutdown()

    def test_shutdown_nowait_cancels_queued_futures(self):
        # Regression: shutdown(wait=False) is the fatal-error path —
        # queued-but-unstarted work must be *cancelled*, not left as
        # futures no thread will ever run (a close() after a wedged
        # batch would otherwise hang any caller still waiting on the
        # backlog).
        executor = ThreadedExecutor(workers=1)
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            return release.wait(10)

        first = executor.submit(blocker)
        assert started.wait(5)               # occupies the lone worker
        backlog = [executor.submit(lambda: None) for _ in range(4)]
        try:
            executor.shutdown(wait=False)
            assert all(f.cancelled() for f in backlog)
        finally:
            release.set()
        assert first.result(timeout=10) is True

    def test_threaded_matches_serial(self, tiny_classifier, sample):
        images, labels = sample

        def build(executor):
            return ExplainEngine(
                tiny_classifier,
                {"gradcam": GradCAMExplainer(tiny_classifier),
                 "occlusion": OcclusionExplainer(tiny_classifier, window=4,
                                                 stride=4)},
                max_batch=3, cache_size=64, cache_shards=4,
                executor=executor)

        serial, threaded = build("serial"), build("threaded")
        with threaded:
            pairs = []
            for i in range(6):
                for m in ("gradcam", "occlusion"):
                    pairs.append((serial.submit_async(images[i],
                                                      int(labels[i]), m),
                                  threaded.submit_async(images[i],
                                                        int(labels[i]), m)))
            assert serial.drain() == threaded.drain() == len(pairs)
            for a, b in pairs:
                np.testing.assert_allclose(a.result().saliency,
                                           b.result().saliency,
                                           rtol=1e-5, atol=1e-6)

    def test_submit_async_resolves_via_handle_result(self, tiny_classifier,
                                                     sample):
        images, labels = sample
        with ExplainEngine(tiny_classifier,
                           {"gradcam": GradCAMExplainer(tiny_classifier)},
                           max_batch=2, executor="threaded") as engine:
            h1 = engine.submit_async(images[0], int(labels[0]), "gradcam")
            h2 = engine.submit_async(images[1], int(labels[1]), "gradcam")
            # Full queue dispatched without blocking; result() waits on
            # the in-flight future (no flush needed).
            assert h1.result().saliency.shape == images[0].shape[1:]
            assert h2.result().label == int(labels[1])
            assert engine.pending_count() == 0

    def test_async_transient_failure_recovers_by_bisection(
            self, tiny_classifier, sample):
        flaky = FlakyExplainer()
        images, labels = sample
        with ExplainEngine(tiny_classifier, {"flaky": flaky},
                           max_batch=2, executor="threaded") as engine:
            first = engine.submit_async(images[0], int(labels[0]), "flaky")
            handle = engine.submit_async(images[1], int(labels[1]), "flaky")
            # The failed pair re-runs as two halves, which succeed:
            # nothing raises and nothing is left queued.
            assert engine.drain() == 2
            assert flaky.calls == 3
            assert first.result().label == int(labels[0])
            assert handle.result().label == int(labels[1])
            assert engine.pending_count("flaky") == 0

    def test_drain_empty_engine_is_noop(self, engine):
        assert engine.drain() == 0


def _img(i: int) -> np.ndarray:
    return np.full((1, 4, 4), float(i), dtype=np.float32)


class TestEngineLifecycle:
    def test_close_drains_queued_requests(self):
        """``close()`` must resolve still-queued async requests instead
        of shutting the executor down under them (which silently
        stranded their handles)."""
        engine = ExplainEngine(None, {"instant": StubExplainer()}, max_batch=8,
                               executor="threaded")
        handles = [engine.submit_async(_img(i), 0, "instant")
                   for i in range(3)]          # below max_batch: queued
        assert engine.pending_count() == 3
        engine.close()
        assert all(h.done for h in handles)
        assert engine.pending_count() == 0

    def test_close_drains_inflight_batches(self):
        parked = GatedExplainer()
        engine = ExplainEngine(None, {"parked": parked}, max_batch=1,
                               executor="threaded")
        handle = engine.submit_async(_img(0), 0, "parked")
        assert parked.entered.wait(timeout=5)
        parked.release.set()
        engine.close()
        assert handle.done
        assert handle.result().label == 0

    def test_close_is_clean_after_persistent_failure(self):
        broken = FlakyExplainer(failures=None)     # every batch fails
        engine = ExplainEngine(None, {"broken": broken}, max_batch=8)
        handle = engine.submit_async(_img(0), 0, "broken")
        engine.close()                     # the error is the handle's
        assert broken.calls == 1           # a lone request never re-runs
        with pytest.raises(RuntimeError, match="backend failure"):
            handle.result()
        engine.close()                     # idempotent: no re-drain
        assert broken.calls == 1

    def test_close_after_transient_failure_resolves_on_retry(self):
        flaky = FlakyExplainer()
        engine = ExplainEngine(None, {"flaky": flaky}, max_batch=8)
        handles = [engine.submit_async(_img(i), 0, "flaky")
                   for i in range(2)]
        engine.close()                     # the halves re-run and succeed
        assert [h.result().label for h in handles] == [0, 0]
        assert flaky.calls == 3


class TestDrainAccounting:
    def test_retry_drain_reports_banked_successes(self):
        """drain() counts every handle resolved since the last drain,
        failed ones included: counts banked when a later dispatch
        pruned settled futures are paid out, and nothing re-raises."""
        engine = ExplainEngine(None,
                               {"good": StubExplainer(),
                                "flaky": FlakyExplainer()},
                               max_batch=1)
        engine.submit_async(_img(0), 0, "good")     # dispatches, succeeds
        failed = engine.submit_async(_img(1), 0, "flaky")   # fails alone
        engine.submit_async(_img(2), 0, "good")     # prunes and banks both
        assert engine.drain() == 3
        with pytest.raises(RuntimeError, match="transient"):
            failed.result()
        # A failure is never cached: the retry computes, and its drain
        # reports it.
        retry = engine.submit_async(_img(1), 0, "flaky")
        assert engine.drain() == 1
        assert retry.result().label == 0
        stats = engine.stats()
        assert (stats["requests_served"], stats["requests_failed"]) == (3, 1)


class TestFailureIsolation:
    """A batch that raises is re-run as two halves, down to single
    requests: a bad request fails only its own handles, nothing is
    requeued, and every admitted request ends served, failed or
    expired."""

    @staticmethod
    def _images(n: int, side: int = 4) -> np.ndarray:
        return np.random.default_rng(side).standard_normal(
            (n, 1, side, side)).astype(np.float32)

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_one_bad_request_in_a_batch_fails_only_itself(self, executor):
        images = self._images(8)
        clean = MarkerExplainer().explain_batch(images,
                                                np.zeros(8, np.int64))
        images[5, 0, 0, 0] = MarkerExplainer.MARKER
        marker = MarkerExplainer()
        with ExplainEngine(None, {"marker": marker}, max_batch=8,
                           executor=executor) as engine:
            handles = [engine.submit_async(image, 0, "marker")
                       for image in images]
            assert engine.drain() == 8
            for i, handle in enumerate(handles):
                if i == 5:
                    with pytest.raises(ValueError, match="marked"):
                        handle.result()
                else:
                    np.testing.assert_array_equal(handle.result().saliency,
                                                  clean[i].saliency)
            # The failed 8, the good half, the bad half, and so on down
            # to the bad request alone.
            assert marker.batch_sizes == [8, 4, 4, 2, 1, 1, 2]
            stats = engine.stats()
            assert engine.pending_count() == 0
            assert stats["unresolved"] == 0
            assert stats["pending_handles"] == 0
            assert stats["requests_served"] == 7
            assert stats["requests_failed"] == 1

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_fails_once_batch_resolves_every_request(self, executor):
        flaky = FlakyExplainer()
        with ExplainEngine(None, {"flaky": flaky}, max_batch=4,
                           executor=executor) as engine:
            handles = [engine.submit_async(_img(i), 0, "flaky")
                       for i in range(4)]
            assert engine.drain() == 4
            assert [h.result().label for h in handles] == [0] * 4
            assert flaky.calls == 3
            assert engine.stats()["requests_failed"] == 0

    @pytest.mark.parametrize("entry",
                             ["submit", "submit_async", "explain_batch"])
    def test_later_requests_of_the_method_still_serve(self, entry):
        engine = ExplainEngine(None, {"marker": MarkerExplainer()},
                               max_batch=8, executor="threaded")

        def run(images):
            if entry == "explain_batch":
                return engine.explain_batch(np.stack(images),
                                            np.zeros(len(images), np.int64),
                                            "marker")
            submit = getattr(engine, entry)
            handles = [submit(image, 0, "marker") for image in images]
            return [handle.result() for handle in handles]

        bad = self._images(1)[0]
        bad[0, 0, 0] = MarkerExplainer.MARKER
        with pytest.raises(ValueError, match="marked"):
            run([bad])
        for side in (4, 8):                # its own shape, then another
            images = list(self._images(2, side))
            for image, result in zip(images, run(images)):
                np.testing.assert_array_equal(result.saliency, image[0])
        assert engine.pending_count() == 0
        engine.close()                     # clean: nothing re-raises

    def test_interrupt_propagates_from_flush_and_leaves_nothing_pending(self):
        class Interrupting(StubExplainer):
            def explain_batch(self, images, labels, target_labels=None):
                raise KeyboardInterrupt

        engine = ExplainEngine(None, {"stub": Interrupting()}, max_batch=8)
        handle = engine.submit(_img(0), 0, "stub")
        raised = []

        def flush():
            try:
                engine.flush()
            except KeyboardInterrupt:
                raised.append(True)

        # In a thread, so a hang fails the test instead of the suite.
        thread = threading.Thread(target=flush, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and raised == [True]
        assert handle.done
        with pytest.raises(KeyboardInterrupt):
            handle.result()
        stats = engine.stats()
        assert engine.pending_count() == 0
        assert stats["pending_handles"] == 0
        assert stats["requests_failed"] == 1
        engine.close()


    def test_serial_async_interrupt_stops_the_sweep(self):
        """A serial engine with ``max_pending`` ingests ``explain_batch``
        through ``submit_async`` and runs each full batch inline: an
        interrupt in one surfaces from that submit, before any later
        batch runs, and only once."""
        class InterruptSecond(StubExplainer):
            calls = 0

            def explain_batch(self, images, labels, target_labels=None):
                self.calls += 1
                if self.calls == 2:
                    raise KeyboardInterrupt
                return super().explain_batch(images, labels, target_labels)

        stub = InterruptSecond()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=2,
                               max_pending=64, executor="serial")
        images = np.stack([_img(i) for i in range(8)])
        with pytest.raises(KeyboardInterrupt):
            engine.explain_batch(images, np.zeros(8, np.int64), "stub")
        assert stub.calls == 2
        assert engine.pending_count() == 0
        stats = engine.stats()
        assert (stats["requests_served"], stats["requests_failed"]) == (2, 2)
        assert stats["unresolved"] == 0
        engine.close()                     # delivered once: nothing re-raises

    def test_serial_interrupt_resolves_batches_not_yet_run(self):
        """A serial flush of two queues stops at the batch that raised
        the interrupt: the other resolves with it, uncomputed."""
        class Interrupting(StubExplainer):
            def explain_batch(self, images, labels, target_labels=None):
                self.computed += 1
                raise KeyboardInterrupt

        stub = Interrupting()
        engine = ExplainEngine(None, {"stub": stub}, max_batch=8,
                               executor="serial")
        handles = [engine.submit(np.zeros((1, side, side), np.float32), 0,
                                 "stub") for side in (4, 8)]
        with pytest.raises(KeyboardInterrupt):
            engine.flush()
        assert stub.computed == 1
        for handle in handles:
            with pytest.raises(KeyboardInterrupt):
                handle.result()
        stats = engine.stats()
        assert engine.pending_count() == 0
        assert (stats["requests_failed"], stats["pending_handles"]) == (2, 0)
        engine.close()


class TestTerminalStateAccounting:
    def test_every_returned_handle_is_served_failed_or_expired(self):
        """Globally and per tenant, served + failed + expired equals the
        handles the submits returned, over a mixed run: good and failing
        requests, dedup attaches onto both, expiry at admission and in
        the queue, and cache hits."""
        images = np.random.default_rng(5).standard_normal(
            (6, 1, 4, 4)).astype(np.float32)
        bad = images[5].copy()
        bad[0, 0, 0] = MarkerExplainer.MARKER
        tenants = ("acme", "globex", None)
        handles = {tenant: [] for tenant in tenants}
        engine = ExplainEngine(None, {"marker": MarkerExplainer()},
                               max_batch=16, executor="threaded")

        def submit(tenant, image, deadline_ms=None):
            ctx = (RequestContext(tenant=tenant) if deadline_ms is None
                   else RequestContext.with_timeout(deadline_ms,
                                                    tenant=tenant))
            handles[tenant].append(
                engine.submit_async(image, 0, "marker", ctx=ctx))

        with engine:
            for i, tenant in enumerate(tenants):
                submit(tenant, images[0])          # shared: dedup attaches
                submit(tenant, images[1 + i])
                submit(tenant, bad)                # dedup onto a failure
                submit(tenant, images[4] + i, deadline_ms=30.0)
            time.sleep(0.06)                       # queued ones expire
            # Dead on arrival: expires at admission, never queued.
            submit("acme", images[4] + 9, deadline_ms=1e-3)
            engine.drain()
            for tenant in tenants:
                submit(tenant, images[0])          # cache hits
            engine.drain()
            stats = engine.stats()

        def tally(group):
            served = failed = expired = 0
            for handle in group:
                assert handle.done
                try:
                    handle.result()
                    served += 1
                except DeadlineExceeded:
                    expired += 1
                except ValueError:
                    failed += 1
            return served, failed, expired

        total = tally([h for group in handles.values() for h in group])
        assert total == (9, 3, 4)
        assert (stats["requests_served"], stats["requests_failed"],
                stats["deadline_expired"]) == total
        for tenant in ("acme", "globex"):
            counts = stats["tenants"][tenant]
            assert (counts["served"], counts["requests_failed"],
                    counts["deadline_expired"]) == tally(handles[tenant])
        assert stats["unresolved"] == 0
        assert stats["pending_handles"] == 0


class TestPendingHandleConservation:
    def test_inflight_handles_stay_visible(self):
        """Handles attached to a running batch must not vanish from
        ``stats()['pending_handles']`` mid-flight: every submitted
        handle is pending until the moment it resolves."""
        parked = GatedExplainer()
        engine = ExplainEngine(None, {"parked": parked}, max_batch=1,
                               executor="threaded")
        with engine:
            engine.submit_async(_img(0), 0, "parked")
            assert parked.entered.wait(timeout=5)     # batch in flight
            engine.submit_async(_img(0), 0, "parked")  # dedups onto it
            stats = engine.stats()
            assert stats["pending"] == 0               # queue is empty
            assert stats["pending_handles"] == 2       # but both visible
            parked.release.set()
            assert engine.drain() == 2
            assert engine.stats()["pending_handles"] == 0
            assert engine.stats()["requests_served"] == 2


class TestThreadSafetySubstrate:
    def test_grad_switch_is_thread_local(self):
        observed = {}

        def worker():
            observed["worker"] = nn.is_grad_enabled()

        with nn.no_grad():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert not nn.is_grad_enabled()
        assert observed["worker"] is True      # default, not leaked False
        assert nn.is_grad_enabled()

    def test_frozen_is_reference_counted(self, tiny_classifier):
        params = list(tiny_classifier.parameters())
        assert all(p.requires_grad for p in params)
        with nn.frozen(tiny_classifier):
            assert not any(p.requires_grad for p in params)
            with nn.frozen(tiny_classifier):
                assert not any(p.requires_grad for p in params)
            # Inner exit must not unfreeze while the outer scope holds.
            assert not any(p.requires_grad for p in params)
        assert all(p.requires_grad for p in params)

    def test_frozen_concurrent_scopes_restore_flags(self, tiny_classifier):
        barrier = threading.Barrier(2)
        errors = []

        def hold():
            try:
                with nn.frozen(tiny_classifier):
                    barrier.wait(timeout=5)
                    barrier.wait(timeout=5)
            except Exception as exc:        # pragma: no cover - diagnostic
                errors.append(exc)

        t = threading.Thread(target=hold)
        t.start()
        barrier.wait(timeout=5)             # other thread holds the freeze
        with nn.frozen(tiny_classifier):
            pass                            # overlapping scope exits first
        assert not any(p.requires_grad
                       for p in tiny_classifier.parameters())
        barrier.wait(timeout=5)
        t.join(timeout=5)
        assert not errors
        assert all(p.requires_grad for p in tiny_classifier.parameters())
