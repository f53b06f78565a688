"""Tests for the persistent saliency store (tier 2): record round
trips, write-behind semantics, journal replay, crash consistency
(torn-record scan rebuild), segment compaction, vanished segments, the
single-writer lockfile, engine warm restart (in-process and on a
process pool), and the cache's derived hit-rate stats."""

import os

import numpy as np
import pytest
from conftest import CountingClassifier, StubExplainer

from repro.explain.base import Explainer, SaliencyResult
from repro.serve import (ExplainEngine, ProcessExecutor, SaliencyCache,
                         SaliencyStore, StoreClosed, demo_spec, request_key)


def _result(i: int, side: int = 8) -> SaliencyResult:
    rng = np.random.default_rng(i)
    return SaliencyResult(rng.random((side, side)).astype(np.float32),
                          label=i % 3, target_label=None,
                          meta={"source": "test"})


def _key(i: int):
    return (f"digest-{i:04d}", "gradcam", i % 3, None)


def _populate(store: SaliencyStore, n: int, cost: float = 5.0,
              side: int = 8) -> None:
    for i in range(n):
        store.put(_key(i), _result(i, side), cost_ms=cost + i)
    store.flush()


class CountingStub(Explainer):
    """Deterministic explainer whose compute count exposes what the
    store absorbed."""

    needs_gradients = False

    def __init__(self):
        self.computed = 0

    def explain_batch(self, images, labels, target_labels=None):
        self.computed += len(images)
        return [SaliencyResult(images[i].mean(axis=0) * (int(y) + 1),
                               int(y))
                for i, y in enumerate(labels)]


def _images(n: int, side: int = 8) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.standard_normal((n, 1, side, side)).astype(np.float32)


# ----------------------------------------------------------------------
class TestStoreBasics:
    def test_round_trip_quantized_and_frozen(self, tmp_path):
        with SaliencyStore(str(tmp_path / "s")) as store:
            original = _result(3)
            store.put(_key(3), original, cost_ms=12.5)
            store.flush()
            hit = store.get(_key(3))
            assert hit is not None
            result, cost = hit
            assert cost == 12.5
            # float16 quantization: a ranking-preserving ~1e-3 round
            # trip, widened back to float32, frozen like tier-1 hits.
            assert result.saliency.dtype == np.float32
            np.testing.assert_allclose(result.saliency,
                                       original.saliency, rtol=2e-3, atol=2e-3)
            assert not result.saliency.flags.writeable
            assert result.label == original.label
            assert result.meta["source"] == "test"
            assert result.image_digest == _key(3)[0]
            assert store.get(_key(99)) is None
            assert store.stats()["misses"] == 1

    def test_pending_queue_hit_before_disk(self, tmp_path):
        store = SaliencyStore(str(tmp_path / "s"), write_behind=False)
        try:
            store.put(_key(1), _result(1), cost_ms=3.0)
            # Nothing drained yet (no flusher thread in synchronous
            # mode), yet the entry is already servable.
            assert store.stats()["writes"] == 0
            hit = store.get(_key(1))
            assert hit is not None and hit[1] == 3.0
            assert store.stats()["pending_hits"] == 1
        finally:
            store.close()

    def test_coalescing_and_drop_oldest(self, tmp_path):
        store = SaliencyStore(str(tmp_path / "s"), queue_depth=2,
                              write_behind=False)
        try:
            store.put(_key(1), _result(1), cost_ms=1.0)
            store.put(_key(1), _result(7), cost_ms=9.0)   # coalesces
            store.put(_key(2), _result(2), cost_ms=1.0)
            store.put(_key(3), _result(3), cost_ms=1.0)   # drops key 1
            stats = store.stats()
            assert stats["coalesced"] == 1
            assert stats["write_drops"] == 1
            store.flush()
            assert store.stats()["writes"] == 2
            assert store.get(_key(1)) is None             # dropped
            hit = store.get(_key(2))
            assert hit is not None
        finally:
            store.close()

    def test_put_rejected_when_closed(self, tmp_path):
        store = SaliencyStore(str(tmp_path / "s"))
        store.close()
        with pytest.raises(StoreClosed):
            store.put(_key(0), _result(0))
        store.close()                                     # idempotent

    def test_len_and_contains_like_stats(self, tmp_path):
        with SaliencyStore(str(tmp_path / "s")) as store:
            _populate(store, 4)
            stats = store.stats()
            assert stats["entries"] == 4
            assert stats["segments"] >= 1
            assert stats["bytes"] > 0


# ----------------------------------------------------------------------
class TestPersistence:
    def test_journal_replay_reopen(self, tmp_path):
        directory = str(tmp_path / "s")
        with SaliencyStore(directory) as store:
            _populate(store, 6, cost=10.0)
        with SaliencyStore(directory) as reopened:
            stats = reopened.stats()
            assert stats["entries"] == 6
            assert stats["rebuilds"] == 0                 # journal path
            for i in range(6):
                hit = reopened.get(_key(i))
                assert hit is not None
                result, cost = hit
                assert cost == 10.0 + i                   # GDSF persisted
                np.testing.assert_allclose(result.saliency,
                                           _result(i).saliency,
                                           rtol=2e-3, atol=2e-3)

    def test_corrupt_journal_falls_back_to_scan(self, tmp_path):
        directory = str(tmp_path / "s")
        with SaliencyStore(directory) as store:
            _populate(store, 5)
        with open(os.path.join(directory, "index.jsonl"), "a") as fh:
            fh.write("not json at all\n")
        with SaliencyStore(directory) as reopened:
            stats = reopened.stats()
            assert stats["rebuilds"] == 1
            assert stats["entries"] == 5
            assert all(reopened.get(_key(i)) is not None
                       for i in range(5))

    @pytest.mark.parametrize("corrupt_journal", [False, True])
    def test_null_label_key_reopens(self, tmp_path, corrupt_journal):
        """A ``None``-label key survives journal replay and the scan
        rebuild; the record keeps the resolved label."""
        directory = str(tmp_path / "s")
        key = ("digest-null", "gradcam", None, None)
        with SaliencyStore(directory) as store:
            store.put(key, _result(1), cost_ms=3.0)
        if corrupt_journal:
            with open(os.path.join(directory, "index.jsonl"), "a") as fh:
                fh.write("not json at all\n")
        with SaliencyStore(directory) as reopened:
            assert reopened.stats()["rebuilds"] == int(corrupt_journal)
            result, cost = reopened.get(key)
            assert cost == 3.0
            assert result.label == _result(1).label
            assert reopened.get(("digest-null", "gradcam", 1, None)) is None

    def test_torn_tail_record_dropped_scan_keeps_rest(self, tmp_path):
        """Crash consistency: a write torn mid-record (power loss during
        the last append) loses exactly that record.  Reopen detects the
        journal/segment mismatch, CRC-scans the segments, serves every
        earlier entry with its persisted cost, and keeps accepting
        appends."""
        directory = str(tmp_path / "s")
        n = 8
        with SaliencyStore(directory) as store:
            _populate(store, n, cost=20.0)
        segments = sorted(name for name in os.listdir(directory)
                          if name.endswith(".seg"))
        head = os.path.join(directory, segments[-1])
        size = os.path.getsize(head)
        with open(head, "r+b") as fh:
            fh.truncate(size - 7)                 # tear the last record
        reopened = SaliencyStore(directory)
        try:
            stats = reopened.stats()
            assert stats["rebuilds"] == 1
            assert stats["entries"] == n - 1
            assert reopened.get(_key(n - 1)) is None      # torn: gone
            for i in range(n - 1):                        # rest: intact
                hit = reopened.get(_key(i))
                assert hit is not None
                result, cost = hit
                assert cost == 20.0 + i
                np.testing.assert_allclose(result.saliency,
                                           _result(i).saliency,
                                           rtol=2e-3, atol=2e-3)
            # The truncated head still accepts appends.
            reopened.put(_key(100), _result(100), cost_ms=1.0)
            reopened.flush()
            assert reopened.get(_key(100)) is not None
        finally:
            reopened.close()
        # And the post-tear state round-trips through a clean reopen.
        with SaliencyStore(directory) as again:
            assert again.stats()["entries"] == n
            assert again.stats()["rebuilds"] == 0
            assert again.get(_key(100)) is not None


# ----------------------------------------------------------------------
class TestCapacity:
    def test_compaction_bounds_disk_usage(self, tmp_path):
        store = SaliencyStore(str(tmp_path / "s"),
                              capacity_bytes=16 * 1024,
                              segment_bytes=4 * 1024,
                              write_behind=False)
        try:
            for i in range(60):
                store.put(_key(i), _result(i, side=16),
                          cost_ms=float(i % 7))
                store.flush()
            stats = store.stats()
            assert stats["compactions"] >= 1
            assert stats["evictions"] >= 1
            assert stats["bytes"] <= 16 * 1024 + 4 * 1024
            assert 0 < stats["entries"] < 60
            # Every surviving index entry must still decode.
            survivors = [_key(i) for i in range(60) if _key(i) in store]
            assert survivors
            for key in survivors:
                assert store.get(key) is not None
        finally:
            store.close()


    def test_vanished_segment_is_miss_not_error(self, tmp_path):
        """A segment file deleted out from under a live store before
        any read mapped it turns its entries into clean misses — never
        FileNotFoundError — so callers fall back to compute."""
        directory = str(tmp_path / "s")
        with SaliencyStore(directory, segment_bytes=4 * 1024,
                           write_behind=False) as store:
            for i in range(10):
                store.put(_key(i), _result(i, side=16), cost_ms=1.0)
            store.flush()
            assert store.stats()["segments"] >= 2
            os.unlink(os.path.join(directory, "seg-00000000.seg"))
            found = [store.get(_key(i)) is not None for i in range(10)]
            assert not all(found) and any(found)
            assert store.stats()["misses"] == found.count(False)
            # The stale entries were forgotten, not left to fail again.
            assert len(store) == found.count(True)


# ----------------------------------------------------------------------
class TestSingleWriter:
    def test_second_writer_excluded_until_close(self, tmp_path):
        directory = str(tmp_path / "s")
        store = SaliencyStore(directory)
        with pytest.raises(RuntimeError, match="single-writer"):
            SaliencyStore(directory)
        store.close()
        with SaliencyStore(directory) as second:          # lock released
            second.put(_key(0), _result(0))


# ----------------------------------------------------------------------
class TestEngineWarmRestart:
    def test_restart_serves_from_store_without_compute(self, tmp_path):
        directory = str(tmp_path / "store")
        images = _images(6)
        labels = [0, 1, 2, 0, 1, 2]

        first = CountingStub()
        with ExplainEngine(None, {"stub": first}, max_batch=4,
                           store=directory) as engine:
            originals = [engine.explain(images[i], labels[i], "stub")
                         for i in range(6)]
            assert first.computed == 6

        # Fresh engine, fresh stub, same directory: everything must be
        # served from disk with the persisted costs.
        second = CountingStub()
        with ExplainEngine(None, {"stub": second}, max_batch=4,
                           store=directory) as engine:
            warm = [engine.explain(images[i], labels[i], "stub")
                    for i in range(6)]
            stats = engine.stats()
            assert second.computed == 0
            assert stats["store_served"] == 6
            assert stats["weighted_hit_rate"] == 1.0
            assert stats["store"]["hits"] == 6
            for w, o in zip(warm, originals):
                np.testing.assert_allclose(w.saliency, o.saliency,
                                           rtol=2e-3, atol=2e-3)
                assert w.label == o.label
                assert w.image_digest == o.image_digest

    def test_process_pool_restart_serves_from_store(self, tmp_path):
        """The engine probes the store before a batch reaches the pool,
        so a restarted process-pool engine serves everything from disk
        and its workers compute nothing."""
        directory = str(tmp_path / "store")
        spec = demo_spec(("gradcam",))
        classifier, explainers = spec.materialize()
        images = _images(4, side=16)
        labels = np.array([0, 1, 0, 1], dtype=np.int64)
        runs = []
        for _ in range(2):
            executor = ProcessExecutor(spec, workers=2)
            with ExplainEngine(classifier, explainers, max_batch=4,
                               store=directory,
                               executor=executor) as engine:
                maps = engine.explain_batch(images, labels, "gradcam")
                computed = sum(w["maps"] for w in executor.worker_stats())
                runs.append((maps, computed, engine.stats()))
        (first, first_computed, _), (warm, computed, stats) = runs
        assert first_computed == 4
        assert computed == 0
        assert stats["store_served"] == 4
        for w, o in zip(warm, first):
            np.testing.assert_allclose(w.saliency, o.saliency,
                                       rtol=2e-3, atol=2e-3)
            assert w.label == o.label

    def test_restart_serves_omitted_label_from_store(self, tmp_path):
        """A ``label=None`` entry persists under its ``None`` key, so a
        restarted engine serves it from tier 2 without a classifier
        call; the record carries the resolved label."""
        directory = str(tmp_path / "store")
        classifier, explainers = demo_spec(("gradcam",)).materialize()
        image = _images(1)[0]
        runs = []
        for _ in range(2):
            counting = CountingClassifier(classifier)
            with ExplainEngine(counting, explainers, max_batch=4,
                               store=directory) as engine:
                result = engine.explain(image, None, "gradcam")
                runs.append((result, counting.rows, engine.stats()))
        (first, first_rows, _), (warm, rows, stats) = runs
        assert first_rows == [1]
        assert rows == []
        assert stats["store_served"] == 1
        argmax = int(classifier.predict(image[None])[0])
        assert warm.label == first.label == argmax
        np.testing.assert_allclose(warm.saliency, first.saliency,
                                   rtol=2e-3, atol=2e-3)

    def test_promotion_evicts_least_recently_used_even_if_pricier(
            self, tmp_path):
        """Tier 1 is LRU: a tier-2 promotion into a full tier 1 evicts
        the least recently used map, even when its persisted compute
        cost is the highest in the cache."""
        directory = str(tmp_path / "store")
        images = _images(3)
        plan = [("pricey", 0), ("cheap", 1), ("cheap", 2)]
        keys = [request_key(images[i], method, 0, None)
                for method, i in plan]

        def engine() -> ExplainEngine:
            pricey, cheap = StubExplainer(sleep_ms=30.0), StubExplainer()
            pricey.name, cheap.name = "pricey", "cheap"
            return ExplainEngine(None, {"pricey": pricey, "cheap": cheap},
                                 cache_size=2, store=directory)

        with engine() as first:
            for method, i in plan:
                first.explain(images[i], 0, method)
        with engine() as warm:
            for method, i in plan[:2]:
                warm.explain(images[i], 0, method)
            costs = [warm.cache._shard(k)._cost[k] for k in keys[:2]]
            assert costs[0] > costs[1]     # the persisted costs rode in
            warm.explain(images[2], 0, "cheap")
            assert keys[0] not in warm.cache
            assert keys[1] in warm.cache and keys[2] in warm.cache
            stats = warm.stats()
            assert stats["store_served"] == 3
            assert stats["cache_evictions"] == 1

    def test_engine_without_store_reports_none(self):
        with ExplainEngine(None, {"stub": CountingStub()},
                           max_batch=2) as engine:
            engine.explain(_images(1)[0], 0, "stub")
            stats = engine.stats()
            assert stats["store"] is None
            assert stats["store_served"] == 0
            assert stats["hit_rate"] == 0.0


# ----------------------------------------------------------------------
class TestCacheRates:
    def test_hit_rate_and_weighted_hit_rate(self):
        cache = SaliencyCache(capacity=8)
        assert cache.stats()["hit_rate"] is None          # no traffic
        assert cache.stats()["weighted_hit_rate"] is None
        cache.put(_key(1), _result(1), cost_ms=30.0)      # computed
        assert cache.get(_key(1)) is not None             # hit: +30
        assert cache.get(_key(2)) is None                 # miss
        stats = cache.stats()
        assert stats["hit_rate"] == 0.5
        assert stats["weighted_hit_rate"] == pytest.approx(0.5)

    def test_uncomputed_inserts_do_not_bill_compute(self):
        cache = SaliencyCache(capacity=8)
        # A tier-2 promotion paid no compute now: the persisted cost
        # rides the entry (for future hit credit) but the insert itself
        # adds nothing to the requested-compute base.
        cache.put(_key(1), _result(1), cost_ms=40.0, computed=False)
        assert cache.insert_cost_ms == 0.0
        assert cache.get(_key(1)) is not None
        stats = cache.stats()
        assert stats["hit_cost_ms"] == 40.0
        assert stats["weighted_hit_rate"] == 1.0
