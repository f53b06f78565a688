"""Tests for the ``repro.serve`` micro-batching, caching ExplainEngine."""

import numpy as np
import pytest
from conftest import CountingClassifier, FlakyExplainer, StubExplainer

from repro.explain import GradCAMExplainer, OcclusionExplainer
from repro.serve import ExplainEngine, SaliencyCache, request_key


@pytest.fixture()
def engine(tiny_classifier):
    return ExplainEngine(
        tiny_classifier,
        {"gradcam": GradCAMExplainer(tiny_classifier),
         "occlusion": OcclusionExplainer(tiny_classifier, window=4,
                                         stride=4)},
        max_batch=3, cache_size=8)


@pytest.fixture()
def sample(tiny_test_set):
    return tiny_test_set.images, tiny_test_set.labels


class TestSaliencyCache:
    def test_lru_eviction_order(self):
        cache = SaliencyCache(capacity=2)
        keys = [("d%d" % i, "m", 0, None) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, i)
        assert keys[0] not in cache          # oldest evicted
        assert keys[1] in cache and keys[2] in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = SaliencyCache(capacity=2)
        a, b, c = [("d%d" % i, "m", 0, None) for i in range(3)]
        cache.put(a, 1)
        cache.put(b, 2)
        cache.get(a)                         # refresh a; b becomes oldest
        cache.put(c, 3)
        assert a in cache and b not in cache

    def test_request_key_sensitivity(self):
        image = np.zeros((1, 4, 4))
        base = request_key(image, "gradcam", 1, None)
        assert request_key(image, "gradcam", 1, None) == base
        assert request_key(image + 1, "gradcam", 1, None) != base
        assert request_key(image, "lime", 1, None) != base
        assert request_key(image, "gradcam", 0, None) != base
        assert request_key(image, "gradcam", 1, 0) != base


class TestExplainEngine:
    def test_explain_matches_direct(self, engine, tiny_classifier, sample):
        images, labels = sample
        direct = GradCAMExplainer(tiny_classifier).explain(
            images[0], int(labels[0]))
        served = engine.explain(images[0], int(labels[0]), "gradcam")
        np.testing.assert_allclose(served.saliency, direct.saliency,
                                   rtol=1e-4, atol=1e-5)

    def test_cached_saliency_is_frozen(self, engine, sample):
        """Hits share the cached object, so in-place mutation must raise
        instead of silently corrupting future hits."""
        images, labels = sample
        result = engine.explain(images[0], int(labels[0]), "gradcam")
        with pytest.raises(ValueError):
            result.saliency[0, 0] = 5.0

    def test_cache_hit_on_repeat(self, engine, sample):
        images, labels = sample
        first = engine.explain(images[0], int(labels[0]), "gradcam")
        second = engine.explain(images[0], int(labels[0]), "gradcam")
        assert second is first               # served from cache
        stats = engine.stats()
        assert stats["cache_hits"] == 1
        assert stats["batches_run"] == 1

    def test_cache_eviction_bounds_memory(self, tiny_classifier, sample):
        images, labels = sample
        engine = ExplainEngine(
            tiny_classifier, {"gradcam": GradCAMExplainer(tiny_classifier)},
            max_batch=2, cache_size=2)
        for i in range(4):
            engine.explain(images[i], int(labels[i]), "gradcam")
        stats = engine.stats()
        assert stats["cache_size"] == 2
        assert stats["cache_evictions"] == 2
        # Oldest entry re-requested -> miss, recomputed.
        engine.explain(images[0], int(labels[0]), "gradcam")
        assert engine.cache.misses >= 5

    def test_micro_batch_autoflush(self, engine, sample):
        images, labels = sample
        handles = [engine.submit(images[i], int(labels[i]), "gradcam")
                   for i in range(3)]       # max_batch=3 -> auto flush
        assert all(h.done for h in handles)
        assert engine.stats()["batches_run"] == 1
        assert engine.pending_count() == 0

    def test_submit_below_batch_stays_pending(self, engine, sample):
        images, labels = sample
        handle = engine.submit(images[0], int(labels[0]), "gradcam")
        assert not handle.done
        assert engine.pending_count("gradcam") == 1
        result = handle.result()             # demand flush
        assert result.saliency.shape == images[0].shape[1:]
        assert engine.pending_count() == 0

    def test_micro_batch_matches_per_image(self, engine, tiny_classifier,
                                           sample):
        images, labels = sample
        handles = [engine.submit(images[i], int(labels[i]), "gradcam")
                   for i in range(3)]
        direct = GradCAMExplainer(tiny_classifier)
        for i, h in enumerate(handles):
            np.testing.assert_allclose(
                h.result().saliency,
                direct.explain(images[i], int(labels[i])).saliency,
                rtol=1e-4, atol=1e-5)

    def test_queues_are_per_method(self, engine, sample):
        images, labels = sample
        engine.submit(images[0], int(labels[0]), "gradcam")
        engine.submit(images[1], int(labels[1]), "occlusion")
        assert engine.pending_count("gradcam") == 1
        assert engine.pending_count("occlusion") == 1
        engine.flush("gradcam")
        assert engine.pending_count("gradcam") == 0
        assert engine.pending_count("occlusion") == 1
        engine.flush()
        assert engine.pending_count() == 0

    def test_deadline_zero_flushes_immediately(self, tiny_classifier,
                                               sample):
        images, labels = sample
        engine = ExplainEngine(
            tiny_classifier, {"gradcam": GradCAMExplainer(tiny_classifier)},
            max_batch=16, max_delay_ms=0.0)
        handle = engine.submit(images[0], int(labels[0]), "gradcam")
        assert handle.done                   # deadline already expired

    def test_explain_batch_only_misses_hit_models(self, engine, sample):
        images, labels = sample
        engine.explain(images[0], int(labels[0]), "occlusion")
        assert engine.stats()["batches_run"] == 1
        results = engine.explain_batch(images[:3], labels[:3], "occlusion")
        assert len(results) == 3
        stats = engine.stats()
        assert stats["cache_hits"] == 1      # image 0 reused
        assert stats["batches_run"] == 2     # one more batch for the misses

    def test_unknown_method_raises(self, engine, sample):
        images, labels = sample
        with pytest.raises(KeyError):
            engine.explain(images[0], int(labels[0]), "nope")

    def test_failed_request_resolves_with_its_error(self, tiny_classifier,
                                                    sample):
        """A raising explain_batch resolves the request's handle with the
        error and leaves nothing queued; the failure is not cached, so a
        resubmit computes again."""
        flaky = FlakyExplainer()
        images, labels = sample
        engine = ExplainEngine(tiny_classifier, {"flaky": flaky},
                               max_batch=4)
        handle = engine.submit(images[0], int(labels[0]), "flaky")
        with pytest.raises(RuntimeError, match="transient"):
            handle.result()
        assert handle.done
        assert engine.pending_count("flaky") == 0
        with pytest.raises(RuntimeError, match="transient"):
            handle.result()                  # resolved: no second compute
        assert flaky.calls == 1
        again = engine.submit(images[0], int(labels[0]), "flaky")
        assert again.result().label == int(labels[0])
        assert flaky.calls == 2
        assert engine.stats()["requests_failed"] == 1

    def test_occlusion_of_image_smaller_than_window(self, engine, sample):
        """Two 1x3x3 occlusion requests (window 4) return finite 3x3
        maps, and the method then serves a full-size image."""
        images, labels = sample
        rng = np.random.default_rng(0)
        for _ in range(2):
            small = engine.explain(
                rng.standard_normal((1, 3, 3)).astype(np.float32), 0,
                "occlusion")
            assert small.saliency.shape == (3, 3)
            assert np.isfinite(small.saliency).all()
        full = engine.explain(images[0], int(labels[0]), "occlusion")
        assert full.saliency.shape == images[0].shape[1:]
        assert engine.pending_count() == 0

    def test_submit_copies_image_buffer(self, engine, tiny_classifier,
                                        sample):
        """A caller reusing its buffer between submit and flush must not
        change what the queued request (or the cache) sees."""
        images, labels = sample
        buf = images[0].copy()
        handle = engine.submit(buf, int(labels[0]), "gradcam")
        buf[:] = 0.0                         # mutate before flush
        expected = GradCAMExplainer(tiny_classifier).explain(
            images[0], int(labels[0]))
        np.testing.assert_allclose(handle.result().saliency,
                                   expected.saliency, rtol=1e-4, atol=1e-5)

    def test_mixed_target_micro_batch(self, engine, sample):
        """Targeted and untargeted requests sharing one micro-batch must
        keep their own target metadata (-1 sentinel never leaks)."""
        images, labels = sample
        targeted = engine.submit(images[0], int(labels[0]), "gradcam",
                                 target_label=0)
        untargeted = engine.submit(images[1], int(labels[1]), "gradcam")
        engine.flush("gradcam")
        assert targeted.result().target_label == 0
        assert untargeted.result().target_label is None


class TestModelCallLabels:
    """``label=None`` explains the classifier's own call: it is keyed as
    ``None`` in the cache and in dedup, and a micro-batch of misses
    resolves its labels with one batched ``predict``."""

    @staticmethod
    def _engine(tiny_classifier, classifier=None):
        return ExplainEngine(
            classifier or tiny_classifier,
            {"gradcam": GradCAMExplainer(tiny_classifier),
             "occlusion": OcclusionExplainer(tiny_classifier, window=4,
                                             stride=4)},
            max_batch=4, cache_size=16)

    @pytest.mark.parametrize("method,compiled", [("gradcam", 1),
                                                 ("occlusion", 0)])
    def test_one_predict_per_micro_batch(self, tiny_classifier, sample,
                                         method, compiled):
        images, labels = sample
        counting = CountingClassifier(tiny_classifier)
        engine = self._engine(tiny_classifier, counting)
        handles = [engine.submit(images[i], None, method) for i in range(3)]
        # The fourth, labeled, request fills the batch and flushes it.
        handles.append(engine.submit(images[3], int(labels[3]), method))
        stats = engine.stats()
        assert stats["batches_run"] == 1
        assert stats["plans"]["compiled"] == compiled   # plan vs tape
        assert counting.rows == [3]
        got = [h.result() for h in handles]
        called = tiny_classifier.predict(images[:3])
        assert [r.label for r in got] == [*called, int(labels[3])]
        # The same batch with those labels supplied computes the same
        # maps, bit for bit.
        supplied = self._engine(tiny_classifier).explain_batch(
            images[:4], np.append(called, labels[3]), method)
        for result, reference in zip(got, supplied):
            np.testing.assert_array_equal(result.saliency,
                                          reference.saliency)
        # A repeat is a tier-1 hit: no classifier call at all.
        again = engine.submit(images[0], None, method)
        assert again.cache_hit and again.result() is got[0]
        assert counting.rows == [3]

    def test_omitted_label_dedups_onto_one_predicted_row(
            self, tiny_classifier, sample):
        images, _ = sample
        counting = CountingClassifier(tiny_classifier)
        engine = self._engine(tiny_classifier, counting)
        first = engine.submit(images[0], None, "gradcam")
        second = engine.submit(images[0], None, "gradcam")
        assert engine.pending_count() == 1
        assert engine.stats()["dedup_hits"] == 1
        engine.flush("gradcam")
        assert counting.rows == [1]
        assert first.result() is second.result()
        assert first.result().label == int(
            tiny_classifier.predict(images[:1])[0])

    def test_supplied_label_never_shares_the_omitted_entry(
            self, tiny_classifier, sample):
        images, _ = sample
        engine = self._engine(tiny_classifier)
        omitted = engine.explain(images[0], None, "gradcam")
        supplied = engine.submit(images[0], omitted.label, "gradcam")
        assert not supplied.cache_hit
        assert supplied.result().label == omitted.label
        assert engine.stats()["batches_run"] == 2

    def test_out_of_range_label_or_target_refused_before_enqueue(
            self, engine, sample):
        images, labels = sample
        for label, target in ((2, None), (-1, None), (0, 2), (0, -1)):
            for submit in (engine.submit, engine.submit_async):
                with pytest.raises(ValueError, match="outside"):
                    submit(images[0], label, "gradcam", target)
        assert engine.pending_count() == 0
        assert engine.stats()["unresolved"] == 0
        # Nothing was wedged: the next valid request serves.
        result = engine.explain(images[0], int(labels[0]), "gradcam")
        assert result.label == int(labels[0])

    def test_engine_without_classifier_refuses_omitted_label(self):
        engine = ExplainEngine(None, {"stub": StubExplainer()})
        image = np.zeros((1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="classifier"):
            engine.submit(image, None, "stub")
        assert engine.pending_count() == 0
        # Without a classifier there is no class bound to check.
        assert engine.explain(image, 7, "stub").label == 7


class TestResolveTargets:
    def test_mixed_sentinel_filled_with_defaults(self):
        from repro.explain.base import resolve_targets
        labels = np.array([1, 0, 2])
        mixed = np.array([0, -1, -1])
        out = resolve_targets(labels, mixed, num_classes=3)
        # Explicit target kept; sentinels resolve per image (0 for
        # abnormal labels, 1 for the normal class).
        assert list(out) == [0, 1, 0]

    def test_sentinel_passthrough_without_classes(self):
        from repro.explain.base import resolve_targets, target_or_none
        out = resolve_targets(np.array([1, 0]), np.array([2, -1]))
        assert list(out) == [2, -1]
        assert target_or_none(out, 0) == 2
        assert target_or_none(out, 1) is None

    def test_input_array_not_mutated(self):
        from repro.explain.base import resolve_targets
        mixed = np.array([-1, 1])
        resolve_targets(np.array([1, 1]), mixed, num_classes=2)
        assert list(mixed) == [-1, 1]

    def test_legacy_fallback_maps_sentinel_to_none(self):
        from repro.explain.base import Explainer, SaliencyResult
        captured = []

        class Legacy(Explainer):
            def explain(self, image, label, target_label=None):
                captured.append(target_label)
                return SaliencyResult(np.zeros(image.shape[1:]), label,
                                      target_label)

        Legacy().explain_batch(np.zeros((2, 1, 4, 4)), np.array([0, 1]),
                               np.array([1, -1]))
        assert captured == [1, None]
