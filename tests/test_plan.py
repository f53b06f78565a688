"""Unit tests for ``repro.nn.plan`` trace/replay and the serving-layer
:class:`~repro.serve.plans.PlanCache` (compile-once / replay-thereafter,
frozen-set revalidation, dtype invalidation, LRU bounds, plans shared
by methods that trace one core).

Explainer-level plan-vs-tape parity for all ten Table II methods lives
in ``test_explain_batch.py``; this file covers the machinery itself.
"""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.classifiers import SmallResNet
from repro.explain import (FullGradExplainer, SimpleFullGradExplainer,
                           SmoothFullGradExplainer)
from repro.nn import functional as F
from repro.nn.plan import PlanMismatch, PlanUnsupported, trace
from repro.serve import ExplainEngine, ThreadedExecutor
from repro.serve.plans import PlanCache


def _mlp(rng):
    l1 = nn.Linear(16, 8, rng=rng)
    l2 = nn.Linear(8, 4, rng=rng)
    return l1, l2


def _tape_run(l1, l2, images, labels):
    x = nn.Tensor(images, requires_grad=True)
    hidden = l1(x).relu()
    loss = nn.class_score_sum(l2(hidden), labels)
    loss.backward()
    return hidden.data, float(loss.data), x.grad


class TestTraceReplay:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.l1, self.l2 = _mlp(rng)
        self.images = rng.standard_normal((3, 16)).astype(np.float32)
        self.labels = np.array([0, 3, 1], dtype=np.int64)

    def _compile(self):
        def core(tr):
            x = tr.input("x", self.images)
            lab = tr.aux_input("labels", self.labels)
            hidden = self.l1(x).relu()
            tr.output("hidden", hidden)
            tr.grad("x_grad", x)
            tr.loss(nn.class_score_sum(self.l2(hidden), lab))
        return trace(core)

    def test_replay_matches_tape_across_inputs(self):
        plan = self._compile()
        rng = np.random.default_rng(7)
        for _ in range(2):                    # two fresh batches, one plan
            images = rng.standard_normal((3, 16)).astype(np.float32)
            labels = rng.integers(0, 4, size=3).astype(np.int64)
            out = plan.replay({"x": images, "labels": labels})
            hidden, loss, x_grad = _tape_run(self.l1, self.l2,
                                             images, labels)
            np.testing.assert_allclose(out["hidden"], hidden, atol=1e-6)
            np.testing.assert_allclose(out["x_grad"], x_grad, atol=1e-6)

    def test_replay_rejects_shape_dtype_and_missing_input(self):
        plan = self._compile()
        with pytest.raises(PlanMismatch):
            plan.replay({"x": self.images[:2], "labels": self.labels[:2]})
        with pytest.raises(PlanMismatch):
            plan.replay({"x": self.images.astype(np.float64),
                         "labels": self.labels})
        with pytest.raises(PlanMismatch):
            plan.replay({"x": self.images})

    def test_baked_labels_are_unsupported(self):
        """class_score_sum labels must come through aux_input — a plan
        that baked the trace batch's labels would silently explain the
        wrong classes on replay."""
        def core(tr):
            x = tr.input("x", self.images)
            hidden = self.l1(x).relu()
            tr.grad("x_grad", x)
            tr.loss(nn.class_score_sum(self.l2(hidden), self.labels))
        with pytest.raises(PlanUnsupported):
            trace(core)

    def test_aux_input_used_as_a_tensor_is_unsupported(self):
        """An aux array wrapped in a Tensor would become a baked
        constant, and replay would use the trace batch's value."""
        scale = np.full((3, 16), 2.0, dtype=np.float32)

        def core(tr):
            x = tr.input("x", self.images)
            aux = tr.aux_input("scale", scale)
            tr.output("y", x * nn.Tensor(aux))
        with pytest.raises(PlanUnsupported, match="'scale'"):
            trace(core)

    def test_trace_is_released_once_compiled(self):
        """No traced intermediate outlives trace(): not through the
        recorded values, nor through a step closure that holds its
        record (max-pool's does)."""
        images = np.random.default_rng(4).standard_normal(
            (2, 1, 4, 4)).astype(np.float32)
        traced = []

        def core(tr):
            x = tr.input("x", images)
            hidden = (x * 2.0).relu()
            pooled = F.max_pool2d(hidden, 2)
            traced.extend(weakref.ref(t.data) for t in (hidden, pooled))
            tr.output("pooled", pooled)
        plan = trace(core)
        gc.collect()
        assert [ref() is None for ref in traced] == [True, True]
        out = plan.replay({"x": images})
        np.testing.assert_allclose(
            out["pooled"], np.maximum(images * 2.0, 0).reshape(
                2, 1, 2, 2, 2, 2).max(axis=(3, 5)), atol=1e-6)

    def test_non_scalar_loss_rejected(self):
        def core(tr):
            x = tr.input("x", self.images)
            tr.loss(self.l1(x))
        with pytest.raises(PlanUnsupported):
            trace(core)

    def test_plan_without_outputs_rejected(self):
        def core(tr):
            x = tr.input("x", self.images)
            self.l1(x)
        with pytest.raises(PlanUnsupported):
            trace(core)

    def test_all_const_subgraphs_fold(self):
        def core(tr):
            x = tr.input("x", self.images)
            scale = nn.Tensor(2.0) * nn.Tensor(3.0)   # constant subgraph
            tr.output("y", x * scale)
        plan = trace(core)
        assert plan.folded_ops >= 1
        out = plan.replay({"x": self.images})
        np.testing.assert_allclose(out["y"], self.images * 6.0, atol=1e-6)

    def test_replay_returns_arena_views(self):
        plan = self._compile()
        first = plan.replay({"x": self.images, "labels": self.labels})
        kept = first["hidden"].copy()
        other = np.asarray(self.images * 3.0, dtype=np.float32)
        plan.replay({"x": other, "labels": self.labels})
        # Documented contract: returned arrays are views into the arena,
        # valid until the next replay.
        assert not np.array_equal(first["hidden"], kept)


class _ConvNet:
    """The classifier's conv geometries in a small stack: a 3x3
    stride-1 pad-1 conv into a leaky ReLU, then a 3x3 stride-2 pad-1
    conv beside a 1x1 stride-2 projection (so the activation between
    them sums two input gradients), a global pool and a linear head."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.conv = nn.Conv2d(2, 4, 3, padding=1, rng=rng)
        self.down = nn.Conv2d(4, 6, 3, stride=2, padding=1, rng=rng)
        self.proj = nn.Conv2d(4, 6, 1, stride=2, rng=rng)
        self.head = nn.Linear(6, 3, rng=rng)

    def __call__(self, x):
        act = self.conv(x).leaky_relu(0.2)
        out = (self.down(act) + self.proj(act)).relu()
        return self.head(F.global_avg_pool2d(out)), act


def _conv_plan_and_tape(dtype, side, weight_grad=False):
    """Trace a _ConvNet plan on one batch and replay it on another;
    returns the plan, the replay's gradients and the tape's on that
    second batch."""
    nn.set_default_dtype(dtype)
    try:
        net = _ConvNet()
        rng = np.random.default_rng(3)
        traced, images = rng.standard_normal(
            (2, 2, 2, side, side)).astype(dtype)
        labels = np.array([2, 0], dtype=np.int64)

        def core(tr):
            x = tr.input("x", traced)
            lab = tr.aux_input("labels", labels[::-1].copy())
            logits, act = net(x)
            tr.grad("x", x)
            tr.grad("act", act)
            if weight_grad:
                tr.grad("down_w", net.down.weight)
            tr.loss(nn.class_score_sum(logits, lab))
        plan = trace(core)
        planned = plan.replay({"x": images, "labels": labels})

        x = nn.Tensor(images, requires_grad=True)
        logits, act = net(x)
        act.retain_grad()
        nn.class_score_sum(logits, labels).backward()
    finally:
        nn.set_default_dtype(np.float32)
    tape = {"x": x.grad, "act": act.grad, "down_w": net.down.weight.grad}
    return plan, planned, tape


class TestConvPlan:
    """Conv plans against the tape, on an even and an odd side.  The
    stride-1 conv's input gradient takes the gather, the stride-2 convs'
    the GEMM + col2im path."""

    @pytest.mark.parametrize("side", [8, 9])
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-5),
                                            (np.float64, 1e-10)])
    def test_gradients_match_tape(self, dtype, atol, side):
        _, planned, tape = _conv_plan_and_tape(dtype, side)
        for name in ("x", "act"):
            assert planned[name].dtype == dtype
            np.testing.assert_allclose(planned[name], tape[name],
                                       rtol=0, atol=atol)

    @pytest.mark.parametrize("side", [8, 9])
    def test_weight_gradient_matches_tape(self, side):
        """A conv weight as a gradient target keeps its forward patches
        private: its VJP reads them after later steps reuse the scratch
        region."""
        _, planned, tape = _conv_plan_and_tape(np.float64, side,
                                               weight_grad=True)
        for name in ("x", "act", "down_w"):
            np.testing.assert_allclose(planned[name], tape[name],
                                       rtol=0, atol=1e-10)

    def test_step_buffers_share_one_region(self):
        plan, _, _ = _conv_plan_and_tape(np.float32, 9)
        cols = [rec.scratch["cols"] for rec in plan._records
                if rec.op == "conv2d"]
        assert len(cols) == 3
        assert np.may_share_memory(cols[0], cols[1])
        assert np.may_share_memory(cols[1], cols[2])

    def test_gather_replay_allocates_no_buffers(self, monkeypatch):
        """A replay's stride-1 input gradient fills the plan's own
        padded gradient, windows and gradient buffer: it allocates less
        than its result's size (only the flipped weight)."""
        calls = []
        real = F.conv2d_input_grad

        def spy(grad, weight, x_shape, stride, padding, **buffers):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = real(grad, weight, x_shape, stride, padding, **buffers)
            calls.append((stride, buffers.get("gpad") is not None,
                          out.nbytes,
                          tracemalloc.get_traced_memory()[1] - base))
            return out
        monkeypatch.setattr(F, "conv2d_input_grad", spy)
        plan, _, _ = _conv_plan_and_tape(np.float64, 16)
        images = np.random.default_rng(4).standard_normal((2, 2, 16, 16))
        feed = {"x": images, "labels": np.array([0, 1])}
        plan.replay(feed)
        del calls[:]
        tracemalloc.start()
        try:
            plan.replay(feed)
        finally:
            tracemalloc.stop()
        gathers = [c for c in calls if c[0] == 1]
        assert len(gathers) == 1 and len(calls) == 3
        _, baked, nbytes, allocated = gathers[0]
        assert baked and allocated < nbytes

    def test_fullgrad_arena_at_the_sweep_shape(self):
        """The sweep's FullGrad plan (width 12, batch 2, 1x32x32): conv
        patches and gradient windows share one region, so the arena
        holds at most 8 MiB."""
        classifier = SmallResNet(4, 1, width=12)
        classifier.eval()
        images = np.random.default_rng(0).random(
            (2, 1, 32, 32)).astype(np.float32)
        plan = FullGradExplainer(classifier).compile_plan(
            images, np.array([1, 2]))
        assert plan.arena_bytes <= 8 * 2 ** 20


class _TinyPlanExplainer:
    """Minimal plan-eligible explainer over a linear head (no conv cost:
    keeps the cache tests fast and model-free)."""

    name = "tinyplan"
    needs_gradients = True
    plan_eligible = True
    compile_calls = 0

    def __init__(self, layer):
        self.layer = layer

    def _results(self, maps, labels):
        from repro.explain.base import SaliencyResult
        return [SaliencyResult(maps[i].reshape(4, 4), int(labels[i]))
                for i in range(len(labels))]

    def explain_batch(self, images, labels, target_labels=None):
        x = nn.Tensor(np.asarray(images), requires_grad=True)
        nn.class_score_sum(self.layer(x), np.asarray(labels)).backward()
        return self._results(x.grad, labels)

    def compile_plan(self, images, labels):
        type(self).compile_calls += 1

        def core(tr):
            x = tr.input("x", np.asarray(images))
            lab = tr.aux_input("labels", np.asarray(labels))
            tr.grad("x_grad", x)
            tr.loss(nn.class_score_sum(self.layer(x), lab))
        return trace(core)

    def explain_batch_planned(self, plan, images, labels,
                              target_labels=None):
        out = plan.replay({"x": np.asarray(images),
                           "labels": np.asarray(labels)})
        return self._results(out["x_grad"].copy(), labels)


class _TapeOnlyExplainer:
    name = "tapeonly"
    needs_gradients = False
    plan_eligible = False

    def explain_batch(self, images, labels, target_labels=None):
        from repro.explain.base import SaliencyResult
        assert not nn.is_grad_enabled()       # cache must apply no_grad
        return [SaliencyResult(np.zeros(images.shape[2:]), int(y))
                for y in labels]


@pytest.fixture()
def tiny_plan_setup():
    rng = np.random.default_rng(1)
    layer = nn.Linear(16, 4, rng=rng)
    explainer = _TinyPlanExplainer(layer)
    images = rng.standard_normal((3, 16)).astype(np.float32)
    labels = np.array([0, 2, 1], dtype=np.int64)
    cache = PlanCache()
    yield cache, explainer, images, labels
    cache.close()


class TestPlanCache:
    def test_compile_once_then_replay(self, tiny_plan_setup):
        cache, explainer, images, labels = tiny_plan_setup
        before = _TinyPlanExplainer.compile_calls
        tape = explainer.explain_batch(images, labels)
        for _ in range(3):
            results = cache.run(explainer, images, labels, None)
        assert _TinyPlanExplainer.compile_calls == before + 1
        stats = cache.stats()
        assert stats["compiled"] == 1
        assert stats["replay_hits"] == 3
        assert stats["fallbacks"] == 0
        assert stats["arena_bytes"] > 0
        for t, p in zip(tape, results):
            np.testing.assert_allclose(p.saliency, t.saliency, atol=1e-6)

    def test_new_shape_compiles_new_plan(self, tiny_plan_setup):
        cache, explainer, images, labels = tiny_plan_setup
        cache.run(explainer, images, labels, None)
        wide = np.concatenate([images, images])
        cache.run(explainer, wide, np.concatenate([labels, labels]), None)
        assert cache.stats()["compiled"] == 2
        assert cache.stats()["plans"] == 2

    def test_ineligible_method_falls_back(self, tiny_plan_setup):
        cache, _, images, labels = tiny_plan_setup
        batch = np.zeros((3, 1, 4, 4), dtype=np.float32)
        results = cache.run(_TapeOnlyExplainer(), batch, labels, None)
        assert len(results) == 3
        stats = cache.stats()
        assert stats["fallbacks"] == 1
        assert stats["compiled"] == 0

    def test_frozen_transition_falls_back_then_recovers(
            self, tiny_plan_setup):
        cache, explainer, images, labels = tiny_plan_setup
        cache.run(explainer, images, labels, None)
        with nn.frozen(explainer.layer):
            # Fingerprint differs from compile time: tape fallback, the
            # entry survives.
            cache.run(explainer, images, labels, None)
            assert cache.stats()["fallbacks"] == 1
        # Frozen set reverted: the cached plan is valid again.
        cache.run(explainer, images, labels, None)
        stats = cache.stats()
        assert stats["replay_hits"] == 2
        assert stats["compiled"] == 1

    def test_dtype_round_trip_invalidates(self, tiny_plan_setup):
        cache, explainer, images, labels = tiny_plan_setup
        cache.run(explainer, images, labels, None)
        assert cache.stats()["plans"] == 1
        try:
            nn.set_default_dtype(np.float64)
            assert cache.stats()["plans"] == 0
            assert cache.stats()["invalidations"] == 1
        finally:
            nn.set_default_dtype(np.float32)
        # Recompiles cleanly after the round trip.
        cache.run(explainer, images, labels, None)
        assert cache.stats()["compiled"] == 2
        assert cache.stats()["plans"] == 1

    def test_close_unregisters_listeners(self, tiny_plan_setup):
        cache, explainer, images, labels = tiny_plan_setup
        cache.run(explainer, images, labels, None)
        cache.close()
        try:
            nn.set_default_dtype(np.float64)   # must not touch the cache
        finally:
            nn.set_default_dtype(np.float32)
        assert cache.stats()["invalidations"] == 0

    def test_lru_bound_evicts(self, monkeypatch):
        from repro.serve import plans
        monkeypatch.setattr(plans, "MAX_PLANS", 1)
        rng = np.random.default_rng(2)
        explainer = _TinyPlanExplainer(nn.Linear(16, 4, rng=rng))
        cache = PlanCache()
        try:
            labels = np.array([0, 1], dtype=np.int64)
            a = rng.standard_normal((2, 16)).astype(np.float32)
            b = rng.standard_normal((4, 16)).astype(np.float32)
            cache.run(explainer, a, labels, None)
            cache.run(explainer, b, np.tile(labels, 2), None)
            stats = cache.stats()
            assert stats["plans"] == 1
            assert stats["evictions"] == 1
        finally:
            cache.close()


class TestEnginePlanIntegration:
    def test_engine_stats_plans_section(self, tiny_classifier,
                                        tiny_train_set):
        from repro.explain import GradCAMExplainer
        from repro.serve import ExplainEngine

        images = tiny_train_set.images[:4]
        labels = tiny_train_set.labels[:4]
        engine = ExplainEngine(tiny_classifier,
                               {"gradcam": GradCAMExplainer(tiny_classifier)},
                               max_batch=2)
        try:
            engine.explain_batch(images[:2], labels[:2], "gradcam")
            engine.explain_batch(images[2:], labels[2:], "gradcam")
            plans = engine.stats()["plans"]
            assert plans["compiled"] == 1
            assert plans["replay_hits"] == 2
            assert plans["arena_bytes"] > 0
        finally:
            engine.close()


class TestSharedPlans:
    """The three FullGrad methods trace one core: they share one plan
    per shape, and replays of it never overlap."""

    def test_fullgrad_family_compiles_one_plan(self, tiny_classifier,
                                               tiny_train_set):
        images = tiny_train_set.images[:2]
        labels = tiny_train_set.labels[:2]
        explainers = {e.name: e for e in (
            FullGradExplainer(tiny_classifier),
            SimpleFullGradExplainer(tiny_classifier),
            SmoothFullGradExplainer(tiny_classifier, n_samples=2))}
        engine = ExplainEngine(tiny_classifier, explainers, max_batch=2)
        try:
            for name, explainer in explainers.items():
                served = engine.explain_batch(images, labels, name)
                tape = explainer.explain_batch(images, labels)
                for s, t in zip(served, tape):
                    np.testing.assert_allclose(s.saliency, t.saliency,
                                               rtol=0, atol=1e-5)
            plans = engine.stats()["plans"]
            assert (plans["compiled"], plans["plans"]) == (1, 1)
            assert plans["replay_hits"] == 3
        finally:
            engine.close()

    def test_concurrent_methods_on_one_plan_match_serial(self):
        """Three workers serve the FullGrad family at once, with a short
        thread switch interval; all replay one arena, so replays must
        never overlap, the key compiles once, and the lock table ends
        empty."""
        classifier = SmallResNet(4, 1, width=12)
        classifier.eval()
        rng = np.random.default_rng(11)
        images = rng.random((16, 1, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 4, size=16)
        explainers = {e.name: e for e in (
            FullGradExplainer(classifier),
            SimpleFullGradExplainer(classifier),
            SmoothFullGradExplainer(classifier, n_samples=2))}

        def serve(executor, out):
            engine = ExplainEngine(classifier, explainers, max_batch=2,
                                   executor=executor)
            with engine:
                handles = [engine.submit_async(images[i], int(labels[i]), m)
                           for i in range(len(images)) for m in explainers]
                engine.drain()
                out["maps"] = [h.result().saliency for h in handles]
                out["compiled"] = engine.stats()["plans"]["compiled"]
                out["locks"] = dict(engine._plan_cache._key_locks)

        serial, threaded = {}, {}
        serve("serial", serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(
                target=serve, args=(ThreadedExecutor(workers=3), threaded),
                daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert (threaded["compiled"], threaded["locks"]) == (1, {})
        for got, want in zip(threaded["maps"], serial["maps"]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
