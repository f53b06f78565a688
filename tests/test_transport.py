"""Shared-memory transport suite: pool-vs-in-process parity across
every Table II method (over the arena and over the pipe leg), arena
growth and generation retirement, the stale/oversize/error legs of the
pool protocol, worker-crash recovery, and — the resource contract —
zero leaked ``/dev/shm`` segments after shutdown *or* crash.
"""

import glob
import os
import pickle
import threading

import numpy as np
import pytest
from conftest import force_pipe_replies

from repro import nn
from repro.explain import (CAEExplainer, FullGradExplainer, GradCAMExplainer,
                           ICAMExplainer, LAGANExplainer, LimeExplainer,
                           OcclusionExplainer, SimpleFullGradExplainer,
                           SmoothFullGradExplainer, StylexExplainer,
                           TABLE2_METHODS, TSCAMExplainer, train_icam,
                           train_lagan, train_stylex, train_tscam)
from repro.serve import (EngineSpec, ExplainEngine, ProcessExecutor,
                         WorkerCrashed, demo_spec)
from repro.serve.transport import ShmArena, segment_base
from repro.serve.worker import decode_results, worker_main

from test_explain_batch import assert_saliency_close
from transport_spec_util import CrashOnMarker

_HAVE_DEV_SHM = os.path.isdir("/dev/shm")


def _segments(prefix: str):
    """Live ``/dev/shm`` entries belonging to one arena prefix."""
    return glob.glob(f"/dev/shm/{prefix}*")


def _arena_prefixes(executor: ProcessExecutor):
    return [channel.arena.prefix for channel in executor._all
            if channel.arena is not None]


def _assert_no_leaks(prefixes) -> None:
    if not _HAVE_DEV_SHM:
        return
    for prefix in prefixes:
        assert not _segments(prefix), \
            f"leaked shared-memory segments: {_segments(prefix)}"


def _images(n: int, side: int = 16, channels: int = 1) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.standard_normal((n, channels, side, side)) \
        .astype(np.float32)


class TestArenaGrowth:
    def test_segment_base_strips_generation(self):
        assert segment_base("rtxab-0w1s0o-g17") == "rtxab-0w1s0o"
        assert segment_base("rtxab-0w1s0o-g18") == "rtxab-0w1s0o"

    def test_grows_geometrically_and_retires_old_segments(self):
        arena = ShmArena("rtxtest-growth", slots=2, initial_bytes=4096)
        try:
            slot = arena.acquire()
            for side in (8, 16, 32, 64):
                arena.encode(slot, _images(4, side=side))
            snap = arena.stats.snapshot()
            assert snap["arena_grows"] >= 2
            if _HAVE_DEV_SHM:
                # Old generations are unlinked at grow time: at most one
                # out + one ret segment per slot ever live, and only one
                # slot was touched.
                assert len(_segments("rtxtest-growth")) == 2
        finally:
            arena.close()
        _assert_no_leaks(["rtxtest-growth"])
        arena.close()                      # idempotent

    def test_ret_need_hint_grows_return_segment(self):
        arena = ShmArena("rtxtest-hint", slots=1, initial_bytes=4096)
        try:
            slot = arena.acquire()
            arena.encode(slot, _images(2, side=8))
            before = slot.ret.size
            arena.release(slot)
            slot = arena.acquire()
            arena.note_ret_need(slot, before * 8)
            _, (_, ret_size) = arena.encode(slot, _images(2, side=8))
            assert ret_size >= before * 8
        finally:
            arena.close()
        _assert_no_leaks(["rtxtest-hint"])


@pytest.fixture(scope="module")
def table2_pool(tiny_train_set, tiny_classifier, tiny_cae, tiny_manifold,
                tiny_config):
    """A single-worker pool materializing a prebuilt Table II explainer
    suite (trained once here, shipped pickled through the spec), plus an
    untouched in-process copy of the same pickled suite — any
    divergence between the two is the pool's fault and nothing else's."""
    models = {
        "tscam": train_tscam(tiny_train_set, epochs=1, dim=8),
        "stylex": train_stylex(tiny_train_set, tiny_classifier, epochs=1),
        "lagan": train_lagan(tiny_train_set, tiny_classifier, epochs=1),
        "icam": train_icam(tiny_train_set, iterations=3, batch_size=2,
                           config=tiny_config),
    }
    icam_manifold = models["icam"].build_manifold(tiny_train_set)
    explainers = {
        "lime": LimeExplainer(tiny_classifier, grid=4, n_samples=20,
                              seed=0),
        "occlusion": OcclusionExplainer(tiny_classifier, window=4,
                                        stride=4),
        "gradcam": GradCAMExplainer(tiny_classifier),
        "fullgrad": FullGradExplainer(tiny_classifier),
        "simple_fullgrad": SimpleFullGradExplainer(tiny_classifier),
        "smooth_fullgrad": SmoothFullGradExplainer(tiny_classifier,
                                                   n_samples=2, seed=3),
        "tscam": TSCAMExplainer(models["tscam"]),
        "stylex": StylexExplainer(models["stylex"], tiny_classifier,
                                  steps=3),
        "lagan": LAGANExplainer(models["lagan"], tiny_classifier),
        "icam": ICAMExplainer(models["icam"], icam_manifold,
                              tiny_train_set.num_classes),
        "cae": CAEExplainer(tiny_cae, tiny_manifold, tiny_classifier,
                            steps=4),
    }
    reference = pickle.loads(pickle.dumps(explainers))
    spec = EngineSpec("transport_spec_util:prebuilt",
                      kwargs=dict(explainers=explainers))
    pool = ProcessExecutor(spec, workers=1)
    yield pool, reference
    prefixes = _arena_prefixes(pool)
    pool.shutdown()
    _assert_no_leaks(prefixes)


def _in_process(explainer, images, labels, targets=None):
    """The reference run: the tape, under the same needs_gradients /
    no_grad contract the engine and the workers apply."""
    if explainer.needs_gradients:
        return explainer.explain_batch(images, labels, targets)
    with nn.no_grad():
        return explainer.explain_batch(images, labels, targets)


def _assert_same_maps(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.label == b.label
        assert a.target_label == b.target_label
        assert_saliency_close(a.saliency, b.saliency)


@pytest.fixture(scope="module")
def parity_batch(tiny_train_set):
    idx = np.concatenate([tiny_train_set.indices_of_class(1)[:2],
                          tiny_train_set.indices_of_class(0)[:1]])
    return (tiny_train_set.images[idx].astype(np.float32),
            tiny_train_set.labels[idx].astype(np.int64))


class TestPipeShmParity:
    """Every method through the pool — once over the arena (``ok_shm``)
    and once over the pipe leg (``ok_pipe``) — matches the in-process
    reference."""

    @pytest.mark.parametrize("name", TABLE2_METHODS + ("occlusion",))
    def test_parity(self, table2_pool, parity_batch, name, monkeypatch):
        pool, reference = table2_pool
        images, labels = parity_batch
        want = _in_process(reference[name], images, labels)
        via_shm, _ = pool.run_batch(name, images, labels, None)
        oversize = pool.transport_stats()["fallbacks_oversize"]
        force_pipe_replies(monkeypatch)
        via_pipe, _ = pool.run_batch(name, images, labels, None)
        assert pool.transport_stats()["fallbacks_oversize"] == oversize + 1
        _assert_same_maps(via_shm, want)
        _assert_same_maps(via_pipe, want)

    def test_parity_with_targets(self, table2_pool, parity_batch):
        pool, reference = table2_pool
        images, labels = parity_batch
        targets = np.where(labels == 0, 1, 0).astype(np.int64)
        via_shm, _ = pool.run_batch("gradcam", images, labels, targets)
        _assert_same_maps(via_shm, _in_process(reference["gradcam"],
                                               images, labels, targets))

    def test_shm_pool_moved_no_pipe_payload(self, table2_pool,
                                            parity_batch):
        pool, _ = table2_pool
        images, labels = parity_batch
        before = pool.transport_stats()
        pool.run_batch("gradcam", images, labels, None)
        after = pool.transport_stats()
        assert after["shm_batches"] == before["shm_batches"] + 1
        assert after["shm_bytes_moved"] > before["shm_bytes_moved"]
        assert after["copies_avoided"] > before["copies_avoided"]
        # The payload crossed through the arena: nothing fell back.
        assert after["pipe_payload_bytes"] == before["pipe_payload_bytes"]
        assert after["fallbacks"] == before["fallbacks"]


@pytest.fixture(scope="module")
def demo_pool():
    """A shared 2-worker demo pool for the engine-level tests.  Engines
    built on it must not be closed — the fixture owns the shutdown and
    the leak assertion."""
    spec = demo_spec(("gradcam", "occlusion", "echo", "slow"),
                     slow_ms=50.0)
    classifier, explainers = spec.materialize()
    pool = ProcessExecutor(spec, workers=2)
    yield classifier, explainers, pool
    prefixes = _arena_prefixes(pool)
    pool.shutdown()
    _assert_no_leaks(prefixes)
    assert all(not c.process.is_alive() for c in pool._all)


class TestEngineTransport:
    def test_engine_parity_and_stats_sections(self, demo_pool):
        classifier, explainers, pool = demo_pool
        images = _images(6)
        labels = np.array([0, 1, 0, 1, 0, 1])
        with ExplainEngine(classifier, explainers,
                           max_batch=4) as in_process:
            want = in_process.explain_batch(images, labels, "gradcam")
            assert in_process.stats()["transport"] is None
        engine = ExplainEngine(classifier, explainers, max_batch=4,
                               executor=pool)
        got = engine.explain_batch(images, labels, "gradcam")
        transport = engine.stats()["transport"]
        assert transport["shm_batches"] >= 2
        assert transport["fallbacks"] == 0
        for a, b in zip(got, want):
            assert a.label == b.label
            assert_saliency_close(a.saliency, b.saliency)

    def test_echo_payload_roundtrip_is_exact(self, demo_pool):
        # The echo method is pure payload: byte-exact round-trip through
        # the arenas (float32 in, float32 mean out — no method noise).
        _, _, pool = demo_pool
        images = _images(5, side=24)
        labels = np.zeros(5, dtype=np.int64)
        results, _ = pool.run_batch("echo", list(images), labels, None)
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.saliency,
                                          images[i].mean(axis=0))

    def test_double_buffering_overlaps_sends(self):
        # One worker, two slots: two concurrent batches of the sleeper
        # must double-buffer onto the same channel (the second send
        # lands while the first still computes).
        executor = ProcessExecutor(demo_spec(("slow",), slow_ms=100.0),
                                   workers=1)
        prefixes = _arena_prefixes(executor)
        try:
            images = _images(2)
            labels = np.zeros(2, dtype=np.int64)
            outcomes = []

            def run():
                outcomes.append(executor.run_batch("slow", images, labels,
                                                   None))

            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(outcomes) == 2
            stats = executor.transport_stats()
            assert stats["sends"] == 2
            assert stats["overlapped_sends"] >= 1
            assert stats["overlap_occupancy"] > 0
        finally:
            executor.shutdown()
        _assert_no_leaks(prefixes)


class TestCrashHygiene:
    def test_crash_mid_batch_retries_on_survivor_and_unlinks(self):
        # A batch of [bad, good] kills its worker; the engine re-runs it
        # as halves on the survivors.  The bad half kills a second
        # worker and fails alone; the good half is served by the third.
        crasher = CrashOnMarker()
        spec = EngineSpec("transport_spec_util:prebuilt",
                          kwargs={"explainers": {"crash": crasher}})
        _, explainers = spec.materialize()
        executor = ProcessExecutor(spec, workers=3)
        prefixes = _arena_prefixes(executor)
        engine = ExplainEngine(None, explainers, max_batch=2,
                               executor=executor)
        try:
            bad, good = _images(2)
            bad[0, 0, 0] = CrashOnMarker.MARKER
            handles = [engine.submit_async(image, 0, "crash")
                       for image in (bad, good)]
            assert engine.drain() == 2
            with pytest.raises(WorkerCrashed):
                handles[0].result()      # a survivor remains: not Overloaded
            np.testing.assert_array_equal(handles[1].result().saliency,
                                          good[0])
            assert executor.alive_workers == 1
            # The dead channels were reaped: their arena segments are
            # gone while the survivor's stay live.
            if _HAVE_DEV_SHM:
                dead = [c for c in executor._all if c.dead]
                assert len(dead) == 2 and all(c.reaped for c in dead)
                assert not any(_segments(c.arena.prefix) for c in dead)
            # New work still lands on the survivor over shared memory.
            result = engine.explain(_images(1)[0], 1, "crash")
            assert result.label == 1
            assert executor.transport_stats()["shm_batches"] >= 1
        finally:
            executor.shutdown()
        _assert_no_leaks(prefixes)
        assert all(not c.process.is_alive() for c in executor._all)

    def test_shutdown_unlinks_every_segment(self):
        executor = ProcessExecutor(demo_spec(("echo",)), workers=2)
        prefixes = _arena_prefixes(executor)
        images = _images(4)
        labels = np.zeros(4, dtype=np.int64)
        executor.run_batch("echo", images, labels, None)
        if _HAVE_DEV_SHM:
            assert any(_segments(prefix) for prefix in prefixes)
        executor.shutdown()
        _assert_no_leaks(prefixes)
        executor.shutdown()                # idempotent


class TestWorkerFallbacks:
    """Drive ``worker_main`` directly (in a thread, over a local pipe)
    to pin the fallback and error legs of the protocol without having
    to corrupt a live pool's arenas."""

    @pytest.fixture()
    def worker(self):
        import multiprocessing
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_main, args=(child, demo_spec(("echo", "boom"))),
            daemon=True)
        thread.start()
        kind, _pid, counters = parent.recv()
        assert kind == "ready"
        assert (counters["batches"], counters["maps"]) == (0, 0)
        yield parent
        try:
            parent.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        thread.join(timeout=5)

    def test_stale_header_falls_back_to_slot_routed_pipe(self, worker):
        images = _images(2, side=8)
        labels = np.zeros(2, dtype=np.int64)
        out_desc = ("rtx-no-such-segment-g1", 4096,
                    tuple(images.shape), "float32")
        worker.send(("shm_batch", 1, "echo", out_desc,
                     ("rtx-no-such-ret-g1", 4096), labels, None))
        assert worker.recv() == ("shm_stale", 1)
        worker.send(("pipe_batch", 1, "echo", images, labels, None))
        (kind, slot, (pid, recv_at, done_at), counters, batch_ms, payload,
         need) = worker.recv()
        assert (kind, slot, need) == ("ok_pipe", 1, 0)
        assert pid == os.getpid() and recv_at <= done_at
        # Cumulative counters ride the reply: the stale header ran
        # nothing, the resend one batch of two maps.
        assert (counters["batches"], counters["maps"]) == (1, 2)
        assert counters["plans"]["compiled"] == 0     # echo: tape only
        assert batch_ms >= 0.0
        results = decode_results(payload)
        np.testing.assert_allclose(results[1].saliency,
                                   images[1].mean(axis=0), rtol=1e-6)

    def test_oversized_reply_falls_back_with_byte_hint(self, worker):
        images = _images(2, side=8)
        labels = np.zeros(2, dtype=np.int64)
        arena = ShmArena("rtxtest-oversize", slots=1)
        try:
            slot = arena.acquire()
            out_desc, ret_desc = arena.encode(slot, images)
            # Lie about the return segment's capacity: the worker must
            # refuse the in-place write and pipe the payload back with
            # the byte count the parent turns into a growth hint.
            worker.send(("shm_batch", 0, "echo", out_desc,
                         (ret_desc[0], 8), labels, None))
            kind, slot_index, stamps, _counters, _batch_ms, payload, \
                need = worker.recv()
            assert (kind, slot_index) == ("ok_pipe", 0)
            assert len(stamps) == 3
            assert need == 2 * 8 * 8 * 4
            results = decode_results(payload)
            np.testing.assert_allclose(results[0].saliency,
                                       images[0].mean(axis=0), rtol=1e-6)
        finally:
            arena.close()
        _assert_no_leaks(["rtxtest-oversize"])

    def test_remote_error_is_slot_routed_with_stamps(self, worker):
        images = _images(1, side=8)
        worker.send(("pipe_batch", 1, "boom", images,
                     np.zeros(1, dtype=np.int64), None))
        kind, slot, stamps, counters, method, exc_type, message, \
            remote_tb = worker.recv()
        assert (kind, slot, method, exc_type) == ("error", 1, "boom",
                                                  "RuntimeError")
        assert len(stamps) == 3
        assert counters["batches"] == 0    # a failed batch is not counted
        assert "injected worker failure" in message
        assert "injected worker failure" in remote_tb
