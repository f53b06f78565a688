"""Worker-process side of the :class:`~repro.serve.executor.ProcessExecutor`.

Three pieces live here, all deliberately free of any engine state:

* :class:`EngineSpec` — a picklable *recipe* for the models a worker
  needs.  The parent never ships live modules: each worker process
  materializes the spec **once at startup** (importing the factory and
  calling it), so per-batch traffic carries only compact headers.  A
  factory is either a module-level callable or an ``"module:attr"``
  string, and returns either an ``{name: Explainer}`` mapping or a
  ``(classifier, explainers)`` pair.
* :func:`decode_shm_results` rebuilds results from a worker-written
  return segment.  No :class:`~repro.explain.base.SaliencyResult`
  object crosses a process boundary as a live reference — the parent
  reconstructs fresh ones, so cache freezing and digest stamping keep
  working unchanged.
* :func:`worker_main` — the worker loop: handshake (``ready`` /
  ``init_error``), then batch / ``stop`` messages until the parent
  hangs up.  Each batch is timed *inside the worker* (pure compute, no
  pipe or convoy time), and the measured per-map cost rides back for
  the engine's cost accounting.
  Methods whose replica sets ``needs_gradients = False`` run under
  ``nn.no_grad()`` in the worker, exactly as the in-process engine
  would run them.

The protocol (payloads live in the shared-memory arenas of
:mod:`repro.serve.transport`; the pipe carries headers)::

    worker -> ("ready", pid, counters)
    parent -> ("shm_batch", slot, method, out_desc, ret_desc,
               labels, targets)
    worker -> ("ok_shm", slot, stamps, counters, batch_ms, ret_shape,
               labels, targets, metas)
            | ("error", slot, stamps, counters, method, exc_type,
               message, tb)
            | ("shm_stale", slot)
    parent -> ("stop",)

``stamps`` is ``(pid, recv_at, done_at)`` on the system-wide monotonic
clock.  ``counters`` is the worker's cumulative ``{batches, maps,
plans}`` (``plans``: its ``PlanCache`` stats), so the parent always
holds the latest ones without asking.  The worker attaches both of a
header's segments before computing; when either cannot be attached
(removed from ``/dev/shm`` by something else) it computes nothing and
answers ``shm_stale``, and the parent replaces the slot's segments and
resends the batch once.  A reply stack that does not fit its return
segment (mixed shapes, or maps larger than the images) is an
``error`` reply naming the shapes, and that batch is not counted.

:func:`demo_spec` builds a small untrained-classifier spec used by the
serving benchmark, the process-executor tests, and the docs; its
registry includes the failure-injection methods ``boom`` (raises inside
the worker), ``exit`` (kills the worker process mid-batch), and ``slow``
(fixed per-map sleep) that the lifecycle/chaos tests drive.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

__all__ = ["EngineSpec", "WorkerCrashed", "WorkerBatchError",
           "worker_main", "demo_spec", "decode_shm_results"]


class WorkerCrashed(RuntimeError):
    """A worker process died (or the pool has none left alive): the
    channel hit EOF mid-conversation.  The engine treats it like any
    batch failure: a multi-request batch re-runs as halves, which land
    on surviving workers; a lone request resolves with it (or with
    ``EngineOverloaded`` caused by it, when no worker is left) and is
    not re-run, since a deterministic crash would kill another worker."""


class WorkerBatchError(RuntimeError):
    """A batch raised *inside* a worker process.  Carries the remote
    traceback text (``remote_traceback``) so the parent-side stack —
    which only shows the pipe round-trip — still points at the real
    failure."""

    def __init__(self, method: str, exc_type: str, message: str,
                 remote_traceback: str):
        super().__init__(
            f"{exc_type} in worker while explaining {method!r}: {message}\n"
            f"--- remote traceback ---\n{remote_traceback}")
        self.method = method
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for one engine's models.

    ``factory`` is a module-level callable or an ``"module:attr"``
    string (resolved by import in the worker — the robust form under the
    ``spawn`` start method); ``args``/``kwargs`` are its call arguments
    and must themselves pickle.  The factory returns either an
    ``{name: Explainer}`` mapping or ``(classifier, explainers)``.
    """

    factory: Union[str, Callable]
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)

    def resolve_factory(self) -> Callable:
        if callable(self.factory):
            return self.factory
        module_name, _, attr = self.factory.partition(":")
        if not module_name or not attr:
            raise ValueError(
                f"spec factory string must look like 'module:attr', "
                f"got {self.factory!r}")
        return getattr(importlib.import_module(module_name), attr)

    def materialize(self) -> Tuple[object, Dict]:
        """Build ``(classifier_or_None, explainers)`` from the recipe."""
        built = self.resolve_factory()(*self.args, **dict(self.kwargs))
        if isinstance(built, tuple):
            classifier, explainers = built
        else:
            classifier, explainers = None, built
        if not isinstance(explainers, dict) or not explainers:
            raise TypeError(
                "spec factory must return an {name: Explainer} mapping "
                f"or a (classifier, mapping) pair, got {type(built)}")
        return classifier, explainers


# ----------------------------------------------------------------------
def decode_shm_results(view: np.ndarray, labels: List, targets: List,
                       metas: List) -> List:
    """Rebuild :class:`SaliencyResult`\\ s from a worker-written return
    segment.  Each map is copied out of the arena view (the slot is
    recycled for the next batch the moment the caller releases it, so
    results must own their memory)."""
    from ..explain.base import SaliencyResult
    return [SaliencyResult(np.array(view[i]), labels[i],
                           target_label=targets[i], meta=metas[i])
            for i in range(len(labels))]


# ----------------------------------------------------------------------
def worker_main(conn, spec: EngineSpec) -> None:
    """Worker-process entry point: materialize the spec once, then
    serve ``shm_batch`` / ``stop`` messages (see the module docstring)
    until the parent hangs up.  Runs single-threaded in its own
    interpreter, so there is no GIL to share with the parent or with
    sibling workers.

    Each worker holds its own :class:`~repro.serve.plans.PlanCache`:
    plans compile **per replica** (buffer arenas cannot cross process
    boundaries), so after each worker's first batch of a
    (method, shape) key its hot path replays tape-free.  Every reply
    but ``shm_stale`` carries the replica's counters.
    """
    from .plans import PlanCache
    from .transport import ArenaClient

    try:
        _classifier, explainers = spec.materialize()
    except BaseException:                  # noqa: BLE001 — report, don't die
        try:
            conn.send(("init_error", traceback.format_exc()))
        finally:
            conn.close()
        return
    pid = os.getpid()
    plan_cache = PlanCache()
    arena = ArenaClient()
    batches = maps = 0

    def counters() -> dict:
        return {"batches": batches, "maps": maps,
                "plans": plan_cache.stats()}

    conn.send(("ready", pid, counters()))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:               # parent went away: just exit
                break
            # Worker-side receive stamp (CLOCK_MONOTONIC is system-wide
            # on Linux, so the parent can compare it with its own
            # dispatch stamps on the same host).
            recv_at = time.monotonic()
            if message[0] == "stop":
                break
            _, slot, method, out_desc, ret_desc, labels, targets = message
            images = arena.attach(out_desc, ret_desc)
            if images is None:             # stale segment: parent resends
                conn.send(("shm_stale", slot))
                continue
            try:
                start = time.perf_counter()
                # Plan replay when this replica has compiled the key;
                # the cache falls back to the tape (applying the
                # needs_gradients/no_grad contract) otherwise.
                results = plan_cache.run(explainers[method], images,
                                         labels, targets)
                batch_ms = (time.perf_counter() - start) * 1000.0
                ret_shape = arena.write_ret(
                    ret_desc, [np.asarray(r.saliency, dtype=np.float32)
                               for r in results])
            except BaseException as exc:   # noqa: BLE001 — ship it back
                conn.send(("error", slot, (pid, recv_at, time.monotonic()),
                           counters(), method, type(exc).__name__,
                           str(exc), traceback.format_exc()))
                continue
            finally:
                del images                 # release the arena view
            batches += 1
            maps += len(results)
            conn.send(("ok_shm", slot, (pid, recv_at, time.monotonic()),
                       counters(), batch_ms, ret_shape,
                       [int(r.label) for r in results],
                       [r.target_label for r in results],
                       [r.meta for r in results]))
    finally:
        plan_cache.close()
        arena.close()
        conn.close()


# ----------------------------------------------------------------------
# Demo spec: a seeded untrained classifier + explainers, identical in
# every process that materializes it (SmallResNet init is RNG-seeded).
class _BoomExplainer:
    """Failure injection: every batch raises inside the worker."""

    name = "boom"
    needs_gradients = False

    def explain_batch(self, images, labels, targets=None):
        raise RuntimeError("injected worker failure")


class _ExitExplainer:
    """Failure injection: the worker process dies mid-batch (no reply,
    no cleanup — exactly what an OOM kill looks like to the parent)."""

    name = "exit"
    needs_gradients = False

    def explain_batch(self, images, labels, targets=None):
        os._exit(13)


class _EchoExplainer:
    """Payload-dominated method for transport benchmarking: the
    "saliency" is the channel mean of the input, so compute is a single
    vectorized pass and per-request cost is dominated by moving the
    image stack — exactly the regime where transport overhead shows.
    The output depends on the input, so a corrupted payload shows up in
    the result, not just in the timing."""

    name = "echo"
    needs_gradients = False
    plan_eligible = False

    def explain_batch(self, images, labels, targets=None):
        from ..explain.base import SaliencyResult
        images = np.asarray(images, dtype=np.float32)
        stacked = images.mean(axis=1)
        return [SaliencyResult(np.array(stacked[i]), int(labels[i]))
                for i in range(len(images))]


def _demo_explainers(methods: Tuple[str, ...] = ("gradcam", "occlusion"),
                     num_classes: int = 2, in_channels: int = 1,
                     width: int = 8, seed: int = 0,
                     slow_ms: float = 200.0):
    """Module-level factory for :func:`demo_spec` (import-resolvable
    from any process).  Untrained weights are fine for serving-runtime
    work — engine cost is architecture-bound — and the seeded init makes
    every replica bit-identical to the parent's copy."""
    from ..classifiers import SmallResNet
    from ..explain import (FullGradExplainer, GradCAMExplainer,
                           OcclusionExplainer, SimpleFullGradExplainer)
    from ..explain.base import Explainer, SaliencyResult

    classifier = SmallResNet(num_classes, in_channels, width=width,
                             seed=seed)
    classifier.eval()

    class _SlowExplainer(Explainer):
        name = "slow"
        needs_gradients = False

        def explain_batch(self, images, labels, targets=None):
            time.sleep(slow_ms * len(images) / 1000.0)
            return [SaliencyResult(np.zeros(images.shape[2:],
                                            dtype=np.float32), int(y))
                    for y in labels]

    registry = {
        "gradcam": lambda: GradCAMExplainer(classifier),
        "fullgrad": lambda: FullGradExplainer(classifier),
        "simple_fullgrad": lambda: SimpleFullGradExplainer(classifier),
        "occlusion": lambda: OcclusionExplainer(classifier, window=4,
                                                stride=2),
        "boom": _BoomExplainer,
        "exit": _ExitExplainer,
        "slow": _SlowExplainer,
        "echo": _EchoExplainer,
    }
    unknown = [m for m in methods if m not in registry]
    if unknown:
        raise KeyError(f"demo spec has no methods {unknown}; "
                       f"choose from {sorted(registry)}")
    return classifier, {m: registry[m]() for m in methods}


def demo_spec(methods: Tuple[str, ...] = ("gradcam", "occlusion"),
              num_classes: int = 2, in_channels: int = 1, width: int = 8,
              seed: int = 0, slow_ms: float = 200.0) -> EngineSpec:
    """Spec for a small seeded demo engine (see :func:`_demo_explainers`).

    Used by ``benchmarks/bench_serve.py``, the process-executor test
    suite, and as the reference for writing real specs: the parent calls
    ``spec.materialize()`` for its own engine-side explainers, and every
    worker materializes the same recipe to bit-identical replicas.
    """
    return EngineSpec("repro.serve.worker:_demo_explainers",
                      kwargs=dict(methods=tuple(methods),
                                  num_classes=num_classes,
                                  in_channels=in_channels, width=width,
                                  seed=seed, slow_ms=slow_ms))
