"""Serving-layer cache of compiled :mod:`repro.nn.plan` execution plans.

Serving traffic is shape-repetitive: the engine runs the same
``(method, batch_shape)`` micro-batch over and over, yet the tape path
re-records autograd bookkeeping and re-allocates every intermediate on
each batch.  :class:`PlanCache` turns that repetition into compiled-plan
replays:

* **Key** — ``(plan_key, batch_shape, dtype)``, where
  :attr:`~repro.explain.base.Explainer.plan_key` names the traced core:
  the method name by default, shared by the three FullGrad methods
  (they trace one core per classifier), so they compile one plan per
  shape.  On first sight of a key the explainer's hot path is traced
  and compiled (:meth:`~repro.explain.base.Explainer.compile_plan`);
  thereafter the batch replays through the plan's buffer arena with no
  Tensor objects, no tape, and no per-batch allocation.
* **Frozen-set revalidation** — each entry records the
  :func:`~repro.nn.frozen_fingerprint` at compile time.  A
  ``nn.frozen`` refcount transition (0→1 or 1→0) fires a listener that
  refreshes the cache's ambient fingerprint; a lookup whose ambient
  fingerprint differs from the entry's falls back to the tape (counted,
  entry retained — the entry becomes valid again when the frozen set
  reverts).  Transient ``with nn.frozen(...)`` scopes *inside* tape
  explainers therefore never invalidate anything: the fingerprint is
  only consulted between batches.
* **Dtype invalidation** — ``nn.set_default_dtype`` fires a listener
  that drops every entry (and the negative cache): plans bake buffer
  dtypes at compile time.
* **Fallbacks** — plan-ineligible explainers, ``PlanUnsupported``
  compiles (negative-cached per ``plan_key``), fingerprint mismatches, and
  ``PlanMismatch`` replays all run the normal tape path and bump the
  ``fallbacks`` counter, so dashboards can see when the hot path is
  *not* compiled.

Concurrency: a replay mutates the plan's arena, and two methods that
share a ``plan_key`` replay one arena, so the engine's per-method lock
cannot keep replays apart.  :meth:`run` holds a per-key lock across
lookup, compile and replay instead: replays of one plan run one at a
time, a key compiles once, and different keys compile and replay
concurrently.  A process worker runs single-threaded on its own
replica (with its own per-replica ``PlanCache``), so there the lock is
one uncontended acquire per batch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from .. import nn
from ..explain.base import Explainer, SaliencyResult
from ..nn.plan import PlanMismatch, PlanUnsupported

__all__ = ["PlanCache"]

PlanKey = Tuple[Hashable, Tuple[int, ...], str]

#: Live plans per cache; the least recently used is evicted past it.
MAX_PLANS = 32


class PlanCache:
    """Compile-once / replay-thereafter cache (see module docstring).

    ``MAX_PLANS`` bounds live entries (LRU eviction); evicted plans free
    their buffer arenas.  Call :meth:`close` when done to unregister the
    invalidation listeners (the engine does this from its own
    ``close()``).
    """

    def __init__(self):
        self._lock = threading.RLock()
        #: key -> (ExecutionPlan, frozen fingerprint at compile time)
        self._plans: "OrderedDict[PlanKey, Tuple[object, frozenset]]" = \
            OrderedDict()
        #: plan_keys whose compile raised PlanUnsupported — don't retry.
        self._unsupported: set = set()
        #: key -> [lock, holders and waiters]; see _key_lock.
        self._key_locks: Dict[PlanKey, list] = {}
        self.compiled = 0
        self.replay_hits = 0
        self.fallbacks = 0
        self.mismatches = 0
        self.invalidations = 0
        self.evictions = 0
        self._ambient = nn.frozen_fingerprint()
        self._closed = False
        nn.frozen.register_listener(self._on_frozen_transition)
        nn.register_dtype_listener(self._on_dtype_change)

    # -- invalidation listeners ----------------------------------------
    def _on_frozen_transition(self) -> None:
        with self._lock:
            self._ambient = nn.frozen_fingerprint()

    def _on_dtype_change(self, _dtype) -> None:
        with self._lock:
            self.invalidations += len(self._plans)
            self._plans.clear()
            self._unsupported.clear()

    def close(self) -> None:
        """Unregister listeners and drop all plans (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._plans.clear()
        nn.frozen.unregister_listener(self._on_frozen_transition)
        nn.unregister_dtype_listener(self._on_dtype_change)

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            arena = sum(plan.arena_bytes
                        for plan, _fp in self._plans.values())
            return {
                "compiled": self.compiled,
                "replay_hits": self.replay_hits,
                "fallbacks": self.fallbacks,
                "mismatches": self.mismatches,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "plans": len(self._plans),
                "arena_bytes": arena,
            }

    # -- the hot path --------------------------------------------------
    def run(self, explainer: Explainer, images: np.ndarray,
            labels: np.ndarray, targets: Optional[np.ndarray]
            ) -> List[SaliencyResult]:
        """Execute one micro-batch through a compiled plan when
        possible, the tape otherwise (applying the engine's
        ``needs_gradients``/``no_grad`` contract to tape runs)."""
        # getattr: stub/demo explainers may predate the Explainer base.
        if getattr(explainer, "plan_eligible", False):
            key: PlanKey = (getattr(explainer, "plan_key", explainer.name),
                            tuple(np.shape(images)),
                            str(np.asarray(images).dtype))
            with self._key_lock(key):
                plan = self._lookup_or_compile(explainer, key, images,
                                               labels)
                if plan is not None:
                    try:
                        results = explainer.explain_batch_planned(
                            plan, images, labels, targets)
                    except PlanMismatch:
                        with self._lock:
                            self.mismatches += 1
                    else:
                        with self._lock:
                            self.replay_hits += 1
                        return results
        with self._lock:
            self.fallbacks += 1
        return self._run_tape(explainer, images, labels, targets)

    @contextmanager
    def _key_lock(self, key: PlanKey) -> Iterator[None]:
        """Hold ``key``'s lock.  Its entry lives while a thread holds or
        waits for it, so the table never outgrows the threads."""
        with self._lock:
            entry = self._key_locks.get(key)
            if entry is None:
                entry = self._key_locks[key] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    @staticmethod
    def _run_tape(explainer: Explainer, images: np.ndarray,
                  labels: np.ndarray, targets: Optional[np.ndarray]
                  ) -> List[SaliencyResult]:
        if getattr(explainer, "needs_gradients", False):
            return explainer.explain_batch(images, labels, targets)
        with nn.no_grad():
            return explainer.explain_batch(images, labels, targets)

    def _lookup_or_compile(self, explainer: Explainer, key: PlanKey,
                           images: np.ndarray, labels: np.ndarray):
        """The plan for ``key``, compiling on first sight; ``None``
        means "run the tape" (unsupported, or frozen-set mismatch).
        The caller holds the key's lock."""
        with self._lock:
            if key[0] in self._unsupported:
                return None
            entry = self._plans.get(key)
            if entry is not None:
                plan, fingerprint = entry
                if fingerprint != self._ambient:
                    return None            # counted as a fallback by run()
                self._plans.move_to_end(key)
                return plan
            fingerprint = self._ambient
        # Compile outside the cache lock: tracing runs the full model and
        # must not serialize other keys' lookups behind it.  The key's
        # own lock prevents a duplicate compile of this key.
        try:
            plan = explainer.compile_plan(images, labels)
        except PlanUnsupported:
            with self._lock:
                self._unsupported.add(key[0])
            return None
        with self._lock:
            self.compiled += 1
            self._plans[key] = (plan, fingerprint)
            self._plans.move_to_end(key)
            while len(self._plans) > MAX_PLANS:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan
