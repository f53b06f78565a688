"""The ``ExplainEngine`` façade over the serve runtime.

The engine composes the three runtime pieces — a
:class:`~repro.serve.cache.ShardedSaliencyCache`, a deduplicating
:class:`~repro.serve.scheduler.MicroBatchScheduler`, and a pluggable
batch executor — behind the serving API the rest of the repo consumes:

* ``submit`` / ``flush`` / ``explain`` / ``explain_batch`` — the
  synchronous contract (unchanged from the pre-runtime engine): submits
  auto-flush on ``max_batch`` unique pending requests or on the
  ``max_delay_ms`` deadline.
* ``submit_async`` / ``drain`` — the non-blocking path: full micro-
  batches are dispatched to the executor without waiting, and
  ``drain()`` resolves everything in flight plus everything queued.
* **Failure isolation** — a micro-batch that raises is re-run as two
  halves, recursively, down to single requests, so a bad request fails
  only itself (its handles raise the error from ``result()``) and the
  re-runs absorb a transient failure.  Nothing goes back on a queue:
  every admitted request ends served, failed or expired, and
  ``flush``, ``drain`` and ``close`` never re-raise a request's error.
* **Admission control** — ``max_pending`` bounds the unique unresolved
  requests the async path may hold (queued plus dispatched-but-
  unfinished).  An over-limit ``submit_async`` either blocks on a
  condition variable until completed batches make room
  (``policy="block"``) or raises :class:`EngineOverloaded`
  (``policy="reject"``) so the caller can shed load; cache hits and
  dedup attaches are always admitted (they add no work).  ``stats()``
  reports the rejected count and total blocked milliseconds.
* Each image is digested **once** per request; the digest rides the
  request through the queue, keys the cache insert, and lands on the
  result's ``image_digest`` field.
* ``label=None`` asks for the classifier's own call.  It is keyed as
  ``None`` in both cache tiers and dedup, so a hit never runs the
  classifier; misses get one batched ``predict`` per micro-batch.
* Each batch's measured wall time feeds back twice: as the per-map
  compute cost on the cache insert (the ``eviction="cost"`` policy
  keeps expensive maps under pressure) and into the scheduler's
  adaptive per-queue batch limits (``min_batch``).
* Methods with ``needs_gradients = False`` execute under
  ``nn.no_grad()`` (a thread-local switch, so concurrent workers never
  leak inference mode into each other's tapes).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..explain.base import Explainer, SaliencyResult
from .cache import (CacheKey, SaliencyCache, ShardedSaliencyCache,
                    image_digest, request_key)
from .context import DeadlineExceeded, RequestContext
from .executor import make_executor
from .plans import PlanCache
from .scheduler import ExplainRequest, MicroBatchScheduler, QueueKey
from .store import SaliencyStore
from .worker import WorkerCrashed

__all__ = ["EngineOverloaded", "TenantOverQuota", "ExplainEngine",
           "PendingExplain", "DeadlineExceeded", "RequestContext",
           "SaliencyCache", "image_digest", "request_key"]

ADMISSION_POLICIES = ("block", "reject")

#: Backoff hint (seconds) carried on :class:`TenantOverQuota`, which the
#: HTTP tier sends as ``Retry-After``.
QUOTA_RETRY_AFTER_S = 1.0

#: Every tenant's lifetime counters, as ``stats()["tenants"]`` reports
#: them; ``served + requests_failed + deadline_expired`` is the number
#: of handles the tenant's submits returned.
_TENANT_COUNTERS = {"served": 0, "requests_failed": 0,
                    "deadline_expired": 0, "quota_rejected": 0}


def _merge_plan_stats(parent: Optional[Dict], worker_stats: List[dict]
                      ) -> Dict:
    """Fold per-worker ``plans`` dicts into the engine-level section:
    counters sum across replicas (each compiles/replays its own plans);
    ``arena_bytes`` takes the max — arenas are peak per-process memory,
    not additive."""
    merged = dict(parent or {})
    for worker in worker_stats:
        for key, value in (worker.get("plans") or {}).items():
            if key == "arena_bytes":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


class EngineOverloaded(RuntimeError):
    """Raised by ``submit_async`` under ``policy="reject"`` when the
    engine already holds ``max_pending`` unique unresolved requests.
    The rejected request was not queued; the caller owns the retry (or
    the shed).

    It also resolves a request whose batch found a process pool with no
    live worker left (the :class:`~repro.serve.worker.WorkerCrashed`
    rides along as ``__cause__``): only a fresh executor can run it."""


class TenantOverQuota(EngineOverloaded):
    """One tenant exhausted its per-tenant quota slice.

    Raised by ``submit``/``submit_async`` when the submitting tenant
    already holds ``quota`` unique unresolved requests, **regardless of
    global capacity** — quota is a fairness bound, so a single tenant
    flooding the engine is shed with this error while every other
    tenant keeps being admitted.  Always a rejection (never a block,
    even under ``policy="block"``): the tenant owns the retry, and
    ``retry_after_s`` is the engine's backoff hint (the HTTP tier maps
    this exception to ``429 Too Many Requests`` with a ``Retry-After``
    header).

    Attributes
    ----------
    tenant:
        The over-quota tenant id.
    held:
        Unique unresolved requests the tenant held at rejection time.
    quota:
        The tenant's configured slice (``tenant_quotas[tenant]`` or the
        engine-wide ``tenant_quota`` default).
    retry_after_s:
        Suggested client backoff in seconds.
    """

    def __init__(self, tenant: str, held: int, quota: int,
                 retry_after_s: float):
        super().__init__(
            f"tenant {tenant!r} holds {held} unresolved request(s), "
            f"quota is {quota}; rejected by per-tenant admission "
            f"(retry after {retry_after_s:g}s)")
        self.tenant = tenant
        self.held = held
        self.quota = quota
        self.retry_after_s = retry_after_s


class PendingExplain:
    """Handle for one submitted request; resolves when its batch runs.

    Deduplicated submits share one underlying :class:`ExplainRequest`
    (and therefore one computation) but each hold their own handle.
    ``ctx`` is the submit's :class:`RequestContext`: stage timestamps
    land on it as the request moves through the runtime (a cache hit
    carries ``admitted``/``resolved`` only — it never queued).
    """

    __slots__ = ("engine", "method", "cache_hit", "ctx", "_result",
                 "_error", "_request")

    def __init__(self, engine: "ExplainEngine", method: str,
                 cache_hit: bool = False,
                 _result: Optional[SaliencyResult] = None,
                 _request: Optional[ExplainRequest] = None,
                 ctx: Optional[RequestContext] = None):
        self.engine = engine
        self.method = method
        self.cache_hit = cache_hit
        self.ctx = ctx
        self._result = _result
        self._error = None
        self._request = _request

    @property
    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def result(self) -> SaliencyResult:
        """The saliency result, waiting on / flushing the runtime.

        An async-dispatched batch is awaited through its future; a
        still-queued request forces a flush of the owning method.  A
        request whose own batch raised (after isolation, see the module
        doc) raises that error; a request whose deadline passed while it
        was queued raises :class:`DeadlineExceeded`; a request that
        somehow remains unresolved raises instead of returning None.
        """
        while True:
            if self._error is not None:
                raise self._error
            if self._result is not None:
                return self._result
            request = self._request
            future = request.future if request is not None else None
            if future is not None:
                future.result()        # waits; re-raises an interrupt
                continue               # _result set before future cleared
            self.engine.flush(self.method)
            if self._result is not None or self._error is not None:
                continue               # loop top returns or raises
            # Empty flush but still unresolved: another thread's flush
            # holds the request in an in-flight batch (its future was
            # assigned atomically with the queue pop) — loop and wait
            # on it rather than raising spuriously.
            if request is not None and request.future is not None:
                continue
            raise RuntimeError(
                f"{self.method!r} explain request did not resolve after "
                "flush")


class ExplainEngine:
    """Serving layer over a classifier + explainer suite (see module doc).

    Parameters
    ----------
    classifier:
        The trained black-box model the explainers interrogate.  Its
        ``num_classes`` bounds labels and targets; ``predict`` resolves
        ``label=None``.
    explainers:
        ``name -> Explainer`` mapping (an
        :class:`~repro.explain.ExplainerSuite`'s ``explainers`` dict).
    max_batch:
        Micro-batch size ceiling: a ``(method, shape, class)`` queue
        auto-flushes when its current limit of *unique* requests is
        pending (the limit is ``max_batch`` itself unless adaptive
        batching is on).
    max_delay_ms:
        Deadline: a submit auto-flushes a queue whose oldest pending
        request has waited at least this long.  ``None`` disables the
        deadline (flush on size or demand only).
    min_batch:
        Turns on adaptive micro-batching: each queue's flush limit
        ramps between ``min_batch`` and ``max_batch`` from the observed
        per-map latency of its recent batches, targeting
        ``target_batch_ms`` of compute per batch.  ``None`` (default)
        keeps the single static ``max_batch`` knob.
    target_batch_ms:
        Per-batch compute budget the adaptive limits steer toward
        (ignored unless ``min_batch`` is set).
    cache_size:
        Total saliency-cache capacity (entries, across all shards).
    cache_shards:
        Cache shard count.  1 (default) keeps exact global eviction
        semantics; serving deployments with a threaded executor should
        shard (4-8) to spread lock traffic and eviction pressure.
    eviction:
        Cache eviction policy: exact ``"lru"`` (default) or cost-aware
        ``"cost"`` (GDSF: under pressure, cheap-to-recompute maps are
        evicted before expensive ones — the engine records each batch's
        measured per-map cost on insert).
    max_pending:
        Admission bound: the async path holds at most this many unique
        unresolved requests (queued + dispatched).  ``None`` (default)
        admits everything — the pre-admission unbounded behaviour.
    policy:
        What an over-limit ``submit_async`` does: ``"block"`` (default)
        waits on a condition variable until room frees; ``"reject"``
        raises :class:`EngineOverloaded` immediately.
    tenant_quota:
        Per-tenant fairness bound (default ``None`` — off): the most
        unique unresolved requests any *single* tenant may hold, on
        both the sync and async paths.  A submit that would exceed the
        submitter's slice raises :class:`TenantOverQuota` immediately —
        even under ``policy="block"``, and even when global capacity
        remains — so one tenant's flood is shed while every other
        tenant keeps being served.  Anonymous requests (no ``tenant``
        on the context) are never quota'd; dedup attaches and cache
        hits are always admitted (they add no work).
    tenant_quotas:
        Per-tenant overrides of ``tenant_quota`` (``tenant -> slice``).
        A tenant listed here is quota'd even when ``tenant_quota`` is
        ``None``.
    executor:
        ``None``/``"serial"`` (inline, deterministic), ``"threaded"``
        (persistent worker threads), or an executor instance — e.g. a
        :class:`~repro.serve.executor.ProcessExecutor` built from an
        :class:`~repro.serve.worker.EngineSpec` (persistent worker
        *processes*; ``ExperimentContext.engine(executor="process")``
        derives the spec automatically).  When the executor exposes a
        ``run_batch(method, images, labels, targets, ctxs=...)``
        remote-compute channel, the engine hands it each batch's
        per-request image list and contexts and keeps all bookkeeping
        (cache, dedup fan-out, admission) in-process.  Every batch runs
        through a :class:`~repro.serve.plans.PlanCache` (the engine's,
        or a process worker's own), which replays compiled plans and
        falls back to the tape, counted in ``stats()["plans"]``.
    store:
        Persistent second cache tier (default off): a directory path —
        the engine opens a :class:`~repro.serve.store.SaliencyStore`
        there (read-write, single writer) and closes it with the
        engine — or an already-open store instance.  Tier-1 misses
        probe the store before queueing compute (mmap read, arrays
        re-frozen, the persisted GDSF cost threaded into the tier-1
        insert); computed results write behind to it.  Reopening the
        same directory later starts the engine *warm* — the whole
        point.

    Ready queues pop ``interactive`` before ``normal`` before ``bulk``,
    and a queue gains one class per ``scheduler.AGING_MS`` it waits, so
    a flood delays a class but never starves it.
    """

    def __init__(self, classifier, explainers: Dict[str, Explainer],
                 max_batch: int = 16, max_delay_ms: Optional[float] = None,
                 min_batch: Optional[int] = None,
                 target_batch_ms: float = 200.0,
                 cache_size: int = 256, cache_shards: int = 1,
                 eviction: str = "lru",
                 max_pending: Optional[int] = None, policy: str = "block",
                 tenant_quota: Optional[int] = None,
                 tenant_quotas: Optional[Dict[str, int]] = None,
                 executor=None, store=None):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; "
                             f"use one of {ADMISSION_POLICIES}")
        quotas = dict(tenant_quotas or {})
        for tenant, slice_ in [(None, tenant_quota), *quotas.items()]:
            if slice_ is not None and slice_ < 1:
                raise ValueError(
                    f"tenant quota must be >= 1 (or None); got {slice_!r}"
                    + (f" for tenant {tenant!r}" if tenant else ""))
        self.classifier = classifier
        self.explainers = dict(explainers)
        self.cache = ShardedSaliencyCache(cache_size, shards=cache_shards,
                                          policy=eviction)
        self._scheduler = MicroBatchScheduler(
            max_batch, max_delay_ms, min_batch=min_batch,
            target_batch_ms=target_batch_ms)
        self._executor = make_executor(executor)
        self._lock = threading.RLock()
        self._inflight: List[Future] = []
        #: Resolve counts banked from pruned (already-done) async
        #: futures, paid out by the next drain().
        self._async_resolved = 0
        # Admission control: _unresolved counts unique requests admitted
        # but not yet resolved (queued or inside a dispatched batch);
        # the condition shares the engine lock so batch completion can
        # decrement and notify in its existing critical section.
        self.max_pending = max_pending
        self.admission_policy = policy
        self._admission = threading.Condition(self._lock)
        self._unresolved = 0
        self.admission_rejected = 0
        self.admission_blocked = 0
        self.admission_blocked_ms = 0.0
        # Per-tenant quota/fairness admission: each quota'd tenant may
        # hold at most its slice of unique unresolved requests (sync or
        # async); the slices are tracked independently of the global
        # max_pending budget so one tenant's flood is shed (429 at the
        # HTTP tier) while the others keep being admitted.
        self.tenant_quota = tenant_quota
        self.tenant_quotas = quotas
        self._tenant_unresolved: Dict[str, int] = {}
        self.quota_rejected = 0
        self._closed = False
        # Batches handed to the executor but not yet completed; kick()
        # throttles ready dispatch to the executor's idle capacity so
        # backlog stays in the (priority-ordered) scheduler.
        self._dispatching = 0
        # Batches of one method never overlap: explainer objects are not
        # audited for internal thread safety, so concurrency comes from
        # running *different* methods (or shape-queues) in parallel.
        self._method_locks = {name: threading.Lock() for name in explainers}
        self._plan_cache = PlanCache()
        # Tier 2: the persistent store.  A path opens one read-write
        # (this engine is the single writer for the directory); an
        # instance is adopted as-is.  Either way close() closes it —
        # mirroring how the engine owns executor shutdown.
        if store is None or isinstance(store, SaliencyStore):
            self._store = store
        else:
            self._store = SaliencyStore(os.fspath(store))
        self.store_served = 0
        self.batches_run = 0
        self.requests_served = 0
        #: Handles resolved with the error their own batch raised.
        self.requests_failed = 0
        #: Requests resolved as DeadlineExceeded without compute.
        self.deadline_expired = 0
        #: tenant -> its ``_TENANT_COUNTERS``.  Cache/store hit
        #: breakdowns live in their own stats sections.
        self._tenants: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    @property
    def methods(self) -> Tuple[str, ...]:
        return tuple(self.explainers)

    @property
    def max_batch(self) -> int:
        return self._scheduler.max_batch

    @property
    def max_delay_ms(self) -> Optional[float]:
        return self._scheduler.max_delay_ms

    @property
    def executor(self):
        return self._executor

    def stats(self) -> Dict[str, object]:
        """Serving counters (cache, store, batching, dedup) for
        dashboards.

        ``plans`` aggregates across replicas when process workers are
        in play: per-worker counters are summed (each replica compiles
        and replays its own plans) with ``arena_bytes`` as the max —
        arenas are peak per-process memory, not additive.  Each worker's
        counters are those of its latest batch reply, so ``stats()``
        never waits on the pool; a batch still in flight is counted
        once it returns.
        """
        cache = self.cache.stats()
        plans = self._plan_cache.stats()
        gather = getattr(self._executor, "worker_stats", None)
        if gather is not None:
            plans = _merge_plan_stats(plans, gather())
        store = self._store.stats() if self._store is not None else None
        # Transport counters (process pool only): bytes moved per path,
        # copies avoided, arena footprint, fallbacks, and how often a
        # send overlapped a busy worker's in-flight batch.
        transport = None
        transport_gather = getattr(self._executor, "transport_stats", None)
        if transport_gather is not None and not self._closed:
            try:
                transport = transport_gather()
            except Exception:              # noqa: BLE001 — best-effort
                transport = None
        # Combined weighted hit rate across both tiers: compute avoided
        # by tier-1 hits plus tier-2 (store) hits, over that plus the
        # compute actually paid (computed inserts).
        avoided = cache["hit_cost_ms"]
        if store is not None:
            avoided += store["hit_cost_ms"]
        requested = avoided + cache["insert_cost_ms"]
        with self._lock:
            inflight = sum(1 for f in self._inflight if not f.done())
            return {
                "cache_hits": cache["hits"],
                "cache_misses": cache["misses"],
                "cache_evictions": cache["evictions"],
                "cache_inserts": cache["inserts"],
                "cache_size": cache["size"],
                "cache_shards": cache["shards"],
                "shard_sizes": cache["shard_sizes"],
                "hit_rate": cache["hit_rate"],
                "weighted_hit_rate": (avoided / requested
                                      if requested > 0 else None),
                "store": store,
                "store_served": self.store_served,
                "batches_run": self.batches_run,
                "requests_served": self.requests_served,
                "requests_failed": self.requests_failed,
                "pending": self._scheduler.pending_count(),
                "pending_handles": self._scheduler.pending_handles(),
                "queues": self._scheduler.queue_stats(),
                "dedup_hits": self._scheduler.dedup_hits,
                "priority_promotions": self._scheduler.promotions,
                "deadline_expired": self.deadline_expired,
                "tenants": self._tenant_stats_locked(),
                "inflight": inflight,
                "unresolved": self._unresolved,
                "max_pending": self.max_pending,
                "admission_policy": self.admission_policy,
                "admission_rejected": self.admission_rejected,
                "admission_blocked": self.admission_blocked,
                "admission_blocked_ms": round(self.admission_blocked_ms, 3),
                "tenant_quota": self.tenant_quota,
                "tenant_quotas": dict(self.tenant_quotas),
                "quota_rejected": self.quota_rejected,
                "batch_limits": self._scheduler.batch_limits(),
                "eviction": self.cache.policy,
                "executor": self._executor.name,
                "plans": plans,
                "transport": transport,
            }

    def pending_count(self, method: Optional[str] = None) -> int:
        """Unique requests currently queued (not yet dispatched) —
        for one ``method`` or, with ``None``, across every queue.
        In-flight batches are excluded; see ``stats()["inflight"]``."""
        with self._lock:
            return self._scheduler.pending_count(method)

    def close(self) -> None:
        """Drain, then shut down the executor's workers (idempotent).

        Shutting the executor down while requests still sit queued or
        in flight would silently strand their unresolved handles, so
        ``close()`` drains first.  A failed request already carries its
        error on its handle, so only an interrupt propagates from here
        — after the workers are shut down, so close() never leaks them.
        """
        if self._closed:
            return
        try:
            self.drain()
        finally:
            self._closed = True
            self._executor.shutdown()
            self._plan_cache.close()
            if self._store is not None:
                # Drains the write-behind queue and snapshots the
                # journal, so the next engine on this directory opens
                # warm with a pure replay.
                self._store.close()

    def __enter__(self) -> "ExplainEngine":
        return self

    def __exit__(self, *exc) -> bool:
        # Propagating a drain failure would mask the body's own
        # exception — close quietly in that case (the body's error is
        # the one the caller needs).
        if exc and exc[0] is not None:
            try:
                self.close()
            except BaseException:          # noqa: BLE001
                pass
        else:
            self.close()
        return False

    # ------------------------------------------------------------------
    def _explainer(self, method: str) -> Explainer:
        try:
            return self.explainers[method]
        except KeyError:
            raise KeyError(
                f"unknown method {method!r}; engine serves {self.methods}")

    def _run_batch(self, queue_key: QueueKey,
                   requests: List[ExplainRequest]) -> int:
        """Execute one micro-batch; returns the number of handles
        resolved (>= ``len(requests)`` when dedup fanned out).
        ``label=None`` requests share one ``classifier.predict`` before
        the timed section, so ``batch_ms`` and the GDSF cost stay
        explainer time; the call reaches ``result.label``, not the key."""
        method = queue_key[0]
        explainer = self._explainer(method)
        labels = np.array([-1 if r.label is None else r.label
                           for r in requests], dtype=np.int64)
        omitted = [i for i, r in enumerate(requests) if r.label is None]
        if omitted:
            labels[omitted] = self.classifier.predict(
                np.stack([requests[i].image for i in omitted]))
        if any(r.target_label is not None for r in requests):
            targets = np.array(
                [-1 if r.target_label is None else int(r.target_label)
                 for r in requests], dtype=np.int64)
        else:
            targets = None
        remote = getattr(self._executor, "run_batch", None)
        if remote is not None:
            # Process pool: compute runs on a worker's private model
            # replicas, so no per-method lock is needed (two batches of
            # one method may overlap on different workers) and the
            # worker's own wall clock is the pure-compute cost.  A pool
            # with no survivors can never run another batch — that is
            # the admission contract's "cannot make progress" case,
            # surfaced in its own type with the crash as the cause.
            # The images go unstacked (each is written straight into an
            # arena slot), and the worker's stamps land on the contexts.
            try:
                results, batch_ms = remote(
                    method, [r.image for r in requests], labels, targets,
                    ctxs=[r.ctx for r in requests])
            except WorkerCrashed as exc:
                if getattr(self._executor, "alive_workers", 1) == 0:
                    raise EngineOverloaded(
                        "process pool has no live workers; only a fresh "
                        "executor can run this batch") from exc
                raise
        else:
            images = np.stack([r.image for r in requests])
            with self._method_locks[method]:
                # Time inside the method lock: a batch that convoyed
                # behind another batch of its method must not bill the
                # wait as compute, or the inflated cost skews eviction
                # priorities and shrinks the adaptive batch limit under
                # load.
                start = time.perf_counter()
                # Replay when a plan exists for this (method, shape,
                # dtype) key, compile on first sight (billed to this
                # batch — an honest cost), tape otherwise.  The cache
                # applies the needs_gradients/no_grad contract to tape
                # runs.
                results = self._plan_cache.run(explainer, images, labels,
                                               targets)
                batch_ms = (time.perf_counter() - start) * 1000.0
        # Measured per-map cost feeds the cost-aware eviction policy
        # (cache insert below) and the queue's adaptive batch limit.
        cost_ms = batch_ms / len(requests)
        served = 0
        store_puts: List[Tuple[CacheKey, SaliencyResult]] = []
        with self._lock:
            self.batches_run += 1
            self._scheduler.observe(queue_key, batch_ms, len(requests))
            for request, result in zip(requests, results):
                result.image_digest = request.key[0]
                request.ctx.stamp("computed")
                self.cache.put(request.key, result, cost_ms=cost_ms)
                if self._store is not None:
                    store_puts.append((request.key, result))
                for handle in request.handles:
                    hctx = handle.ctx
                    if hctx is not None:
                        if hctx is not request.ctx:
                            # Dedup fan-out: the shared request carries
                            # the pipeline stamps; each handle keeps its
                            # own admitted/resolved pair.
                            hctx.absorb(request.ctx)
                        hctx.stamp("resolved")
                        self._count_tenant(hctx.tenant, "served")
                    handle._result = result
                served += len(request.handles)
            self.requests_served += served
            # Same critical section as handle resolution: a duplicate
            # submit either attached in time (resolved above) or finds
            # the key gone from the in-flight map and hits the cache.
            self._scheduler.mark_complete(requests)
            self._unresolved -= sum(1 for r in requests if r.counted)
            for request in requests:
                self._release_tenant_slot(request)
            self._admission.notify_all()   # room freed: wake blocked submits
        # Write-behind enqueues run outside the engine lock: put() takes
        # the store lock, and a store mid-drain must never transitively
        # stall every submit racing through the critical section above.
        for key, result in store_puts:
            self._store.put(key, result, cost_ms=cost_ms)
        return served

    def _pop_and_prepare(self, method: Optional[str],
                         ready_only: bool, track: bool,
                         limit: Optional[int] = None
                         ) -> List[Tuple[Future, QueueKey,
                                         List[ExplainRequest]]]:
        """Atomically pop batches and assign their futures.

        Popping a request out of the queue and giving it a waitable
        future happen under one lock hold, so a concurrent
        ``result()`` always observes the request either queued (a flush
        resolves it), carrying a future (waitable), or resolved — never
        in a popped-but-futureless limbo that would raise spuriously.
        ``limit`` (ready-only pops) caps how many batches leave the
        scheduler — see :meth:`kick`.
        """
        with self._lock:
            batches, expired = (self._scheduler.pop_ready(method,
                                                          limit=limit)
                                if ready_only
                                else self._scheduler.pop_batches(method))
            # Pruned from their queues by the pop pass: resolve as
            # DeadlineExceeded in the same critical section, so a
            # concurrent result() observes queued -> errored with no
            # futureless limbo in between.  No executor dispatch, no
            # cache insert, no adaptive-batching observation.
            for request in expired:
                rctx = request.ctx.stamp("resolved")
                waited_ms = (rctx.resolved_at
                             - (rctx.admitted_at or rctx.resolved_at)) * 1e3
                self._resolve_error_locked(request, DeadlineExceeded(
                    f"request {rctx.trace_id} ({rctx.priority}) missed "
                    f"its deadline after {waited_ms:.1f} ms queued", rctx),
                    "deadline_expired")
            prepared = []
            if track and batches:
                # Prune settled futures so a long-lived engine whose
                # callers resolve via handle.result() (never drain())
                # doesn't accumulate done futures without bound.  Their
                # resolve counts are banked for drain()'s return value;
                # a future carrying an interrupt is kept so drain()
                # re-raises it.
                kept = []
                for f in self._inflight:
                    if f.done() and f.exception() is None:
                        self._async_resolved += f.result()
                    else:
                        kept.append(f)
                self._inflight = kept
            for queue_key, requests in batches:
                future: Future = Future()
                for request in requests:
                    request.future = future
                    request.ctx.stamp("dispatched")
                if track:
                    self._inflight.append(future)
                prepared.append((future, queue_key, requests))
            return prepared

    def _count_tenant(self, tenant: Optional[str], field: str) -> None:
        """Bump one per-tenant counter (engine lock held); anonymous
        requests (no tenant) aggregate only into the global counters."""
        if tenant is None:
            return
        self._tenants.setdefault(tenant, dict(_TENANT_COUNTERS))[field] += 1

    def _tenant_stats_locked(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant counter snapshot (engine lock held): lifetime
        served/failed/expired/quota-rejected counts plus the live
        ``unresolved`` footprint of every tenant currently holding a
        quota slice."""
        tenants = {tenant: dict(counts) for tenant, counts
                   in sorted(self._tenants.items())}
        for tenant, held in self._tenant_unresolved.items():
            entry = tenants.setdefault(tenant, dict(_TENANT_COUNTERS))
            entry["unresolved"] = held
        return tenants

    # -- per-tenant quota accounting (engine lock held throughout) -----
    def _quota_for(self, tenant: Optional[str]) -> Optional[int]:
        """The tenant's quota slice: its ``tenant_quotas`` override,
        else the engine-wide ``tenant_quota`` default, else ``None``
        (unbounded).  Anonymous requests are never quota'd."""
        if tenant is None:
            return None
        return self.tenant_quotas.get(tenant, self.tenant_quota)

    def _charge_tenant_slot(self, request: ExplainRequest,
                            tenant: Optional[str]) -> None:
        """Charge one unique new request against the tenant's slice
        (no-op when the tenant carries no quota)."""
        if self._quota_for(tenant) is None:
            return
        request.slot_tenant = tenant
        self._tenant_unresolved[tenant] = (
            self._tenant_unresolved.get(tenant, 0) + 1)

    def _release_tenant_slot(self, request: ExplainRequest) -> None:
        """Release a request's tenant-slice slot (idempotent).  Called
        at every path that retires the unique request: batch
        completion, deadline expiry, failure."""
        tenant = request.slot_tenant
        if tenant is None:
            return
        request.slot_tenant = None
        held = self._tenant_unresolved.get(tenant, 0) - 1
        if held > 0:
            self._tenant_unresolved[tenant] = held
        else:
            self._tenant_unresolved.pop(tenant, None)

    def _resolve_error_locked(self, request: ExplainRequest,
                              error: BaseException, field: str) -> None:
        """Retire one unique request without a result: resolve each
        handle with ``error`` (absorbing the shared context's stamps),
        release the admission slot and tenant slice, and count the
        terminal state ``field`` (``"deadline_expired"`` or
        ``"requests_failed"``) per handle, globally and per tenant.
        Engine lock held."""
        rctx = request.ctx
        rctx.stamp("resolved")
        for handle in request.handles:
            hctx = handle.ctx
            if hctx is not None and hctx is not rctx:
                hctx.absorb(rctx)
                hctx.stamp("resolved")
            handle._error = error
            self._count_tenant(hctx.tenant if hctx is not None else None,
                               field)
        setattr(self, field, getattr(self, field) + len(request.handles))
        if request.counted:
            self._unresolved -= 1
            self._admission.notify_all()   # room freed: wake blocked submits
        self._release_tenant_slot(request)

    def _run_isolated(self, queue_key: QueueKey,
                      requests: List[ExplainRequest]) -> int:
        """Run one batch so that a bad request fails only itself: a
        batch that raises an ``Exception`` re-runs as two halves,
        recursively, and a lone request that raises resolves its handles
        with the error.  It leaves the in-flight dedup map in that same
        critical section, so a duplicate that attached while it ran gets
        the error too, and a resubmit recomputes (failures are never
        cached).  Returns the handles resolved, failed ones included."""
        try:
            return self._run_batch(queue_key, requests)
        except Exception as exc:           # noqa: BLE001 — isolated below
            if len(requests) > 1:
                mid = len(requests) // 2
                return (self._run_isolated(queue_key, requests[:mid])
                        + self._run_isolated(queue_key, requests[mid:]))
            with self._lock:
                self._resolve_error_locked(requests[0], exc,
                                           "requests_failed")
                self._scheduler.mark_complete(requests)
                return len(requests[0].handles)

    def _launch(self, future: Future, queue_key: QueueKey,
                requests: List[ExplainRequest]) -> None:
        """Hand one prepared batch to the executor.

        The batch's future was assigned at pop time (so ``result()`` on
        another thread can wait on it) and is cleared on completion.  It
        completes with the number of handles resolved; request failures
        stay on their handles (:meth:`_run_isolated`).  Only an
        interrupt (a ``BaseException`` that is not an ``Exception``) is
        set on it, after resolving every still-unresolved handle, so it
        propagates from ``flush()`` and leaves nothing pending.
        """

        def run() -> None:
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self._dispatching -= 1
                return
            try:
                try:
                    served = self._run_isolated(queue_key, requests)
                finally:
                    with self._lock:
                        self._dispatching -= 1
            except BaseException as exc:   # noqa: BLE001 — an interrupt
                with self._lock:
                    unresolved = [r for r in requests
                                  if not all(h.done for h in r.handles)]
                    for request in unresolved:
                        self._resolve_error_locked(request, exc,
                                                   "requests_failed")
                    self._scheduler.mark_complete(unresolved)
                    for request in requests:
                        request.future = None
                future.set_exception(exc)
            else:
                with self._lock:
                    for request in requests:
                        request.future = None
                future.set_result(served)

        with self._lock:
            self._dispatching += 1
        self._executor.submit(run)

    # ------------------------------------------------------------------
    def flush(self, method: Optional[str] = None) -> int:
        """Run all pending micro-batches (for one method or all),
        blocking until they resolve.  Returns the number of handles
        resolved, failed ones included: a request's failure lands on
        its own handles, so only an interrupt propagates from here.
        """
        resolved = 0
        while True:
            prepared = self._pop_and_prepare(method, ready_only=False,
                                             track=False)
            if not prepared:
                return resolved
            resolved += self._run_prepared(prepared)

    def _flush_ready(self, method: str) -> int:
        """Synchronously run only the queues of ``method`` that hit
        ``max_batch`` or the deadline (the submit auto-flush path)."""
        prepared = self._pop_and_prepare(method, ready_only=True,
                                         track=False)
        return self._run_prepared(prepared)

    def _run_prepared(self, prepared) -> int:
        """Launch prepared batches and block until all resolve; returns
        the number of handles resolved."""
        for future, queue_key, requests in prepared:
            self._launch(future, queue_key, requests)
        return sum(future.result() for future, _, _ in prepared)

    def drain(self) -> int:
        """Resolve everything: await in-flight async batches, then flush
        all queues.  Returns the number of handles resolved since the
        last drain, failed ones included (a request's failure lands on
        its own handles); only an interrupt propagates from here."""
        resolved = 0
        while True:
            with self._lock:
                futures, self._inflight = self._inflight, []
                resolved += self._async_resolved
                self._async_resolved = 0
            for future in futures:
                resolved += future.result()
            resolved += self.flush()
            with self._lock:
                idle = (not self._inflight
                        and self._scheduler.pending_count() == 0)
            if idle:
                return resolved

    # ------------------------------------------------------------------
    def _block_for_admission(self) -> None:
        """Wait (holding the admission condition) until the unresolved
        count drops below ``max_pending``.

        Called with the engine lock held; ``wait`` releases it so batch
        completions can decrement and notify.  When nothing is in
        flight to free room — a serial executor, or ``max_pending``
        below every queue's flush point — the blocked submit itself
        dispatches queued work, so blocking always makes progress
        instead of deadlocking: every dispatched request resolves
        (served or failed), so each dispatch frees room.  Ready queues
        (full or past deadline) go first; only if none exists are
        partial queues force-flushed, so engaging backpressure doesn't
        needlessly break other producers' accumulating micro-batches.
        """
        self.admission_blocked += 1
        start = time.monotonic()
        try:
            while self._unresolved >= self.max_pending:
                if (not any(not f.done() for f in self._inflight)
                        and self._scheduler.pending_count()):
                    prepared = self._pop_and_prepare(
                        None, ready_only=True, track=True)
                    if not prepared:
                        prepared = self._pop_and_prepare(
                            None, ready_only=False, track=True)
                    # Launch without the engine lock (the popped
                    # batches are already owned via their futures): a
                    # SerialExecutor runs the batch inline, and holding
                    # the lock across its method-lock wait and compute
                    # would convoy every other producer behind this one
                    # dispatch.  The lock is held exactly once here
                    # (public submit entry), so the release/acquire
                    # pair is balanced.
                    self._lock.release()
                    try:
                        for future, queue_key, requests in prepared:
                            self._launch(future, queue_key, requests)
                    finally:
                        self._lock.acquire()
                    continue
                self._admission.wait(timeout=0.05)
        finally:
            self.admission_blocked_ms += (time.monotonic()
                                          - start) * 1000.0

    # ------------------------------------------------------------------
    def _submit(self, image: np.ndarray, label: Optional[int], method: str,
                target_label: Optional[int],
                dispatch_async: bool, ctx=None) -> PendingExplain:
        ctx = RequestContext.ensure(ctx)
        ctx.stamp("admitted")
        self._explainer(method)
        # Refuse up front what no batch can run: a client error, not a
        # failed request.
        if label is None and self.classifier is None:
            raise ValueError("label=None needs the engine's classifier")
        n = getattr(self.classifier, "num_classes", None)
        for name, value in (("label", label), ("target", target_label)):
            if n is not None and value is not None and not 0 <= value < n:
                raise ValueError(f"{name} {value} is outside [0, {n})")
        image = np.asarray(image)
        # Digest once per request: the same digest keys the cache probe,
        # rides the queued request, keys the insert, and is stamped on
        # the result — the image bytes are never re-hashed.
        digest = image_digest(image)
        key = request_key(image, method, label, target_label, digest=digest)
        cached = self.cache.get(key, tenant=ctx.tenant)
        if cached is not None:
            ctx.stamp("resolved")
            with self._lock:
                self.requests_served += 1
                self._count_tenant(ctx.tenant, "served")
            return PendingExplain(self, method, cache_hit=True,
                                  _result=cached, ctx=ctx)
        if self._store is not None:
            # Tier 2: a store hit promotes into the memory tier with
            # its *persisted* compute cost (computed=False — nothing
            # was paid now), so GDSF keeps protecting expensive maps
            # across the restart that made this probe necessary.
            stored = self._store.get(key, tenant=ctx.tenant)
            if stored is not None:
                result, stored_cost = stored
                self.cache.put(key, result, cost_ms=stored_cost,
                               computed=False)
                ctx.stamp("resolved")
                with self._lock:
                    self.requests_served += 1
                    self.store_served += 1
                    self._count_tenant(ctx.tenant, "served")
                return PendingExplain(self, method, cache_hit=True,
                                      _result=result, ctx=ctx)
        if ctx.expired():
            # Dead on arrival: both cache tiers missed and the deadline
            # already passed — resolve without queueing or compute.
            ctx.stamp("resolved")
            handle = PendingExplain(self, method, ctx=ctx)
            handle._error = DeadlineExceeded(
                f"request {ctx.trace_id} ({ctx.priority}) deadline "
                "passed at admission", ctx)
            with self._lock:
                self.deadline_expired += 1
                self._count_tenant(ctx.tenant, "deadline_expired")
            return handle

        # The scheduler copies the image only when it creates a new
        # request, so cache hits and deduped submits stay
        # allocation-free; a caller reusing its buffer never changes
        # what a queued request (or the cache) sees.
        handle = PendingExplain(self, method, ctx=ctx)
        with self._admission:              # the engine lock, waitable
            # Re-probe under the lock: the request's twin may have
            # completed (cache insert + in-flight retirement share this
            # lock) between the unlocked probe above and here.  peek()
            # keeps the double-check out of the hit/miss counters.
            cached = self.cache.peek(key)
            if cached is not None:
                self.requests_served += 1
                self._count_tenant(ctx.tenant, "served")
                ctx.stamp("resolved")
                return PendingExplain(self, method, cache_hit=True,
                                      _result=cached, ctx=ctx)
            family = (method, tuple(image.shape))
            quota = self._quota_for(ctx.tenant)
            if (quota is not None
                    and self._scheduler.lookup(family, key) is None
                    and self._tenant_unresolved.get(ctx.tenant, 0)
                    >= quota):
                # Per-tenant fairness gate, checked *before* the global
                # admission bound: a tenant over its slice is rejected
                # outright (never blocked) even while global capacity
                # remains, so its flood sheds while other tenants'
                # submits keep flowing.  Dedup attaches are exempt —
                # they add no work.
                self.quota_rejected += 1
                self._count_tenant(ctx.tenant, "quota_rejected")
                raise TenantOverQuota(
                    ctx.tenant, self._tenant_unresolved[ctx.tenant],
                    quota, QUOTA_RETRY_AFTER_S)
            if (dispatch_async and self.max_pending is not None
                    and self._scheduler.lookup(family, key) is None
                    and self._unresolved >= self.max_pending):
                # Admission control gates only *new unique* async work:
                # dedup attaches and cache hits never add compute, and
                # the sync path flushes inline, so it self-limits.
                if self.admission_policy == "reject":
                    self.admission_rejected += 1
                    raise EngineOverloaded(
                        f"engine holds {self._unresolved} unresolved "
                        f"requests (max_pending={self.max_pending}); "
                        "rejected by admission policy")
                self._block_for_admission()
                cached = self.cache.peek(key)  # twin may have finished
                if cached is not None:
                    self.requests_served += 1
                    self._count_tenant(ctx.tenant, "served")
                    ctx.stamp("resolved")
                    return PendingExplain(self, method, cache_hit=True,
                                          _result=cached, ctx=ctx)
                if ctx.expired():
                    # The deadline ran out inside the backpressure wait:
                    # admitting now could never meet it.
                    ctx.stamp("resolved")
                    handle._error = DeadlineExceeded(
                        f"request {ctx.trace_id} ({ctx.priority}) "
                        "deadline passed while blocked for admission",
                        ctx)
                    self.deadline_expired += 1
                    self._count_tenant(ctx.tenant, "deadline_expired")
                    return handle
            request, _deduped, ready = self._scheduler.enqueue(
                method, image, label, target_label, key, handle, ctx)
            ctx.stamp("enqueued")
            if not _deduped and dispatch_async:
                # Only async ingestion occupies the admission budget:
                # sync submits flush inline and are self-limiting.
                self._unresolved += 1
                request.counted = True
            if not _deduped:
                # The tenant slice charges on both paths: it bounds a
                # tenant's unresolved footprint however it arrived.
                self._charge_tenant_slot(request, ctx.tenant)
            handle._request = request
        if ready:
            if dispatch_async:
                prepared = self._pop_and_prepare(method, ready_only=True,
                                                 track=True)
                for future, queue_key, requests in prepared:
                    self._launch(future, queue_key, requests)
            else:
                # Only the queue(s) that hit max_batch/deadline run;
                # partial queues of other shapes keep accumulating.
                self._flush_ready(method)
        return handle

    def submit(self, image: np.ndarray, label: Optional[int], method: str,
               target_label: Optional[int] = None,
               ctx=None) -> PendingExplain:
        """Queue one request; returns a handle resolving at flush time.

        Cache hits resolve immediately; duplicates of an already-queued
        request attach to it (one computation, fanned-out result).  The
        owning queue auto-flushes **synchronously** when ``max_batch``
        unique requests are pending or the deadline passed.

        ``label=None`` explains the classifier's own call, cached as
        such.  A label or target outside ``[0, num_classes)``, or
        ``label=None`` without a classifier, raises ``ValueError``.

        ``ctx`` is the request's SLO envelope: a
        :class:`RequestContext`, a bare priority-class string, or
        ``None`` for the legacy default (``normal``, no deadline, no
        tenant).
        """
        return self._submit(image, label, method, target_label,
                            dispatch_async=False, ctx=ctx)

    def submit_async(self, image: np.ndarray, label: Optional[int],
                     method: str, target_label: Optional[int] = None,
                     ctx=None) -> PendingExplain:
        """Non-blocking submit: a full queue is handed to the executor
        without waiting for it to run.  Resolve via ``handle.result()``
        (waits on the in-flight batch) or a final :meth:`drain`.
        ``label`` and ``label=None`` behave as in :meth:`submit`.

        On a ``max_pending`` engine this path is admission-controlled:
        a submit that would add unique work beyond the bound blocks
        until batches complete (``policy="block"``) or raises
        :class:`EngineOverloaded` (``policy="reject"``).  Cache hits
        and dedup attaches are always admitted.  ``ctx`` as in
        :meth:`submit`; a request whose deadline passes while it is
        still queued resolves as :class:`DeadlineExceeded` without
        reaching an executor.
        """
        return self._submit(image, label, method, target_label,
                            dispatch_async=True, ctx=ctx)

    def kick(self) -> int:
        """One non-blocking scheduler sweep: deadline-expired requests
        resolve as :class:`DeadlineExceeded` and ready queues (batch
        limit or ``max_delay_ms`` hit) dispatch to the executor
        asynchronously.  Returns the number of batches launched.

        Dispatch is **throttled to the executor's idle capacity**
        (``executor.workers`` minus batches currently in flight): work
        an executor cannot start yet stays in the scheduler, where
        priority order, starvation aging, and deadline expiry still
        apply — handing it over early would freeze the order in the
        executor's FIFO, letting a bulk burst that arrived first block
        an interactive request for its whole backlog.  ``flush`` and
        ``drain`` stay unthrottled (they block until resolution, so
        holding work back buys nothing).

        An open-loop producer (e.g. ``benchmarks/bench_slo.py``) calls
        this between arrivals so partial queues honour ``max_delay_ms``
        — and dead requests are swept — without a blocking ``flush``.
        """
        if self._closed:
            return 0
        capacity = getattr(self._executor, "workers", 1) or 1
        with self._lock:
            limit = max(0, capacity - self._dispatching)
        prepared = self._pop_and_prepare(None, ready_only=True,
                                         track=True, limit=limit)
        for future, queue_key, requests in prepared:
            self._launch(future, queue_key, requests)
        return len(prepared)

    def explain(self, image: np.ndarray, label: Optional[int], method: str,
                target_label: Optional[int] = None,
                ctx=None) -> SaliencyResult:
        """Synchronous single-request path (submit + resolve).

        Returns the :class:`~repro.explain.base.SaliencyResult` for
        ``image``/``label`` under ``method`` (optionally contrasted
        against ``target_label``; ``None`` is the model's own call);
        equivalent to ``submit(...).result()``, so it batches with
        whatever else is queued.  Raises ``ValueError`` as
        :meth:`submit` does, ``KeyError`` for an unknown method,
        :class:`TenantOverQuota` when ``ctx.tenant`` is over its
        slice, :class:`DeadlineExceeded` when ``ctx``'s deadline
        passes before compute, and whatever a failing
        ``explain_batch`` raised.
        """
        return self.submit(image, label, method, target_label,
                           ctx=ctx).result()

    def explain_batch(self, images: np.ndarray, labels: np.ndarray,
                      method: str,
                      target_labels: Optional[np.ndarray] = None,
                      ctx=None) -> List[SaliencyResult]:
        """Cache-aware batched path: only cache misses hit the models,
        and duplicate images inside the batch are computed once (their
        handles share one queued request).

        On a ``max_pending`` engine, ingestion runs through
        ``submit_async`` — the admission-controlled path — so a sweep
        over a huge sample set holds bounded work in memory (full
        micro-batches stream to the executor while later images are
        still being submitted).  Under ``policy="reject"`` an overload
        therefore raises :class:`EngineOverloaded` out of this call;
        already-submitted handles stay queued and resolvable.  Without
        ``max_pending`` the sweep uses the synchronous path, whose
        inline auto-flushes keep at most one full micro-batch queued
        per shape — async ingestion with no bound would instead pile
        every pending request copy into the executor's queue.
        """
        submit = (self.submit_async if self.max_pending is not None
                  else self.submit)
        # One spawn per element: priority/deadline/tenant/trace apply
        # to the whole sweep, stage stamps stay per-request.
        template = None if ctx is None else RequestContext.ensure(ctx)
        handles = [
            submit(images[i], int(labels[i]), method,
                   None if target_labels is None
                   else int(target_labels[i]),
                   ctx=None if template is None else template.spawn())
            for i in range(len(images))
        ]
        self.flush(method)
        return [h.result() for h in handles]
