"""Micro-batch scheduling: per-``(method, shape, class)`` queues with
dedup, SLO-aware flush ordering, and deadline expiry.

The scheduler owns the pending-request state of the engine runtime:

* **Queue keying** — requests queue per ``(method, image_shape,
  priority_class)``, so one engine serves heterogeneous datasets: a
  32x32 brain image and a 16x16 OCT image of the same method occupy
  independent queues that batch and flush independently (``np.stack``
  never sees mixed shapes), and an interactive request never waits
  inside a bulk micro-batch.
* **Cross-request dedup** — a submit whose ``(digest, method, label,
  target)`` key is already queued *or in flight* (popped into a running
  batch) attaches its handle to the existing request instead of
  enqueueing a second compute; when the batch completes, the one result
  fans out to every attached handle.  Dedup spans priority classes
  (the key maps are per ``(method, shape)``, class-free): a bulk sweep
  and an interactive click on the same image cost one explainer pass.
  When the attaching context is *more urgent* than the queued request,
  the still-queued request is **promoted** into the higher-priority
  queue (position by original ``enqueued_at``), so dedup can only ever
  improve a handle's latency.
* **Priority flush ordering with starvation aging** — pop order across
  ready queues is by *effective rank*: the class rank
  (``interactive=0 < normal=1 < bulk=2``) minus ``queue_wait_ms /
  AGING_MS``.  A bulk queue that has waited ``2 * AGING_MS`` therefore
  outranks a fresh interactive queue — a saturating interactive flood
  can delay bulk work by at most ~``rank_gap * AGING_MS`` of extra
  wait, never starve it.
* **Deadline expiry** — every pop scans the queues it touches and
  prunes requests whose absolute deadline already passed, returning
  them to the engine *separately* from the batches; they never reach an
  executor and never bill compute.

The scheduler is *externally synchronized*: the engine calls every
mutating method under its own lock.  Keeping the lock out of this class
lets the engine compose enqueue + dispatch decisions atomically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cache import CacheKey
from .context import PRIORITY_RANK, RequestContext

#: Queue identity: one micro-batch queue per (method, image shape,
#: priority class).
QueueKey = Tuple[str, Tuple[int, ...], str]

#: Class-free queue family: dedup maps key on (method, shape) so
#: priority classes share them.
BaseKey = Tuple[str, Tuple[int, ...]]

#: The starvation bound: queue wait (ms) that promotes a queue by one
#: priority class in the pop order.
AGING_MS = 1000.0


def base_key(queue_key) -> BaseKey:
    """The class-free ``(method, shape)`` family of a queue key (also
    accepts a bare 2-tuple, for callers that never knew about classes)."""
    return (queue_key[0], queue_key[1])


@dataclass(eq=False)          # identity semantics (fields hold ndarrays)
class ExplainRequest:
    """One unique queued computation, fanning out to >= 1 handles."""

    image: np.ndarray
    label: Optional[int]            # None: resolved when the batch runs
    target_label: Optional[int]
    key: CacheKey
    queue_key: QueueKey
    ctx: RequestContext = field(default_factory=RequestContext)
    handles: List = field(default_factory=list)
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Set while a dispatched batch containing this request is running.
    future: Optional[object] = None
    #: True when this request occupies an admission slot (it was
    #: ingested through the bounded async path); sync submits are
    #: self-limiting and never consume the ``max_pending`` budget.
    counted: bool = False
    #: Tenant whose per-tenant quota slice this request occupies, or
    #: ``None`` (anonymous, or no quota configured for the tenant).
    #: Unlike ``counted`` this charges on *both* the sync and async
    #: ingestion paths — a tenant's slice is a fairness bound on unique
    #: unresolved work, however it arrived.
    slot_tenant: Optional[str] = None


class MicroBatchScheduler:
    """Deduplicating per-``(method, shape, class)`` request queues.

    ``max_batch`` counts *unique* requests: attaching a duplicate handle
    never grows a micro-batch.  ``max_delay_ms`` bounds how long the
    oldest queued request of a queue may wait before :meth:`enqueue`
    reports the queue ready (``None`` disables the deadline).

    **Priority ordering** — :meth:`pop_ready`/:meth:`pop_batches` visit
    queues in effective-rank order: class rank minus ``wait_ms /
    AGING_MS`` of the queue's oldest request, so ``AGING_MS`` is the
    extra wait a lower class can be dealt per rank step.
    """

    def __init__(self, max_batch: int = 16,
                 max_delay_ms: Optional[float] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self._queues: Dict[QueueKey, List[ExplainRequest]] = {}
        self._by_key: Dict[BaseKey, Dict[CacheKey, ExplainRequest]] = {}
        #: key -> request for batches popped but not yet completed, so
        #: duplicates arriving while their twin computes still dedup.
        self._inflight: Dict[BaseKey, Dict[CacheKey, ExplainRequest]] = {}
        self.dedup_hits = 0
        #: Dedup attaches that moved a queued request to a more urgent
        #: class.
        self.promotions = 0

    # ------------------------------------------------------------------
    def _deadline_hit(self, queue: List[ExplainRequest]) -> bool:
        return (self.max_delay_ms is not None and bool(queue)
                and (time.monotonic() - queue[0].enqueued_at) * 1000.0
                >= self.max_delay_ms)

    def _ready(self, queue: List[ExplainRequest]) -> bool:
        return len(queue) >= self.max_batch or self._deadline_hit(queue)

    # ------------------------------------------------------------------
    def enqueue(self, method: str, image: np.ndarray, label: Optional[int],
                target_label: Optional[int], key: CacheKey,
                handle, ctx: Optional[RequestContext] = None
                ) -> Tuple[ExplainRequest, bool, bool]:
        """Queue (or dedup onto) a request; returns
        ``(request, deduped, queue_ready)``.

        A *new* request owns a private copy of ``image`` (the caller
        may reuse its buffer before the batch flushes, and ``key`` was
        digested from the bytes as they are now); a deduped submit
        attaches its handle without paying the copy.  Dedup covers both
        still-queued requests and **in-flight** ones (popped into a
        running batch but not yet completed), so duplicate traffic
        never recomputes even when its twin is already executing.

        Dedup merges SLO envelopes conservatively: the shared request's
        deadline becomes the *loosest* of the attached handles (``None``
        wins — an undeadlined handle must get its result), and a more
        urgent attaching class promotes a still-queued request into the
        higher-priority queue.
        """
        ctx = RequestContext.ensure(ctx)
        family = base_key((method, tuple(image.shape)))
        bucket = self._by_key.setdefault(family, {})
        request = self.lookup(family, key)
        if request is not None:
            request.handles.append(handle)
            self.dedup_hits += 1
            self._merge_ctx(request, ctx)
            return request, True, self._ready(
                self._queues.get(request.queue_key, []))
        queue_key: QueueKey = (method, tuple(image.shape), ctx.priority)
        queue = self._queues.setdefault(queue_key, [])
        request = ExplainRequest(np.array(image, copy=True), label,
                                 target_label, key, queue_key,
                                 ctx=ctx, handles=[handle])
        queue.append(request)
        bucket[key] = request
        return request, False, self._ready(queue)

    def _merge_ctx(self, request: ExplainRequest,
                   ctx: RequestContext) -> None:
        """Fold an attaching handle's SLO envelope into the shared
        request: loosest deadline wins; a more urgent class promotes a
        still-queued request into its queue (in-flight requests keep
        their class — the batch already dispatched)."""
        rctx = request.ctx
        if rctx.deadline is not None:
            rctx.deadline = (None if ctx.deadline is None
                             else max(rctx.deadline, ctx.deadline))
        if PRIORITY_RANK[ctx.priority] >= PRIORITY_RANK[rctx.priority]:
            return
        old_key = request.queue_key
        queue = self._queues.get(old_key)
        if queue is None or request not in queue:
            return                        # in flight: too late to move
        queue.remove(request)
        rctx.priority = ctx.priority
        new_key: QueueKey = (old_key[0], old_key[1], ctx.priority)
        request.queue_key = new_key
        target = self._queues.setdefault(new_key, [])
        idx = len(target)
        while idx > 0 and target[idx - 1].enqueued_at > request.enqueued_at:
            idx -= 1                      # keep FIFO by original arrival
        target.insert(idx, request)
        self.promotions += 1

    def lookup(self, queue_key, key: CacheKey
               ) -> Optional[ExplainRequest]:
        """The queued-or-in-flight request a submit of ``key`` would
        dedup onto, or ``None`` (the admission controller probes this
        before deciding whether a submit adds unique work).  Accepts a
        full queue key or a bare ``(method, shape)`` family."""
        family = base_key(queue_key)
        request = self._by_key.get(family, {}).get(key)
        if request is None:
            request = self._inflight.get(family, {}).get(key)
        return request

    # ------------------------------------------------------------------
    def _pop_chunk(self, queue_key: QueueKey) -> List[ExplainRequest]:
        queue = self._queues[queue_key]
        chunk = queue[:self.max_batch]
        del queue[:len(chunk)]
        family = base_key(queue_key)
        bucket = self._by_key[family]
        inflight = self._inflight.setdefault(family, {})
        for request in chunk:
            bucket.pop(request.key, None)
            inflight[request.key] = request
        return chunk

    def mark_complete(self, requests: List[ExplainRequest]) -> None:
        """Retire completed (or failed) requests from the in-flight
        dedup map.

        Must be called in the same critical section that resolves the
        requests' handles, so a duplicate submit either attaches before
        resolution (and is resolved with the batch, result or error) or
        arrives after the key left the map (and re-probes the cache, or
        recomputes: a failure is never cached).
        """
        for request in requests:
            self._inflight.get(base_key(request.queue_key), {}).pop(
                request.key, None)

    def _prune_expired(self, queue_key: QueueKey,
                       now: float) -> List[ExplainRequest]:
        """Drop queued requests whose deadline passed; they never reach
        an executor.  Returns them for the engine to resolve as
        :class:`~repro.serve.context.DeadlineExceeded`."""
        queue = self._queues.get(queue_key)
        if not queue:
            return []
        expired = [r for r in queue if r.ctx.expired(now)]
        if not expired:
            return []
        queue[:] = [r for r in queue if not r.ctx.expired(now)]
        bucket = self._by_key.get(base_key(queue_key), {})
        for request in expired:
            bucket.pop(request.key, None)
        return expired

    def _pop_order(self, keys: List[QueueKey],
                   now: float) -> List[QueueKey]:
        """Visit order for a pop pass: effective rank (class rank minus
        ``wait / AGING_MS``), oldest first within a rank."""

        def effective(queue_key: QueueKey):
            queue = self._queues.get(queue_key)
            if not queue:
                return (float("inf"), float("inf"))
            oldest = queue[0].enqueued_at
            rank = float(PRIORITY_RANK.get(queue_key[2], 1))
            rank -= (now - oldest) * 1000.0 / AGING_MS
            return (rank, oldest)

        return sorted(keys, key=effective)

    def pop_batches(self, method: Optional[str] = None
                    ) -> Tuple[List[Tuple[QueueKey, List[ExplainRequest]]],
                               List[ExplainRequest]]:
        """Drain every pending request (for one method or all) into
        micro-batches of at most ``max_batch`` unique requests.
        Returns ``(batches, expired)``: batches in priority order, and
        the deadline-expired requests pruned during the pass."""
        now = time.monotonic()
        keys = [qk for qk in list(self._queues)
                if method is None or qk[0] == method]
        expired: List[ExplainRequest] = []
        for queue_key in keys:
            expired.extend(self._prune_expired(queue_key, now))
        batches = []
        for queue_key in self._pop_order(keys, now):
            while self._queues[queue_key]:
                batches.append((queue_key, self._pop_chunk(queue_key)))
        return batches, expired

    def pop_ready(self, method: Optional[str] = None,
                  limit: Optional[int] = None
                  ) -> Tuple[List[Tuple[QueueKey, List[ExplainRequest]]],
                             List[ExplainRequest]]:
        """Pop only the queues that hit their batch limit or the flush
        deadline, leaving partial queues to keep accumulating (async
        ingestion).  Returns ``(batches, expired)`` as
        :meth:`pop_batches` does — expiry is swept over every scanned
        queue even when none is ready, so a periodic ``engine.kick()``
        bounds how long a dead request can linger.

        ``limit`` caps the number of batches popped (still in priority
        order; pruning is never capped).  ``engine.kick()`` uses it to
        dispatch no more batches than the executor has idle capacity
        for, so the excess backlog stays *here* — where class order,
        aging, and deadline expiry still apply — instead of queueing
        FIFO inside the executor where an interactive batch can no
        longer overtake bulk."""
        now = time.monotonic()
        keys = [qk for qk in list(self._queues)
                if method is None or qk[0] == method]
        expired: List[ExplainRequest] = []
        for queue_key in keys:
            expired.extend(self._prune_expired(queue_key, now))
        batches: List[Tuple[QueueKey, List[ExplainRequest]]] = []
        for queue_key in self._pop_order(keys, now):
            while self._ready(self._queues[queue_key]):
                if limit is not None and len(batches) >= limit:
                    return batches, expired
                batches.append((queue_key, self._pop_chunk(queue_key)))
        return batches, expired

    # ------------------------------------------------------------------
    def pending_count(self, method: Optional[str] = None) -> int:
        """Unique queued computations (deduped handles count once)."""
        return sum(len(q) for key, q in self._queues.items()
                   if method is None or key[0] == method)

    def pending_handles(self, method: Optional[str] = None) -> int:
        """Unresolved handles attached to queued **or in-flight**
        requests.

        Requests popped into a running batch stay in the in-flight dedup
        map until :meth:`mark_complete` retires them in the same
        critical section that resolves their handles — so every handle
        is counted here exactly until the moment it is done, and
        dashboards never watch handles vanish mid-flight.
        """
        queued = sum(len(r.handles) for key, q in self._queues.items()
                     if method is None or key[0] == method for r in q)
        inflight = sum(len(r.handles)
                       for key, bucket in self._inflight.items()
                       if method is None or key[0] == method
                       for r in bucket.values())
        return queued + inflight

    def queue_stats(self) -> Dict[str, Dict[str, float]]:
        """Operator-facing pressure snapshot: per-queue depth, attached
        handles and age of the oldest request, keyed
        ``"method@HxW#class"``.  Empty queues are elided — depth 0
        carries no pressure."""
        now = time.monotonic()
        out: Dict[str, Dict[str, float]] = {}
        for queue_key, queue in sorted(self._queues.items()):
            if not queue:
                continue
            method, shape, cls = queue_key
            name = f"{method}@{'x'.join(str(d) for d in shape)}#{cls}"
            out[name] = {
                "depth": len(queue),
                "handles": sum(len(r.handles) for r in queue),
                "oldest_ms": round(
                    (now - queue[0].enqueued_at) * 1000.0, 3),
            }
        return out
