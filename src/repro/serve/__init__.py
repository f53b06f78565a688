"""``repro.serve`` — the sharded, deduplicating saliency-serving runtime.

The package splits the serving layer into four pieces:

* :mod:`~repro.serve.cache` — :class:`ShardedSaliencyCache`: N
  independent thread-safe LRU shards keyed on a stable hash of the
  image digest; per-shard stats aggregate in ``stats()``.  Each insert
  records the measured per-map compute cost, which weights the hit
  rate.
* :mod:`~repro.serve.scheduler` — :class:`MicroBatchScheduler`: pending
  requests queue per ``(method, image_shape, priority_class)`` (one
  engine serves heterogeneous datasets, and an interactive request
  never waits inside a bulk micro-batch) while identical ``(digest,
  method, label, target)`` requests dedup onto one computation —
  across classes — whose result fans out to every attached handle.
  Ready queues flush in effective-rank order (class rank softened by
  queue wait, so floods delay but never starve a class); a queue
  flushes at ``max_batch`` unique requests or on its deadline.
* :mod:`~repro.serve.context` — :class:`RequestContext`: the
  per-request SLO envelope (priority class, optional absolute
  deadline, tenant id, trace id) and stage-timestamp carrier every
  entry point accepts as ``ctx=``; a deadline that passes while the
  request is queued resolves it as :class:`DeadlineExceeded` without
  billing compute.
* :mod:`~repro.serve.executor` — :class:`SerialExecutor` (inline,
  deterministic), :class:`ThreadedExecutor` (persistent worker threads;
  the BLAS GEMMs inside ``explain_batch`` release the GIL, so
  independent micro-batches overlap on multi-core hosts), and
  :class:`ProcessExecutor` (persistent worker *processes*: each one
  materializes the engine's models once from a picklable
  :class:`~repro.serve.worker.EngineSpec` and then serves compact batch
  headers, sidestepping the GIL for the python-heavy explainer
  overhead threads cannot parallelize).
* :mod:`~repro.serve.worker` — the process-worker side: the
  :class:`EngineSpec` recipe, the pool's message protocol, and the
  worker loop.
* :mod:`~repro.serve.transport` — the zero-copy payload path under the
  process pool: per-worker double-buffered shared-memory arenas
  (:class:`ShmArena` parent-side, :class:`ArenaClient` worker-side)
  carry the ndarray payloads while the pipe carries compact headers,
  letting the dispatcher encode the next batch while the worker
  computes the current one.  Arenas grow geometrically, a slot whose
  segments went stale is replaced and its batch resent once, and the
  parent owns every ``/dev/shm`` segment (crashes leak nothing).
* :mod:`~repro.serve.plans` — :class:`PlanCache`: compiled execution
  plans for the shape-repetitive hot path.  The first batch of a
  plan-eligible method on a new ``(plan_key, batch_shape, dtype)`` key
  is traced through :mod:`repro.nn.plan` into a buffer-arena plan; every
  later batch of that key **replays** tape-free (no Tensor objects, no
  closures, ``out=`` into preallocated buffers).  ``plan_key`` names the
  traced core, so FullGrad, Simple FullGrad and Smooth FullGrad share
  one plan.  A plan's arena is its persistent buffers plus one
  step-scratch region that every step's temporaries share, and the
  trace is freed once the plan compiles.  Replays of one plan run one
  at a time (a per-key lock).  Plans invalidate on
  ``nn.set_default_dtype`` (all entries dropped) and revalidate their
  compile-time ``nn.frozen`` fingerprint on each lookup (a persisting
  frozen-set change falls back to the tape until it reverts).
  Ineligible methods (LIME, occlusion, StyLEx, ICAM, CAE — data-
  dependent control flow) and any shape/dtype mismatch run the tape,
  counted in ``stats()["plans"]["fallbacks"]``.  The in-process engine
  (serial/threaded executors) holds one cache; **process workers
  compile per-replica** — each worker owns a private ``PlanCache``
  because buffer arenas cannot cross process boundaries, and its
  counters ride every batch reply into the engine's ``stats()``.
* :mod:`~repro.serve.store` — :class:`SaliencyStore`: the persistent
  second cache tier.  Content-addressed on the same cache key,
  float16-quantized records in append-only segment files, a journaled
  index rebuilt by CRC-checked segment scan on corruption, write-behind
  inserts (the hot path never blocks on disk), mmap reads, per-entry
  compute cost persisted across restarts, and whole-segment GDSF
  compaction for capacity.  One opener per directory:
  the engine, which probes it before any work reaches an executor.
* :mod:`~repro.serve.engine` — the :class:`ExplainEngine` façade tying
  them together behind ``submit`` / ``submit_async`` / ``flush`` /
  ``drain`` / ``explain`` / ``explain_batch``.  Async ingestion is
  admission-controlled: ``max_pending`` bounds unique unresolved
  requests, and an over-limit ``submit_async`` blocks for room
  (``policy="block"``) or raises :class:`EngineOverloaded`
  (``policy="reject"``), while ``tenant_quota`` / ``tenant_quotas``
  bound each tenant's slice of that capacity (reject-only:
  :class:`TenantOverQuota` carries a retry-after hint).  ``store=``
  adds the persistent tier: misses probe it before queueing compute,
  results write behind to it, and an engine reopened on the same
  directory starts warm.
* :mod:`~repro.serve.http` — the network front end: a stdlib
  HTTP/JSON daemon over the engine (sync and ticket-based async
  explain, batch, stats, health; API key -> tenant; engine exceptions
  mapped onto 4xx/5xx).  Import it explicitly
  (``from repro.serve.http import serve``) — the in-process runtime
  never pays for it; ``tools/serve_daemon.py`` is the CLI.

Quickstart
----------
::

    from repro.serve import ExplainEngine

    engine = ExplainEngine(classifier, suite.explainers,
                           max_batch=32,                # flush size
                           cache_size=512, cache_shards=4,
                           max_pending=64,              # backpressure
                           executor="threaded")
    handles = [engine.submit_async(img, int(lab), "gradcam")
               for img, lab in zip(images, labels)]   # bounded, non-blocking
    engine.drain()                                    # resolve everything
    maps = [h.result().saliency for h in handles]
    print(engine.stats())   # hits/misses/evictions per shard, batches,
                            # dedup fan-outs, admission state
    engine.close()          # drains first: no handle is ever stranded

Methods with ``needs_gradients = False`` run under the (thread-local)
``nn.no_grad()``; every image is digested exactly once per request and
the digest is stamped on the result's ``image_digest`` field.
"""

from .cache import (CacheKey, SaliencyCache, ShardedSaliencyCache,
                    image_digest, request_key)
from .context import (PRIORITIES, PRIORITY_RANK, DeadlineExceeded,
                      RequestContext)
from .engine import (ADMISSION_POLICIES, EngineOverloaded, ExplainEngine,
                     PendingExplain, TenantOverQuota)
from .executor import (ProcessExecutor, SerialExecutor, ThreadedExecutor,
                       default_worker_count, make_executor)
from .plans import PlanCache
from .scheduler import ExplainRequest, MicroBatchScheduler, QueueKey
from .store import SaliencyStore, StoreClosed
from .transport import ArenaClient, ShmArena, TransportStats
from .worker import (EngineSpec, WorkerBatchError, WorkerCrashed,
                     demo_spec)

__all__ = [
    "ExplainEngine", "PendingExplain", "EngineOverloaded",
    "TenantOverQuota",
    "RequestContext", "DeadlineExceeded", "PRIORITIES", "PRIORITY_RANK",
    "ADMISSION_POLICIES",
    "SaliencyCache", "ShardedSaliencyCache", "CacheKey",
    "image_digest", "request_key",
    "MicroBatchScheduler", "ExplainRequest", "QueueKey",
    "SerialExecutor", "ThreadedExecutor", "ProcessExecutor",
    "default_worker_count", "make_executor", "PlanCache",
    "SaliencyStore", "StoreClosed",
    "ShmArena", "ArenaClient", "TransportStats",
    "EngineSpec", "WorkerBatchError", "WorkerCrashed", "demo_spec",
]
