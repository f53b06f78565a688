"""Micro-batch executors: where flushed batches actually run.

The engine hands each flushed micro-batch to an executor as a plain
callable.  :class:`SerialExecutor` runs it inline on the calling thread
— the deterministic default, zero overhead.  :class:`ThreadedExecutor`
runs batches on persistent worker threads: the conv/GEMM contractions
inside ``explain_batch`` are BLAS calls that release the GIL, so on
multi-core hosts independent micro-batches (different methods, or
different shape-queues of one method) overlap on real cores.
:class:`ProcessExecutor` runs the *compute* of each batch in a pool of
persistent worker **processes**, sidestepping the GIL for the
python-heavy explainer overhead (mask construction, ridge solves, tape
bookkeeping) that threads cannot parallelize.

All three expose the same two-method surface (``submit`` returning a
:class:`concurrent.futures.Future`, ``shutdown``), so the engine treats
them interchangeably.  The process pool additionally exposes
``run_batch`` — the remote-compute channel the engine duck-types for —
because the submitted callable itself (engine locks, cache inserts,
handle resolution) must keep running in the parent process.

The process pool moves ndarray payloads through per-worker
double-buffered shared-memory arenas (see :mod:`repro.serve.transport`)
while the pipe carries only compact headers — with two slots per worker
the dispatcher encodes batch N+1 while the worker computes batch N.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .transport import ArenaSlot, ShmArena, TransportStats
from .worker import (EngineSpec, WorkerBatchError, WorkerCrashed,
                     decode_shm_results, worker_main)


def default_worker_count(maximum: int = 8) -> int:
    """Worker-pool sizing when the caller does not choose: one worker
    per visible core, clamped to ``maximum`` (explainer batches are
    BLAS-heavy — past a handful of workers the memory bus, not the core
    count, is the limit) and floored at one."""
    return max(1, min(os.cpu_count() or 1, maximum))


class SerialExecutor:
    """Runs each batch inline on the caller's thread.

    ``submit`` returns an already-completed future, so engine code paths
    (dispatch, drain, error propagation) are identical across executors.
    """

    name = "serial"
    workers = 1

    def submit(self, fn: Callable, *args) -> "Future":
        """Run ``fn(*args)`` inline; returns an already-resolved
        future (result or exception — never pending)."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:       # noqa: BLE001 — future carries it
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to tear down; present for interface parity."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadedExecutor:
    """Persistent worker-thread pool for GIL-releasing batch work.

    Workers are started once and reused for every batch (no per-flush
    thread spawn).  Correctness under concurrency is guaranteed by the
    engine side: the autograd tape switch is thread-local,
    ``nn.frozen`` is reference-counted, and the engine serializes
    batches of the same method with a per-method lock (explainer objects
    are not audited for internal thread safety).

    ``workers=None`` (the default) sizes the pool from
    :func:`default_worker_count` — one thread per visible core, clamped
    — instead of a hardcoded constant that under-subscribes big hosts
    and over-subscribes small ones.
    """

    name = "threaded"

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="explain-worker")

    def submit(self, fn: Callable, *args) -> "Future":
        """Hand ``fn(*args)`` to the worker-thread pool; returns its
        pending future.  Never raises on a full pool — backpressure is
        the engine's admission layer, not the executor queue."""
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers.  ``wait=False`` is the fatal-error path
        (``close()`` after a drain that will never succeed): queued-but-
        unstarted futures are **cancelled**, not abandoned — otherwise a
        backlog behind a wedged batch would leave callers blocked on
        futures no thread will ever run."""
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "ThreadedExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        return f"ThreadedExecutor(workers={self.workers})"


#: Distinguishes arenas of executors that coexist in one parent process
#: (segment names embed pid + this sequence number).
_ARENA_SEQ = itertools.count()

#: Workers must *materialize* the spec (the point of spec replication),
#: not inherit the parent's heap; spawn also stays safe in thread-rich
#: parents where fork is not.
_START_METHOD = "spawn"
#: How long a worker may take to materialize its spec and report ready.
_STARTUP_TIMEOUT_S = 180.0
#: Double buffering: one slot computes while the other is encoded.
_SLOTS_PER_WORKER = 2
_INITIAL_ARENA_BYTES = 1 << 16


class _WorkerChannel:
    """One worker process, the parent's end of its message pipe, and
    the shared-memory arena its payloads travel through.

    ``inflight`` counts batches currently between send and release on
    this channel (bounded by the arena's slot count).  Replies for the
    (up to two) in-flight batches can interleave, so waiting dispatcher
    threads elect one **receiver** at a time (``receiving``): it pulls
    the next reply off the pipe, routes it into ``replies`` by the slot
    id every reply carries at index 1, and wakes the waiters on
    ``rcond``.  ``crash`` latches the first transport error so every
    concurrent waiter — not just the receiver that observed EOF —
    raises :class:`WorkerCrashed`.  ``counters`` is the worker's
    cumulative ``{batches, maps, plans}`` from its latest reply; the
    receiver stores it in pipe order, so it never goes backwards.
    """

    __slots__ = ("process", "conn", "arena", "dead", "reaped", "inflight",
                 "send_lock", "rcond", "replies", "receiving", "crash",
                 "counters")

    def __init__(self, process, conn, arena: ShmArena):
        self.process = process
        self.conn = conn
        self.arena = arena
        self.dead = False
        self.reaped = False
        self.inflight = 0
        self.send_lock = threading.Lock()
        self.rcond = threading.Condition()
        self.replies = {}
        self.receiving = False
        self.crash: Optional[BaseException] = None
        self.counters: dict = {}


class ProcessExecutor:
    """Persistent pool of worker **processes** for batch compute.

    Each worker is initialized exactly once: it materializes the
    engine's models from a picklable :class:`~repro.serve.worker.
    EngineSpec` at startup (never per-batch pickling of live modules)
    and then serves compact micro-batch headers.  Because every worker
    owns private model replicas in its own interpreter, there is no GIL
    to share and no per-method lock to hold: the python-heavy explainer
    overhead that caps :class:`ThreadedExecutor` at ~1.0x scales across
    cores.

    **Transport.**  Each channel owns a double-buffered
    :class:`~repro.serve.transport.ShmArena`: ``run_batch`` writes the
    image stack straight into a free slot's out segment (no pickle, no
    intermediate stack copy), sends a small header, and the worker
    writes the stacked saliency into the return segment.  Two slots per
    worker mean a second dispatcher thread can encode the next batch
    into the free slot while the worker computes — the dispatcher pool
    is sized ``workers * slots`` so that overlap actually gets a
    thread.  Arenas grow geometrically on oversized batches; a slot
    whose segments the worker reports stale is replaced and its batch
    resent once (see :mod:`repro.serve.worker` for the protocol); the
    parent owns every segment and unlinks them when a channel is reaped
    and at ``shutdown``, so neither a worker crash nor a clean exit
    leaves ``/dev/shm`` entries behind.

    The executor satisfies the engine's two-method contract (``submit``
    -> future, ``shutdown``): submitted callables run on a local
    dispatcher-thread pool (they carry the engine's locking / cache /
    handle bookkeeping, which must stay in the parent), and the engine
    routes the pure compute through :meth:`run_batch`.

    A worker that dies mid-batch (OOM kill, segfault, ``os._exit``)
    surfaces as :class:`~repro.serve.worker.WorkerCrashed` from its
    batch; the channel is retired (arena unlinked) and the pool
    shrinks.  The engine's failure isolation re-runs a multi-request
    batch as halves, which :meth:`_acquire` lands on surviving workers;
    a lone request resolves with the crash.  A pool with no survivors
    raises on every acquire — loudly, with the crash as the cause.
    """

    name = "process"

    def __init__(self, spec: EngineSpec, workers: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(spec, EngineSpec):
            raise TypeError(f"spec must be an EngineSpec, got {type(spec)}")
        self.spec = spec
        self.workers = workers
        self._stats = TransportStats()
        mp = multiprocessing.get_context(_START_METHOD)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._all: List[_WorkerChannel] = []
        self._live = 0
        self._closed = False
        seq = next(_ARENA_SEQ)
        try:
            for i in range(workers):
                parent_conn, child_conn = mp.Pipe()
                process = mp.Process(
                    target=worker_main, args=(child_conn, spec),
                    daemon=True, name="explain-process-worker")
                process.start()
                child_conn.close()
                # Segments are created lazily at the first encode, so
                # the arena costs nothing until a batch needs it.
                arena = ShmArena(f"rtx{os.getpid():x}-{seq}w{i}",
                                 slots=_SLOTS_PER_WORKER,
                                 initial_bytes=_INITIAL_ARENA_BYTES,
                                 stats=self._stats)
                self._all.append(_WorkerChannel(process, parent_conn,
                                                arena))
            # Eager handshake: every worker reports "ready" once its
            # spec materialized (models built/loaded), so a broken spec
            # fails the constructor with the remote traceback instead of
            # the first batch, and per-batch latency never includes a
            # cold model build.
            for channel in self._all:
                if not channel.conn.poll(_STARTUP_TIMEOUT_S):
                    raise WorkerCrashed(
                        f"worker pid={channel.process.pid} did not report "
                        f"ready within {_STARTUP_TIMEOUT_S}s")
                try:
                    message = channel.conn.recv()
                except EOFError as exc:
                    raise WorkerCrashed(
                        f"worker pid={channel.process.pid} died during "
                        "startup (under the 'spawn' start method the "
                        "parent's __main__ must be importable — guard "
                        "script entry points with if __name__ == "
                        "'__main__')") from exc
                if message[0] != "ready":
                    raise WorkerCrashed(
                        "worker failed to materialize its EngineSpec:\n"
                        + str(message[1]))
                channel.counters = message[2]
        except BaseException:
            self._terminate_all()
            raise
        self._live = len(self._all)
        # One dispatcher thread per slot, not per worker: with double
        # buffering, the thread encoding batch N+1 into a worker's free
        # slot is a *different* thread than the one blocked on batch N's
        # reply, so overlap needs the headroom.
        self._pool = ThreadPoolExecutor(
            max_workers=workers * _SLOTS_PER_WORKER,
            thread_name_prefix="process-dispatch")

    # -- channel pool ---------------------------------------------------
    @property
    def alive_workers(self) -> int:
        """Channels still backed by a live worker process."""
        with self._lock:
            return self._live

    def _acquire(self) -> Tuple[_WorkerChannel, ArenaSlot]:
        """Claim a (channel, slot) pair for one batch.  Prefers the
        least-loaded live channel, so an idle worker always wins over
        double-buffering a busy one; a second batch lands on a busy
        channel (counted as an overlapped send) only when every worker
        is already computing."""
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("ProcessExecutor is shut down")
                if self._live == 0:
                    raise WorkerCrashed(
                        "process pool has no live workers left")
                best = None
                for channel in self._all:
                    if (channel.dead
                            or channel.inflight >= _SLOTS_PER_WORKER):
                        continue
                    if best is None or channel.inflight < best.inflight:
                        best = channel
                if best is not None:
                    slot = best.arena.acquire()
                    self._stats.count_send(best.inflight > 0)
                    best.inflight += 1
                    return best, slot
                self._cond.wait(timeout=0.1)

    def _release(self, channel: _WorkerChannel, slot: ArenaSlot) -> None:
        with self._cond:
            channel.arena.release(slot)
            channel.inflight -= 1
            self._maybe_reap(channel)
            self._cond.notify_all()

    def _mark_dead(self, channel: _WorkerChannel,
                   cause: Optional[BaseException] = None) -> None:
        """Retire a channel exactly once (concurrent observers of the
        same death both call this; only the first decrements)."""
        with self._cond:
            if not channel.dead:
                channel.dead = True
                self._live -= 1
            self._maybe_reap(channel)
            self._cond.notify_all()
        with channel.rcond:
            if channel.crash is None:
                channel.crash = cause or EOFError("worker channel died")
            channel.rcond.notify_all()

    def _maybe_reap(self, channel: _WorkerChannel) -> None:
        """Under ``self._cond``: tear the channel down once it is dead
        *and* no batch still holds it (a sibling dispatcher may be
        mid-crash on the other slot)."""
        if channel.dead and not channel.reaped and channel.inflight == 0:
            channel.reaped = True
            try:
                channel.conn.close()
            except OSError:
                pass
            channel.process.join(timeout=1.0)
            if channel.process.is_alive():
                channel.process.terminate()
                channel.process.join(timeout=1.0)
            channel.arena.close()           # parent-owned unlink

    # -- reply routing ---------------------------------------------------
    def _crashed(self, channel: _WorkerChannel) -> WorkerCrashed:
        return WorkerCrashed(
            f"worker pid={channel.process.pid} died mid-batch "
            f"(exitcode={channel.process.exitcode})")

    def _send(self, channel: _WorkerChannel, message) -> None:
        try:
            with channel.send_lock:
                channel.conn.send(message)
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._mark_dead(channel, exc)
            raise self._crashed(channel) from exc

    def _wait_reply(self, channel: _WorkerChannel, slot_index: int):
        """Wait for this slot's reply on a channel that may have two
        batches in flight.  Exactly one waiter at a time is the
        *receiver*: it recvs the next reply (outside the lock), stores
        the worker counters it carries, files it under the slot id at
        reply index 1, and wakes everyone; waiters whose reply arrived
        pop it and return.  A recv failure latches
        ``channel.crash`` so every in-flight batch on the channel raises
        :class:`WorkerCrashed`, not just the receiving thread."""
        while True:
            with channel.rcond:
                if slot_index in channel.replies:
                    return channel.replies.pop(slot_index)
                if channel.crash is not None:
                    raise self._crashed(channel) from channel.crash
                if channel.receiving:
                    channel.rcond.wait(timeout=0.1)
                    continue
                channel.receiving = True
            try:
                reply = channel.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                with channel.rcond:
                    channel.receiving = False
                self._mark_dead(channel, exc)
                raise self._crashed(channel) from exc
            with channel.rcond:
                channel.receiving = False
                if reply[0] != "shm_stale":
                    channel.counters = reply[3]
                channel.replies[reply[1]] = reply
                channel.rcond.notify_all()

    def _send_batch(self, channel: _WorkerChannel, slot: ArenaSlot,
                    method: str, images, labels: np.ndarray,
                    targets: Optional[np.ndarray]):
        """Write the batch into the slot, send its header, and return
        the worker's reply."""
        out_desc, ret_desc = channel.arena.encode(slot, images)
        self._send(channel, ("shm_batch", slot.index, method, out_desc,
                             ret_desc, labels, targets))
        return self._wait_reply(channel, slot.index)

    # -- the remote-compute channel the engine duck-types for ----------
    def run_batch(self, method: str, images, labels: np.ndarray,
                  targets: Optional[np.ndarray],
                  ctxs: Optional[list] = None) -> Tuple[list, float]:
        """Run one micro-batch on a pool slot; returns ``(results,
        batch_ms)`` with ``batch_ms`` measured inside the worker (pure
        compute — pipe and queueing time never bill as cost).
        ``images`` is a stacked float32 array or a uniform-shape list of
        per-request images, written either way straight into the arena.
        The worker's ``(pid, recv_at, done_at)`` stamps ride every
        reply and land on each of ``ctxs`` (per-request
        :class:`~repro.serve.context.RequestContext`) before this
        returns.  A batch that raised remotely raises
        :class:`WorkerBatchError` carrying the remote traceback; a
        worker that died mid-batch raises :class:`WorkerCrashed` and
        retires its channel."""
        labels = np.asarray(labels, dtype=np.int64)
        if targets is not None:
            targets = np.asarray(targets, dtype=np.int64)
        channel, slot = self._acquire()
        try:
            reply = self._send_batch(channel, slot, method, images, labels,
                                     targets)
            if reply[0] == "shm_stale":
                # The worker could not attach the slot's segments (they
                # were removed from /dev/shm): replace them and resend.
                self._stats.count_fallback()
                channel.arena.retire(slot)
                reply = self._send_batch(channel, slot, method, images,
                                         labels, targets)
                if reply[0] == "shm_stale":
                    raise WorkerBatchError(
                        method, "FileNotFoundError",
                        "the worker cannot attach freshly created "
                        "shared-memory segments either; the process "
                        "pool needs a writable /dev/shm", "")
            # The receiver already stored the counters (reply[3]).
            kind, _slot, (pid, recv_at, done_at), _counters, *rest = reply
            for ctx in ctxs or ():
                ctx.worker_pid = pid
                ctx.worker_recv_at = recv_at
                ctx.worker_done_at = done_at
            if kind == "error":
                raise WorkerBatchError(*rest)
            batch_ms, ret_shape, out_labels, out_targets, metas = rest
            view = channel.arena.ret_view(slot, ret_shape)
            try:
                results = decode_shm_results(view, out_labels, out_targets,
                                             metas)
            finally:
                del view                    # release the segment buffer
            self._stats.count_shm_ret(
                int(np.prod(ret_shape, dtype=np.int64)) * 4, len(results))
            return results, float(batch_ms)
        finally:
            self._release(channel, slot)

    def transport_stats(self) -> dict:
        """Snapshot of the transport counters (see
        :meth:`repro.serve.transport.TransportStats.snapshot`), plus the
        live arena footprint in bytes."""
        with self._lock:
            arena_bytes = sum(channel.arena.live_bytes()
                              for channel in self._all
                              if not channel.reaped)
        return self._stats.snapshot(arena_bytes=arena_bytes)

    def worker_stats(self) -> List[dict]:
        """Per-live-worker ``{pid, batches, maps, plans}`` counters, as
        of each worker's latest reply (the dedup benchmark sums ``maps``
        to verify exactly-once compute across processes).  Sends
        nothing and never waits: a batch still in flight is counted
        once its reply arrives."""
        with self._lock:
            channels = [channel for channel in self._all if not channel.dead]
        return [{"pid": channel.process.pid, **channel.counters}
                for channel in channels]

    # -- executor contract ---------------------------------------------
    def submit(self, fn: Callable, *args) -> "Future":
        """Thread-pool passthrough for engine-side callables (cache
        fan-out, bookkeeping).  Batch *compute* goes through
        :meth:`run_batch` on a worker process instead."""
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatchers and workers; idempotent, leaves no orphans
        and no shared-memory segments.

        Live workers get a ``stop`` message and a bounded ``join``;
        anything still alive after that (wedged mid-batch on
        ``wait=False``) is terminated.  Every pipe is closed and every
        arena segment unlinked — the parent is the sole owner, so after
        this returns ``/dev/shm`` holds nothing of ours."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        self._terminate_all()
        with self._cond:
            self._live = 0

    def _terminate_all(self) -> None:
        for channel in self._all:
            try:
                if not channel.dead and channel.process.is_alive():
                    with channel.send_lock:
                        channel.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for channel in self._all:
            channel.process.join(timeout=5.0)
            if channel.process.is_alive():
                channel.process.terminate()
                channel.process.join(timeout=1.0)
                if channel.process.is_alive():
                    channel.process.kill()
                    channel.process.join(timeout=1.0)
            try:
                channel.conn.close()
            except OSError:
                pass
            channel.arena.close()           # idempotent parent-side unlink

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def __repr__(self) -> str:
        return (f"ProcessExecutor(workers={self.workers}, "
                f"alive={self.alive_workers})")


def make_executor(executor: Union[None, str, SerialExecutor,
                                  ThreadedExecutor, "ProcessExecutor"],
                  spec: Optional[EngineSpec] = None,
                  workers: Optional[int] = None):
    """Resolve the engine's ``executor`` argument.

    ``None``/``"serial"`` -> a :class:`SerialExecutor`; ``"threaded"``
    -> a :class:`ThreadedExecutor` (``workers=None`` sizes from the
    visible core count); ``"process"`` -> a :class:`ProcessExecutor`
    (requires ``spec`` — the worker-side model recipe;
    :meth:`repro.eval.pipeline.ExperimentContext.engine` derives one
    automatically).  An object is passed through (it just needs
    ``submit``/``shutdown``/``name``).
    """
    if executor is None or executor == "serial":
        return SerialExecutor()
    if executor == "threaded":
        return ThreadedExecutor(workers=workers)
    if executor == "process":
        if spec is None:
            raise ValueError(
                "executor='process' needs an EngineSpec describing how "
                "workers rebuild the models: pass ProcessExecutor(spec) "
                "directly, or use ExperimentContext.engine("
                "executor='process'), which derives the spec itself")
        return ProcessExecutor(spec, workers=workers or 2)
    if isinstance(executor, str):
        raise ValueError(
            f"unknown executor {executor!r}; use 'serial', 'threaded', "
            "'process', or an executor instance")
    return executor
