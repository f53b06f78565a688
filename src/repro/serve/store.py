"""Persistent content-addressed saliency store: the serving cache's
disk tier.

The in-memory :class:`~repro.serve.cache.ShardedSaliencyCache` dies
with the process, so every restart or deploy starts cold and re-pays
the full explainer cost.  :class:`SaliencyStore` keeps the tier-1
contract warm across process lifetimes:

* **Content-addressed** — keyed on the same ``(image_digest, method,
  label or None, target)`` :data:`~repro.serve.cache.CacheKey` the
  memory tier uses, so an entry written by one run is a hit for any
  later run that requests the same bytes.
* **Append-only segments** — values are ``.npz``-framed records
  (float16-quantized saliency + meta arrays, JSON header carrying the
  key and GDSF cost) appended to fixed-size segment files
  (``seg-NNNNNNNN.seg``).  Nothing is ever updated in place: a re-put
  of a key appends a new record and the index forgets the old one.
* **Compact index, journaled** — lookups go through an in-memory dict
  ``key -> (segment, offset, length, cost, size, clock)``; every insert
  appends one JSON line to ``index.jsonl``.  On open, the journal is
  replayed and *validated* against the segment files; a missing,
  unparseable, or inconsistent journal (a torn write, a crashed
  flush) triggers a full segment **scan rebuild** that CRC-checks each
  record and drops only the corrupt tail — everything before a torn
  record survives with its cost metadata intact.
* **Write-behind** — :meth:`put` enqueues to a bounded, key-coalescing
  queue and returns immediately; a flusher thread batches records to
  the head segment with one fsync per drained round.  The serving hot
  path never blocks on disk; an overflowing queue drops its oldest
  pending entry (counted) rather than stalling the engine.
* **mmap reads** — :meth:`get` slices the record out of a per-segment
  ``mmap`` and materializes fresh float32 arrays (copy-on-read,
  frozen like tier-1 hits), so concurrent readers share page cache,
  not locks.
* **Costs survive restarts** — each record persists the per-map
  compute cost the runtime measured; it orders compaction below, and a
  tier-2 hit re-enters the memory tier with its original cost, so the
  weighted hit rate keeps counting what a later hit avoided.
* **Whole-segment compaction** — when live segment bytes exceed
  ``capacity_bytes``, the *coldest* sealed segment (lowest summed GDSF
  priority ``clock + cost/size`` over its live records) is compacted:
  live records worth keeping are rewritten (raw byte copy) to the head
  segment in priority order until the budget runs out, the rest are
  evicted (the clock ratchets, aging stale entries out), and the
  victim file is deleted.
* **Single writer** — a ``LOCK`` file (pid-stamped, stale-safe)
  enforces one opener per directory: the engine, which probes the
  store before anything reaches an executor, so process-pool workers
  never touch it.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import STORE_CAPACITY_BYTES, STORE_SEGMENT_BYTES
from ..explain.base import SaliencyResult
from .cache import CacheKey, _freeze_result

__all__ = ["SaliencyStore", "StoreClosed"]

#: Record framing: MAGIC | header_len u32 | payload_len u32 | header
#: JSON | payload (.npz bytes) | crc32 u32 over header+payload.
_MAGIC = b"SAL1"
_PREFIX = struct.Struct("<4sII")
_CRC = struct.Struct("<I")

_JOURNAL = "index.jsonl"
_LOCKFILE = "LOCK"
_SEG_FMT = "seg-{:08d}.seg"


class StoreClosed(RuntimeError):
    """Raised by operations on a closed :class:`SaliencyStore`."""


@dataclass
class _Entry:
    """Index value: where one live record lives, plus its GDSF state."""

    __slots__ = ("segment", "offset", "length", "cost", "size", "clock")

    segment: int
    offset: int
    length: int
    cost: float        # persisted per-map compute cost (ms)
    size: float        # saliency element count (GDSF denominator)
    clock: float       # recency component of the GDSF priority


def _priority(entry: _Entry, clock_floor: float = 0.0) -> float:
    return max(entry.clock, clock_floor) + entry.cost / max(entry.size, 1.0)


# ----------------------------------------------------------------------
# Record codec: SaliencyResult <-> framed bytes.
def _encode_record(key: CacheKey, result: SaliencyResult,
                   cost_ms: Optional[float]) -> Tuple[bytes, float]:
    """Frame one result as record bytes; returns ``(record, size)``
    where ``size`` is the saliency element count the GDSF priority
    divides by.

    Float arrays (the saliency map and any float meta arrays) are
    quantized to float16 — a saliency map is a *ranking*, and float16's
    ~1e-3 relative precision preserves peak-relative ordering at half
    the bytes; integer/bool arrays keep their dtype.  Meta values that
    are neither ndarrays nor JSON-serializable are dropped (the store
    persists results, not arbitrary object graphs).
    """
    saliency = np.asarray(result.saliency)
    arrays = {"saliency": _quantize(saliency)}
    meta_json: Dict[str, object] = {}
    for name, value in (result.meta or {}).items():
        if isinstance(value, np.ndarray):
            arrays[f"meta:{name}"] = _quantize(value)
        else:
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                continue               # non-serializable meta: dropped
            meta_json[name] = value
    buf = io.BytesIO()
    np.savez(buf, **arrays)            # uncompressed: reads are memcopies
    payload = buf.getvalue()
    header = json.dumps({
        "key": list(key),
        "label": int(result.label),
        "target": (None if result.target_label is None
                   else int(result.target_label)),
        "cost_ms": None if cost_ms is None else float(cost_ms),
        "meta": meta_json,
    }, separators=(",", ":")).encode()
    body = header + payload
    record = (_PREFIX.pack(_MAGIC, len(header), len(payload)) + body
              + _CRC.pack(zlib.crc32(body)))
    return record, float(max(saliency.size, 1))


def _quantize(array: np.ndarray) -> np.ndarray:
    if np.issubdtype(array.dtype, np.floating):
        return np.ascontiguousarray(array, dtype=np.float16)
    return np.ascontiguousarray(array)


def _decode_record(view: memoryview, *, check_crc: bool = False
                   ) -> Tuple[CacheKey, SaliencyResult, Optional[float],
                              int]:
    """Parse one framed record from ``view`` (which starts at the
    record); returns ``(key, result, cost_ms, record_length)``.  Raises
    ``ValueError`` on any framing/CRC violation (the scan-rebuild path
    treats that as the corrupt tail and stops)."""
    if len(view) < _PREFIX.size:
        raise ValueError("truncated record prefix")
    magic, header_len, payload_len = _PREFIX.unpack_from(view)
    if magic != _MAGIC:
        raise ValueError("bad record magic")
    total = _PREFIX.size + header_len + payload_len + _CRC.size
    if len(view) < total:
        raise ValueError("truncated record body")
    body = view[_PREFIX.size:_PREFIX.size + header_len + payload_len]
    if check_crc:
        (crc,) = _CRC.unpack_from(view, total - _CRC.size)
        if zlib.crc32(body) != crc:
            raise ValueError("record CRC mismatch")
    header = json.loads(bytes(body[:header_len]))
    arrays = np.load(io.BytesIO(bytes(body[header_len:])),
                     allow_pickle=False)
    saliency = _materialize(arrays["saliency"])
    meta = dict(header.get("meta") or {})
    for name in arrays.files:
        if name.startswith("meta:"):
            meta[name[len("meta:"):]] = _materialize(arrays[name])
    result = SaliencyResult(saliency, int(header["label"]),
                            target_label=header.get("target"), meta=meta)
    key = _parse_key(header["key"])
    result.image_digest = key[0]
    return key, result, header.get("cost_ms"), total


def _parse_key(raw) -> CacheKey:
    """A :data:`CacheKey` from its JSON list form (record header or
    journal line); a ``null`` label or target stays ``None``."""
    digest, method, label, target = raw
    return (digest, method, None if label is None else int(label),
            None if target is None else int(target))


def _materialize(array: np.ndarray) -> np.ndarray:
    """Copy-on-read: float16 records widen back to float32 (a fresh
    array the caller owns), everything else is copied as-is."""
    if array.dtype == np.float16:
        return array.astype(np.float32)
    return np.array(array, copy=True)


# ----------------------------------------------------------------------
class SaliencyStore:
    """Two-tier disk store for saliency results (see module docstring).

    Parameters
    ----------
    directory:
        Store root; created if missing.  One opener at a time
        (``LOCK`` file).
    capacity_bytes:
        Soft bound on total segment bytes; exceeded space is reclaimed
        by whole-segment compaction after each flush round.
    segment_bytes:
        Head-segment roll threshold (records never split across
        segments, so a segment may exceed this by one record).
    queue_depth:
        Write-behind queue bound (unique keys, coalescing).  A full
        queue drops its **oldest** pending entry rather than blocking
        the serving hot path; drops are counted in :meth:`stats`.
    write_behind:
        ``False`` runs without the flusher thread: puts still enqueue
        and coalesce, but records reach disk only on :meth:`flush` —
        the deterministic mode the crash-consistency tests (and
        synchronous-overhead benchmarks) drive.
    """

    def __init__(self, directory, *,
                 capacity_bytes: int = STORE_CAPACITY_BYTES,
                 segment_bytes: int = STORE_SEGMENT_BYTES,
                 queue_depth: int = 512,
                 write_behind: bool = True):
        if capacity_bytes < 1 or segment_bytes < 1:
            raise ValueError("capacity_bytes/segment_bytes must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.directory = os.fspath(directory)
        self.capacity_bytes = int(capacity_bytes)
        self.segment_bytes = int(segment_bytes)
        self.queue_depth = int(queue_depth)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.RLock()
        # Serializes the writer role (flusher thread, synchronous
        # flush() callers, close()) so all file I/O runs outside
        # self._lock: _io_lock -> _lock is the only nesting order.
        self._io_lock = threading.Lock()
        self._drain_active = False
        self._index: Dict[CacheKey, _Entry] = {}
        self._segments: Dict[int, int] = {}     # id -> flushed byte size
        self._mmaps: Dict[int, Tuple[mmap.mmap, int]] = {}
        self._pending: "OrderedDict[CacheKey, Tuple[SaliencyResult, Optional[float]]]" = OrderedDict()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._clock = 0.0
        self._seq = 0.0                          # monotone insert clock
        self._head: Optional[int] = None         # open segment id
        self._head_file = None
        self._journal_file = None
        self.rebuilds = 0
        self.hits = 0
        self.pending_hits = 0
        self.misses = 0
        self.hit_cost_ms = 0.0
        self.tenant_hits: Dict[str, int] = {}
        self.writes = 0
        self.coalesced = 0
        self.write_drops = 0
        self.compactions = 0
        self.evictions = 0
        self.fsyncs = 0
        self._acquire_lockfile()
        try:
            self._load()
        except BaseException:
            self._release_lockfile()
            raise
        self._flusher: Optional[threading.Thread] = None
        if write_behind:
            self._flusher = threading.Thread(target=self._flush_loop,
                                             name="saliency-store-flush",
                                             daemon=True)
            self._flusher.start()

    # -- lockfile ------------------------------------------------------
    def _lockfile_path(self) -> str:
        return os.path.join(self.directory, _LOCKFILE)

    def _acquire_lockfile(self) -> None:
        path = self._lockfile_path()
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    with open(path) as fh:
                        pid = int(fh.read().strip() or "0")
                except FileNotFoundError:
                    continue               # holder vanished: retry create
                except (OSError, ValueError):
                    pid = 0
                if pid and _pid_alive(pid):
                    raise RuntimeError(
                        f"store {self.directory!r} is locked by live "
                        f"writer pid {pid} (single-writer rule)")
                # Stale lock (writer died without close): take over
                # atomically.  rename() is the claim — of all the
                # contenders that read the dead pid, exactly one wins
                # (the rest get ENOENT and loop, finding either the
                # winner's fresh lock or no file).  A plain unlink here
                # would race: two contenders could both read the dead
                # pid and the second unlink would remove the first
                # winner's freshly written lock.
                claimed = path + f".stale.{os.getpid()}"
                try:
                    os.rename(path, claimed)
                except OSError:
                    continue
                # Re-check what we claimed: a fresh owner may have
                # replaced the lock between our read and the rename.
                try:
                    with open(claimed) as fh:
                        owner = int(fh.read().strip() or "0")
                except (OSError, ValueError):
                    owner = 0
                if owner and _pid_alive(owner):
                    try:                   # hand a live owner's lock back
                        os.link(claimed, path)
                    except OSError:
                        pass               # a newer lock already exists
                    os.unlink(claimed)
                    raise RuntimeError(
                        f"store {self.directory!r} is locked by live "
                        f"writer pid {owner} (single-writer rule)")
                os.unlink(claimed)
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return

    def _release_lockfile(self) -> None:
        try:
            os.unlink(self._lockfile_path())
        except OSError:
            pass

    # -- open: journal replay, scan rebuild ----------------------------
    def _segment_path(self, segment: int) -> str:
        return os.path.join(self.directory, _SEG_FMT.format(segment))

    def _segment_ids_on_disk(self) -> List[int]:
        ids = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(".seg"):
                try:
                    ids.append(int(name[4:-4]))
                except ValueError:
                    continue
        return sorted(ids)

    def _load(self) -> None:
        """Build the index: journal replay on the fast path, CRC-checked
        segment scan when the journal is missing or inconsistent."""
        on_disk = self._segment_ids_on_disk()
        sizes = {seg: os.path.getsize(self._segment_path(seg))
                 for seg in on_disk}
        if self._replay_journal(sizes):
            self._segments = {seg: sizes[seg] for seg in on_disk}
        else:
            self._scan_rebuild(on_disk)
            self._rewrite_journal()
        self._open_head()
        self._journal_file = open(os.path.join(self.directory, _JOURNAL),
                                  "a")

    def _replay_journal(self, sizes: Dict[int, int]) -> bool:
        """Apply the journal; ``False`` (triggering a scan rebuild) on
        any parse error or an entry pointing outside its segment."""
        path = os.path.join(self.directory, _JOURNAL)
        if not os.path.exists(path):
            return not sizes               # empty store: nothing to scan
        index: Dict[CacheKey, _Entry] = {}
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    op = json.loads(line)
                    if op["op"] == "put":
                        self._seq += 1.0
                        index[_parse_key(op["key"])] = _Entry(
                            int(op["seg"]), int(op["off"]), int(op["len"]),
                            float(op.get("cost") or 0.0),
                            float(op.get("size") or 1.0), self._seq)
                    elif op["op"] == "drop":
                        seg = int(op["seg"])
                        for k in [k for k, e in index.items()
                                  if e.segment == seg]:
                            del index[k]
                    else:
                        return False
        except (OSError, ValueError, KeyError, TypeError):
            return False
        for entry in index.values():
            size = sizes.get(entry.segment)
            if size is None or entry.offset + entry.length > size:
                return False               # torn write / missing segment
        self._index = index
        return True

    def _scan_rebuild(self, on_disk: List[int]) -> None:
        """Rebuild the index by CRC-checking every record of every
        segment in order.  A corrupt record ends its segment's scan
        (append-only: everything after a torn record is unreachable),
        dropping only the tail; records in later segments — and every
        record before the tear — survive with their cost metadata."""
        self.rebuilds += 1
        self._index = {}
        self._segments = {}
        for seg in on_disk:
            path = self._segment_path(seg)
            with open(path, "rb") as fh:
                data = fh.read()
            view = memoryview(data)
            offset = 0
            while offset < len(data):
                try:
                    key, _result, cost, length = _decode_record(
                        view[offset:], check_crc=True)
                except Exception:
                    break                  # corrupt tail: drop the rest
                self._seq += 1.0
                self._index[key] = _Entry(
                    seg, offset, length,
                    0.0 if cost is None else float(cost),
                    float(max(np.asarray(_result.saliency).size, 1)),
                    self._seq)
                offset += length
            self._segments[seg] = offset   # live prefix only

    def _rewrite_journal(self) -> None:
        """Replace the journal with a snapshot of the current index
        (after a scan rebuild, and on clean close — bounds journal
        growth and makes the next open a pure replay)."""
        path = os.path.join(self.directory, _JOURNAL)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            for key, e in self._index.items():
                fh.write(json.dumps(
                    {"op": "put", "key": list(key), "seg": e.segment,
                     "off": e.offset, "len": e.length, "cost": e.cost,
                     "size": e.size}, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _open_head(self) -> None:
        """Open (or create) the append head: the highest on-disk
        segment if it has room, else a fresh one."""
        ids = sorted(self._segments) or [0]
        head = ids[-1]
        if self._segments.get(head, 0) >= self.segment_bytes:
            head += 1
        self._head = head
        size = self._segments.get(head, 0)
        # Truncate scan-dropped tail bytes so appends land right after
        # the last live record (never inside a torn one).
        self._head_file = open(self._segment_path(head), "ab")
        if self._head_file.tell() != size:
            self._head_file.truncate(size)
            self._head_file.seek(size)
        self._segments[head] = size

    # -- mmap reads ----------------------------------------------------
    def _read_span(self, segment: int, offset: int,
                   length: int) -> memoryview:
        """A memoryview over one record, via a cached per-segment mmap
        (re-mapped when the writer has grown the file past the cached
        map's size)."""
        cached = self._mmaps.get(segment)
        if cached is None or cached[1] < offset + length:
            if cached is not None:
                _close_map(cached[0])
            with open(self._segment_path(segment), "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                mapped = mmap.mmap(fh.fileno(), size,
                                   access=mmap.ACCESS_READ)
            cached = (mapped, size)
            self._mmaps[segment] = cached
        return memoryview(cached[0])[offset:offset + length]

    # -- public API ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._index or key in self._pending

    def get(self, key: CacheKey, tenant: Optional[str] = None
            ) -> Optional[Tuple[SaliencyResult, Optional[float]]]:
        """Tier-2 probe: ``(result, cost_ms)`` on a hit, ``None`` on a
        miss.  The result's arrays are fresh copies (float16 records
        widen to float32) frozen exactly like tier-1 hits; ``cost_ms``
        is the persisted GDSF cost the caller should thread into its
        memory-tier insert so cost-aware eviction survives the restart.
        An entry still sitting in the write-behind queue is served from
        memory (``pending_hits``).  ``tenant`` attributes the hit in
        the per-tenant breakdown (``stats()["tenant_hits"]``)."""
        with self._lock:
            if self._closed:
                raise StoreClosed("store is closed")
            pending = self._pending.get(key)
            if pending is not None:
                self.pending_hits += 1
                self._count_tenant_hit(tenant)
                result, cost = pending
                self.hit_cost_ms += cost or 0.0
                copy = SaliencyResult(
                    np.array(result.saliency, copy=True), result.label,
                    target_label=result.target_label,
                    meta=dict(result.meta or {}))
                copy.image_digest = key[0]
                _freeze_result(copy)
                return copy, cost
            entry = self._index.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._seq += 1.0
            entry.clock = max(self._seq, self._clock)   # GDSF recency
            try:
                view = self._read_span(entry.segment, entry.offset,
                                       entry.length)
            except (OSError, ValueError):
                # The segment file is gone (deleted out from under the
                # store) or unmappable: a stale entry is a miss, not an
                # error — forget it so the caller falls back to compute.
                self._index.pop(key, None)
                self.misses += 1
                return None
            self.hits += 1
            self.hit_cost_ms += entry.cost
        try:
            _key, result, cost, _length = _decode_record(view)
        except (OSError, ValueError):
            # A record the index points at but cannot be parsed —
            # corruption past open-time validation.  Forget the entry
            # and report a miss rather than poisoning the caller.
            with self._lock:
                self._index.pop(key, None)
                self.hits -= 1
                self.hit_cost_ms -= entry.cost
                self.misses += 1
            return None
        with self._lock:
            self._count_tenant_hit(tenant)
        _freeze_result(result)
        return result, cost

    def _count_tenant_hit(self, tenant: Optional[str]) -> None:
        """Attribute one hit to a tenant (lock held); anonymous probes
        count only in the aggregate ``hits``/``pending_hits``."""
        if tenant is not None:
            self.tenant_hits[tenant] = self.tenant_hits.get(tenant, 0) + 1

    def put(self, key: CacheKey, result: SaliencyResult,
            cost_ms: Optional[float] = None) -> None:
        """Enqueue one result for write-behind persistence (returns
        immediately; never blocks on disk).  Re-puts of a pending key
        coalesce to the newest value; a full queue drops its oldest
        pending entry (counted in ``write_drops``)."""
        with self._wake:
            if self._closed:
                raise StoreClosed("store is closed")
            if key in self._pending:
                self.coalesced += 1
                self._pending.pop(key)
            elif len(self._pending) >= self.queue_depth:
                self._pending.popitem(last=False)
                self.write_drops += 1
            self._pending[key] = (result, cost_ms)
            self._wake.notify_all()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every pending entry reached disk (and fsync).
        With ``write_behind=False`` the drain runs on the calling
        thread instead."""
        if self._flusher is None:
            self._drain_once()
            return
        # time.monotonic(), not os.times().elapsed: the latter is a
        # coarse (often 10ms-tick) process clock that os module docs
        # don't even guarantee on every platform, and every other
        # deadline in serve is a monotonic instant.
        deadline = None if timeout is None else (time.monotonic()
                                                 + timeout)
        with self._wake:
            # _drain_active covers the window where the flusher popped
            # the last pending entries but has not fsynced them yet.
            while ((self._pending or self._drain_active)
                   and not self._closed):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("store flush timed out")
                self._wake.wait(timeout=remaining if remaining else 0.05)

    def stats(self) -> Dict[str, object]:
        """Store counters: hits/``pending_hits``/misses, inserts and
        coalesced/dropped write-behind entries, compactions, entry and
        byte totals, and per-tenant served counts.  Aggregated into
        ``engine.stats()["store"]`` when the store is attached."""
        with self._lock:
            return {
                "hits": self.hits,
                "pending_hits": self.pending_hits,
                "misses": self.misses,
                "hit_cost_ms": self.hit_cost_ms,
                "tenant_hits": dict(self.tenant_hits),
                "writes": self.writes,
                "coalesced": self.coalesced,
                "write_drops": self.write_drops,
                "queue_depth": len(self._pending),
                "compactions": self.compactions,
                "evictions": self.evictions,
                "fsyncs": self.fsyncs,
                "rebuilds": self.rebuilds,
                "entries": len(self._index),
                "segments": len(self._segments),
                "bytes": sum(self._segments.values()),
                "capacity_bytes": self.capacity_bytes,
            }

    def close(self) -> None:
        """Drain the write-behind queue, snapshot the journal, release
        the writer lock (idempotent)."""
        with self._wake:
            if self._closed:
                return
            self._closed = True            # no further put()/get()
            self._wake.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
        # Final drain on this thread (deterministic, and correct
        # whether or not a flusher thread existed): anything enqueued
        # after the flusher's last round still reaches disk.
        self._drain_once()
        with self._lock:
            self._close_maps()
            if self._head_file is not None:
                self._head_file.close()
                self._head_file = None
            if self._journal_file is not None:
                self._journal_file.close()
                self._journal_file = None
            self._rewrite_journal()
        self._release_lockfile()

    def _close_maps(self) -> None:
        for mapped, _size in self._mmaps.values():
            _close_map(mapped)
        self._mmaps.clear()

    def __enter__(self) -> "SaliencyStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"SaliencyStore({self.directory!r}, "
                f"entries={len(self._index)})")

    # -- write-behind flusher ------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._closed:
                    self._wake.wait(timeout=0.2)
                if self._closed:
                    return
            self._drain_once()

    def _drain_once(self) -> None:
        """Write every pending entry (one fsync for the whole round),
        publish index entries + journal lines, then reclaim capacity.

        All disk work — npz encode, file writes, fsync, compaction —
        runs *outside* the store lock, which is taken only for the
        queue pops and the index publishes, so ``get()``/``put()`` on
        the serving hot path never wait behind I/O.  ``_io_lock``
        serializes the writer role across the flusher thread,
        synchronous ``flush()`` callers, and ``close()``."""
        with self._io_lock:
            try:
                wrote = 0
                while True:
                    with self._wake:
                        if not self._pending:
                            break
                        self._drain_active = True
                        key, (result, cost_ms) = self._pending.popitem(
                            last=False)
                    try:
                        record, size = _encode_record(key, result, cost_ms)
                    except (ValueError, TypeError):
                        continue           # unencodable result: skip it
                    self._write_record(
                        key, record,
                        0.0 if cost_ms is None else float(cost_ms), size)
                    wrote += 1
                if wrote:
                    self._sync()
                    self._maybe_compact()
            finally:
                with self._wake:
                    self._drain_active = False
                    self._wake.notify_all()   # flush() waiters

    def _write_record(self, key: CacheKey, record: bytes, cost: float,
                      size: float) -> None:
        """Append one framed record to the head segment and publish it
        to the index + journal.  Runs on the writer thread (under
        ``_io_lock``); only the publish takes the store lock, so the
        file write never blocks readers."""
        if self._segments[self._head] >= self.segment_bytes:
            self._roll_head()
        head = self._head
        offset = self._segments[head]
        self._head_file.write(record)
        # OS-level flush before publishing: the entry must be readable
        # through a fresh mmap the moment it enters the index (fsync —
        # durability — is batched per drain round in _sync()).
        self._head_file.flush()
        self._journal_file.write(json.dumps(
            {"op": "put", "key": list(key), "seg": head,
             "off": offset, "len": len(record), "cost": cost,
             "size": size}, separators=(",", ":")) + "\n")
        with self._lock:
            self._seq += 1.0
            self._index[key] = _Entry(head, offset, len(record), cost,
                                      size, max(self._seq, self._clock))
            self._segments[head] = offset + len(record)
            self.writes += 1

    def _roll_head(self) -> None:
        self._head_file.close()
        head = max(self._segments) + 1
        self._head_file = open(self._segment_path(head), "ab")
        with self._lock:
            self._head = head
            self._segments[head] = 0

    def _sync(self) -> None:
        """One fsync pair per drained batch — the 'fsync batching' that
        keeps write-behind cheap under bursty inserts."""
        self._head_file.flush()
        os.fsync(self._head_file.fileno())
        self._journal_file.flush()
        os.fsync(self._journal_file.fileno())
        self.fsyncs += 1

    # -- compaction ----------------------------------------------------
    def _maybe_compact(self) -> None:
        """Reclaim capacity by whole-segment compaction: pick the
        coldest sealed segment (lowest summed GDSF priority over its
        live records), rewrite the records worth keeping to the head
        (hot-first, raw byte copy), evict the rest, delete the file.

        Runs on the writer thread (under ``_io_lock``).  The store
        lock is held only for the victim selection and the per-record
        index updates — never across the victim read or the rewrites —
        so a multi-megabyte compaction can't stall ``get()``/``put()``.
        """
        guard = len(self._segments) + 2
        while guard:
            guard -= 1
            with self._lock:
                if sum(self._segments.values()) <= self.capacity_bytes:
                    return
                sealed = [seg for seg in self._segments
                          if seg != self._head]
                victim = None
                if sealed:
                    by_segment: Dict[int, List[Tuple[CacheKey, _Entry]]] \
                        = {seg: [] for seg in sealed}
                    for key, entry in self._index.items():
                        if entry.segment in by_segment:
                            by_segment[entry.segment].append((key, entry))
                    victim = min(sealed, key=lambda seg: sum(
                        _priority(e, self._clock)
                        for _k, e in by_segment[seg]))
                    live = sorted(
                        by_segment[victim],
                        key=lambda item: _priority(item[1], self._clock),
                        reverse=True)
                    victim_bytes = self._segments[victim]
                    budget = self.capacity_bytes - (
                        sum(self._segments.values()) - victim_bytes)
            if victim is None:
                self._roll_head()          # seal the head so it's eligible
                continue
            # One plain read of the whole victim, outside the lock:
            # sealed segments are fully flushed and records are
            # immutable bytes, so no mmap-cache traffic with get().
            try:
                with open(self._segment_path(victim), "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
            rewritten = evicted = 0
            for key, entry in live:
                end = entry.offset + entry.length
                if entry.length <= budget and end <= len(data):
                    self._write_record(key, data[entry.offset:end],
                                       entry.cost, entry.size)
                    budget -= entry.length
                    rewritten += 1
                else:
                    # GDSF eviction: the clock ratchets to the dropped
                    # priority so long-untouched entries age out.
                    with self._lock:
                        self._clock = max(self._clock,
                                          _priority(entry, self._clock))
                        if self._index.get(key) is entry:
                            del self._index[key]
                            self.evictions += 1
                            evicted += 1
            with self._lock:
                mapped = self._mmaps.pop(victim, None)
                if mapped is not None:
                    _close_map(mapped[0])
                self._segments.pop(victim, None)
                self.compactions += 1
            try:
                os.unlink(self._segment_path(victim))
            except OSError:
                pass
            self._journal_file.write(json.dumps(
                {"op": "drop", "seg": victim},
                separators=(",", ":")) + "\n")
            # Sync only when this round actually moved or dropped
            # records (the lifetime eviction counter would force an
            # fsync on every later compaction after the first).
            if rewritten or evicted:
                self._sync()


def _close_map(mapped: mmap.mmap) -> None:
    """Close an mmap, tolerating live exported views (a reader decoding
    outside the lock while compaction retires the segment): the map is
    leaked until the view dies rather than crashing either thread."""
    try:
        mapped.close()
    except BufferError:
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
