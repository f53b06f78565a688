"""Zero-copy shared-memory transport for the process pool.

Pickling the float32 image stack out to each worker and the saliency
stack back through ``multiprocessing.Pipe`` would cost four bulk copies
per batch (pickle out, unpickle in, pickle back, unpickle back) plus
the intermediate ``np.stack``s on both sides.  The pool instead moves
every payload through per-worker **double-buffered shared-memory
arenas** while the pipe carries only small control headers (method,
shapes, slot id, arena generation, labels):

* :class:`ShmArena` — the parent-side owner of one worker's slots.
  Each of the two slots holds an *out* segment (the request's image
  stack, written in place by the dispatcher) and a *ret* segment (the
  reply's saliency stack, written in place by the worker).  Two slots
  let the dispatcher encode batch N+1 while the worker still computes
  batch N.  Segments grow geometrically when a batch outgrows them
  (the old segment is unlinked immediately: a slot is only grown while
  it is free, so no in-flight batch can be using it).  A slot whose
  segments a worker reports stale (removed from ``/dev/shm`` by
  something else) is retired: both segments are unlinked and the next
  encode creates fresh ones.
* :class:`ArenaClient` — the worker-side attachment cache.  Segment
  names embed the slot and an **arena generation**, so a header naming
  a new generation retires the stale mapping; a header whose segments
  cannot be attached at all reports stale before anything is computed.
* :class:`TransportStats` — counters for ``stats()["transport"]``:
  bytes moved, copies avoided, arena bytes, stale resends
  (``fallbacks``), and overlap occupancy.

**Resource hygiene**: the parent owns every segment and is the only
process that ever unlinks one.  Parent-side creation stays registered
with ``multiprocessing.resource_tracker`` so a crashed parent still
gets its segments unlinked at tracker shutdown; worker-side attachments
are opened with ``track=False`` on 3.13+ (older interpreters share the
parent's tracker, see :func:`attach_segment`) so a worker exit can
never unlink — or double-free — a segment the parent still serves
from.  ``ProcessExecutor`` unlinks a channel's arena when the channel
is reaped (worker crash) and on ``shutdown()``; either side dying
therefore leaves zero ``/dev/shm`` segments behind, which the
transport test suite asserts by listing the directory.

**Sizing**: every batch goes through the arenas, so ``/dev/shm`` must
hold ``2 slots x (out + ret) x workers x`` the largest batch's image
bytes (up to twice that, since a segment at least doubles when it
grows).
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["ShmArena", "ArenaSlot", "ArenaClient", "TransportStats",
           "attach_segment", "segment_base"]

#: Segments are sized in whole pages; growth at least doubles so a
#: ramping workload allocates O(log) segments, not one per batch.
_PAGE = 4096


def _round_up(nbytes: int) -> int:
    return max(_PAGE, (int(nbytes) + _PAGE - 1) // _PAGE * _PAGE)


def segment_base(name: str) -> str:
    """The generation-independent identity of a segment name.

    Names look like ``rtx<pid>w<worker>s<slot>o-g<gen>``; everything
    before the ``-g`` identifies (executor, worker, slot, direction),
    so a worker's attachment cache can retire the previous generation
    the moment a header names a newer one.
    """
    base, _, _ = name.rpartition("-g")
    return base or name


def attach_segment(name: str):
    """Worker-side attach that adds no tracker obligation of its own:
    only the parent owns (and unlinks) segments.  Python 3.13+ exposes
    ``track=False`` for exactly this.  Older interpreters register every
    attach with the resource tracker — but multiprocessing children
    inherit the *parent's* tracker, where that registration is a
    duplicate entry in the same set (idempotent) and the parent's
    ``unlink`` clears it; explicitly unregistering here would instead
    strip the parent's own registration out of the shared tracker and
    break its crash-cleanup guarantee."""
    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:                      # Python < 3.13: shared tracker
        return shared_memory.SharedMemory(name=name, create=False)


class _Segment:
    """One parent-owned shared-memory segment (create + unlink side)."""

    __slots__ = ("name", "size", "shm")

    def __init__(self, name: str, size: int):
        size = _round_up(size)
        try:
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        except FileExistsError:
            # A leftover from a previous process that recycled our pid:
            # it is ours by name, so reclaim it.
            shared_memory.SharedMemory(name=name).unlink()
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=size)
        self.name = name
        self.size = size
        self.shm = shm

    def view(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf)

    def destroy(self) -> None:
        """Close the mapping and unlink the backing file.  A close that
        fails because an exported view still exists (BufferError) only
        skips the munmap — the *unlink* below is what guarantees no
        ``/dev/shm`` entry outlives the arena, and the stray mapping
        dies with the process."""
        try:
            self.shm.close()
        except BufferError:                # view still exported somewhere
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:          # already gone (double close ok)
            pass


class ArenaSlot:
    """One double-buffer slot: an out segment (request payload) and a
    ret segment (reply payload), both lazily allocated and geometrically
    grown by the parent."""

    __slots__ = ("index", "generation", "in_use", "out", "ret")

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.in_use = False
        self.out: Optional[_Segment] = None
        self.ret: Optional[_Segment] = None


class ShmArena:
    """Parent-side arena for one worker channel (see module doc).

    Externally synchronized for slot accounting: ``acquire``/``release``
    are called under the executor's pool lock.  ``encode``/``ret_view``/
    ``retire`` touch only the caller's acquired slot, so they run
    lock-free in the dispatcher thread that owns the batch.
    """

    def __init__(self, prefix: str, slots: int = 2,
                 initial_bytes: int = 1 << 16,
                 stats: Optional["TransportStats"] = None):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.prefix = prefix
        self.initial_bytes = int(initial_bytes)
        self.slots = [ArenaSlot(i) for i in range(slots)]
        self.stats = stats if stats is not None else TransportStats()
        self._closed = False

    # -- slot accounting (under the executor pool lock) -----------------
    def acquire(self) -> Optional[ArenaSlot]:
        for slot in self.slots:
            if not slot.in_use:
                slot.in_use = True
                return slot
        return None

    def release(self, slot: ArenaSlot) -> None:
        slot.in_use = False

    # -- payload encode/decode (slot owned by the calling thread) -------
    def _segment_name(self, slot: ArenaSlot, direction: str) -> str:
        return f"{self.prefix}s{slot.index}{direction}-g{slot.generation}"

    def _ensure(self, slot: ArenaSlot, direction: str,
                nbytes: int) -> _Segment:
        current = slot.out if direction == "o" else slot.ret
        if current is not None and current.size >= nbytes:
            return current
        # Growth bumps the generation *before* naming the new segment so
        # the worker's attachment cache retires the old mapping on the
        # next header; the old segment is unlinked right here — the slot
        # is free (growth happens at encode time, never mid-flight), so
        # nothing can still be reading it.
        size = (max(nbytes, self.initial_bytes) if current is None
                else max(nbytes, current.size * 2))
        slot.generation += 1
        segment = _Segment(self._segment_name(slot, direction), size)
        if current is not None:
            self.stats.count_grow()
            current.destroy()
        if direction == "o":
            slot.out = segment
        else:
            slot.ret = segment
        return segment

    def encode(self, slot: ArenaSlot,
               images: Union[np.ndarray, Sequence[np.ndarray]],
               ) -> Tuple[Tuple, Tuple]:
        """Write the batch's image payload directly into the slot's out
        segment — no pickle, and no intermediate ``np.stack`` copy when
        the per-request images are already contiguous float32 (each is
        copied exactly once, straight into the arena).  Returns
        ``(out_desc, ret_desc)`` for the header:
        ``out_desc = (segment_name, segment_size, batch_shape, dtype)``,
        ``ret_desc = (segment_name, segment_size)``.
        """
        if isinstance(images, np.ndarray):
            batch_shape = images.shape
        else:
            batch_shape = (len(images),) + tuple(np.shape(images[0]))
        count = int(np.prod(batch_shape, dtype=np.int64))
        nbytes = count * 4                 # float32 payload
        out = self._ensure(slot, "o", nbytes)
        view = out.view(batch_shape, np.float32)
        if isinstance(images, np.ndarray):
            np.copyto(view, images, casting="unsafe")
        else:
            for i, image in enumerate(images):
                np.copyto(view[i], image, casting="unsafe")
        del view
        # The reply's saliency stack is one (H, W) float32 map per image
        # — never larger than the (C, H, W) inputs — so sizing ret like
        # out covers every registered method; a reply that does not fit
        # fails its batch in the worker.
        ret = self._ensure(slot, "r", nbytes)
        self.stats.count_shm_out(nbytes, batch_shape[0])
        return ((out.name, out.size, tuple(batch_shape), "float32"),
                (ret.name, ret.size))

    def ret_view(self, slot: ArenaSlot,
                 shape: Tuple[int, ...]) -> np.ndarray:
        """The worker-written float32 reply stack; valid until the slot
        is released — callers copy each map out before that."""
        assert slot.ret is not None
        return slot.ret.view(tuple(shape), np.float32)

    def retire(self, slot: ArenaSlot) -> None:
        """Unlink both of the slot's segments, after its worker could
        not attach them.  The next :meth:`encode` creates fresh ones
        under a new generation, so the worker attaches new names."""
        for segment in (slot.out, slot.ret):
            if segment is not None:
                segment.destroy()
        slot.out = slot.ret = None

    # -- accounting / lifecycle -----------------------------------------
    def live_bytes(self) -> int:
        total = 0
        for slot in self.slots:
            for segment in (slot.out, slot.ret):
                if segment is not None:
                    total += segment.size
        return total

    def close(self) -> None:
        """Unlink every segment (idempotent).  Parent-owned: this is
        the single place arena segments are ever removed, called when
        the channel is reaped or the executor shuts down."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            for segment in (slot.out, slot.ret):
                if segment is not None:
                    segment.destroy()
            slot.out = slot.ret = None


class ArenaClient:
    """Worker-side attachment cache, keyed on the generation-free
    segment base so a grown segment (new generation in the name)
    retires exactly its predecessor's mapping."""

    def __init__(self):
        #: base -> (name, SharedMemory)
        self._attached: Dict[str, Tuple[str, object]] = {}
        #: Mappings whose close() hit BufferError (a view the explainer
        #: stashed somewhere still exports the buffer); retried on the
        #: next retirement and finally dropped at process exit.
        self._retired: List[object] = []

    def _segment(self, name: str):
        base = segment_base(name)
        cached = self._attached.get(base)
        if cached is not None:
            if cached[0] == name:
                return cached[1]
            self._close_mapping(cached[1])
        shm = attach_segment(name)
        self._attached[base] = (name, shm)
        return shm

    def _close_mapping(self, shm) -> None:
        for stale in list(self._retired):
            try:
                stale.close()
                self._retired.remove(stale)
            except BufferError:
                pass
        try:
            shm.close()
        except BufferError:
            self._retired.append(shm)

    def attach(self, out_desc: Tuple,
               ret_desc: Tuple) -> Optional[np.ndarray]:
        """Attach both segments a header names and return a read-only
        ndarray over the out segment, or ``None`` when either cannot be
        attached (stale header: the caller reports it and the parent
        replaces the slot's segments)."""
        name, _size, shape, dtype = out_desc
        try:
            shm = self._segment(name)
            self._segment(ret_desc[0])
        except (FileNotFoundError, OSError, ValueError):
            return None
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=shm.buf)
        view.flags.writeable = False
        return view

    def write_ret(self, ret_desc: Tuple,
                  maps: List[np.ndarray]) -> Tuple[int, ...]:
        """Write the stacked float32 saliency maps into the reply
        segment :meth:`attach` mapped, and return the stack's shape for
        the reply header.  Raises ``ValueError`` naming the shapes when
        the maps do not stack (mixed shapes) or the stack does not fit
        the segment."""
        shapes = sorted({m.shape for m in maps})
        if len(shapes) > 1:
            raise ValueError(f"reply maps have mixed shapes {shapes}; "
                             "the return segment holds one stack")
        shape = (len(maps),) + (shapes[0] if shapes else ())
        nbytes = int(np.prod(shape, dtype=np.int64)) * 4
        name, size = ret_desc
        if nbytes > size:
            raise ValueError(
                f"reply stack {shape} float32 needs {nbytes} bytes; the "
                f"return segment holds {size}")
        view = np.ndarray(shape, dtype=np.float32,
                          buffer=self._segment(name).buf)
        for i, saliency in enumerate(maps):
            np.copyto(view[i], saliency, casting="unsafe")
        del view
        return shape

    def close(self) -> None:
        for _base, (_name, shm) in list(self._attached.items()):
            self._close_mapping(shm)
        self._attached.clear()


class TransportStats:
    """Thread-safe transport counters behind ``stats()["transport"]``.

    Dispatcher threads on one executor update these concurrently, so
    mutation goes through the internal lock; ``snapshot()`` returns a
    plain dict (with derived rates) for the engine's stats call.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.sends = 0
        self.overlapped_sends = 0
        self.shm_batches = 0
        self.shm_bytes_out = 0
        self.shm_bytes_ret = 0
        self.copies_avoided = 0
        #: Batches resent after their worker reported the slot stale.
        self.fallbacks = 0
        self.grows = 0

    def count_send(self, overlapped: bool) -> None:
        with self._lock:
            self.sends += 1
            if overlapped:
                self.overlapped_sends += 1

    def count_shm_out(self, nbytes: int, n_images: int) -> None:
        with self._lock:
            self.shm_bytes_out += nbytes
            # Each image skipped the intermediate stack copy and the
            # pickle/unpickle pair it would cost on the pipe.
            self.copies_avoided += n_images

    def count_shm_ret(self, nbytes: int, n_maps: int) -> None:
        with self._lock:
            self.shm_bytes_ret += nbytes
            self.shm_batches += 1
            # Each map skipped a reply-side np.stack plus the
            # pickle/unpickle pair.
            self.copies_avoided += n_maps

    def count_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def count_grow(self) -> None:
        with self._lock:
            self.grows += 1

    def snapshot(self, arena_bytes: int = 0) -> Dict[str, object]:
        with self._lock:
            sends = self.sends
            return {
                "sends": sends,
                "shm_batches": self.shm_batches,
                "shm_bytes_out": self.shm_bytes_out,
                "shm_bytes_ret": self.shm_bytes_ret,
                "shm_bytes_moved": self.shm_bytes_out + self.shm_bytes_ret,
                "copies_avoided": self.copies_avoided,
                "fallbacks": self.fallbacks,
                "arena_grows": self.grows,
                "arena_bytes": arena_bytes,
                "overlapped_sends": self.overlapped_sends,
                "overlap_occupancy": (round(self.overlapped_sends / sends,
                                            4) if sends else 0.0),
            }
