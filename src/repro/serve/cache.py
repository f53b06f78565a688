"""Saliency result caching: digest keys, LRU shards, sharded front.

The cache key is ``(image_digest, method, label or None, target)``.  The
digest is computed **once per request** at submit time and threaded
through the whole runtime (queued request, cache insert, and the
resulting :class:`~repro.explain.base.SaliencyResult.image_digest`
field) — the image bytes are never re-hashed.  A ``None`` label is the
classifier's own call: a hit never runs the classifier, and it never
shares an entry with a supplied label, even one equal to that call.

:class:`SaliencyCache` is one thread-safe bounded LRU shard.
:class:`ShardedSaliencyCache` fronts N independent shards keyed on a
stable hash of the digest, so concurrent executor workers contend on
1/N of the lock traffic and eviction pressure spreads across shards.
With ``shards=1`` it degenerates to a single global shard (the engine's
default, which keeps exact eviction semantics).

Eviction is least-recently-used.  Each entry also records the compute
cost the runtime measured for it (``cost_ms``), which feeds the
weighted hit rate only: behind a warm tier 2 every tier-1 miss costs
the same store read, whatever the map cost to compute.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..explain.base import SaliencyResult

#: ``(image_digest, method, label or None, target)``.
CacheKey = Tuple[str, str, Optional[int], Optional[int]]


def image_digest(image: np.ndarray) -> str:
    """Content digest of one image (shape/dtype-aware, layout-stable)."""
    image = np.ascontiguousarray(image)
    h = hashlib.sha1()
    h.update(str(image.shape).encode())
    h.update(str(image.dtype).encode())
    h.update(image.tobytes())
    return h.hexdigest()


def request_key(image: np.ndarray, method: str, label: Optional[int],
                target_label: Optional[int],
                digest: Optional[str] = None) -> CacheKey:
    """Cache key for one explain request (``None`` label kept).

    Pass ``digest`` when the image was already hashed (the engine hashes
    each submitted image exactly once and threads the digest through).
    """
    if digest is None:
        digest = image_digest(image)
    label = None if label is None else int(label)
    target = None if target_label is None else int(target_label)
    return (digest, method, label, target)


def _derive_rates(stats: Dict[str, object]) -> Dict[str, object]:
    """Attach the derived ``hit_rate`` / ``weighted_hit_rate`` fields
    to a counter dict (benches and the store bench consume these
    instead of recomputing them ad hoc).  ``hit_rate`` is plain
    hits / lookups; ``weighted_hit_rate`` weights each request by its
    recorded compute cost — the fraction of requested compute served
    from cache.  Both are ``None`` until there is traffic to rate."""
    lookups = stats["hits"] + stats["misses"]
    stats["hit_rate"] = (stats["hits"] / lookups) if lookups else None
    requested = stats["hit_cost_ms"] + stats["insert_cost_ms"]
    stats["weighted_hit_rate"] = (
        stats["hit_cost_ms"] / requested if requested > 0 else None)
    return stats


def _freeze_result(result: SaliencyResult) -> None:
    """Make every ndarray reachable from a cached result read-only.

    Hits hand out the cached object itself (no per-hit copy), so a
    consumer mutating *any* array field — not just ``saliency`` — would
    silently corrupt every future hit.  Dict-valued fields (``meta``)
    are swept one level deep, where explainers stash auxiliary arrays.
    """
    fields = getattr(result, "__dict__", None)
    if fields is None:                   # plain values (tests, stubs)
        return
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, dict):
            for item in value.values():
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)


class SaliencyCache:
    """One thread-safe bounded LRU shard: :data:`CacheKey` -> result."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._store: "OrderedDict[CacheKey, SaliencyResult]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key compute cost, for the weighted hit rate.
        self._cost: Dict[CacheKey, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        # Weighted hit-rate accounting: compute cost *avoided* by hits
        # vs compute cost actually *paid* (computed inserts only —
        # tier-2 store fills pass computed=False and bill nothing).
        self.hit_cost_ms = 0.0
        self.insert_cost_ms = 0.0
        # Per-tenant hit counts (requests that passed a tenant id on
        # the lookup); anonymous lookups count only in the aggregate.
        self.tenant_hits: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._store

    # ------------------------------------------------------------------
    def get(self, key: CacheKey,
            tenant: Optional[str] = None) -> Optional[SaliencyResult]:
        with self._lock:
            result = self._store.get(key)
            if result is None:
                self.misses += 1
                return None
            self._store.move_to_end(key)
            self.hits += 1
            self.hit_cost_ms += self._cost.get(key, 0.0)
            if tenant is not None:
                self.tenant_hits[tenant] = \
                    self.tenant_hits.get(tenant, 0) + 1
            return result

    def peek(self, key: CacheKey) -> Optional[SaliencyResult]:
        """Read without touching hit/miss counters or recency (for
        internal double-checks that must not skew serving stats)."""
        with self._lock:
            return self._store.get(key)

    def put(self, key: CacheKey, result: SaliencyResult,
            cost_ms: Optional[float] = None,
            computed: bool = True) -> None:
        """Insert a result, optionally recording its measured compute
        cost (per-map milliseconds; the engine passes batch ms / batch
        size) for the weighted hit rate.  ``computed=False`` marks
        inserts whose compute was *not* paid by this process — tier-2
        store fills — so the weighted hit rate bills only real
        explainer work."""
        _freeze_result(result)
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
            else:
                self.inserts += 1
            self._store[key] = result
            if cost_ms is not None:
                self._cost[key] = float(cost_ms)
                if computed:
                    self.insert_cost_ms += float(cost_ms)
            while len(self._store) > self.capacity:
                victim, _ = self._store.popitem(last=False)
                self._cost.pop(victim, None)
                self.evictions += 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return _derive_rates({
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "inserts": self.inserts,
                "hit_cost_ms": self.hit_cost_ms,
                "insert_cost_ms": self.insert_cost_ms,
                "tenant_hits": dict(self.tenant_hits),
                "size": len(self._store), "capacity": self.capacity})


class ShardedSaliencyCache:
    """N independent LRU shards selected by a stable digest hash.

    The per-request lock is per shard, so concurrent executor workers
    inserting results rarely contend; the same key always lands on the
    same shard, so hit/miss behaviour for any one request is unchanged.
    ``capacity`` is split as evenly as possible across shards (every
    shard holds at least one entry); ``shards`` is clamped so this
    always works.  Aggregate counters are summed over shards in
    :meth:`stats`.
    """

    def __init__(self, capacity: int = 256, shards: int = 1):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        shards = min(shards, capacity)
        base, extra = divmod(capacity, shards)
        self.capacity = capacity
        self.shards: List[SaliencyCache] = [
            SaliencyCache(base + (1 if i < extra else 0))
            for i in range(shards)
        ]

    # -- shard routing -------------------------------------------------
    def _shard(self, key: CacheKey) -> SaliencyCache:
        # crc32 of the digest: stable across processes (unlike hash())
        # so benchmarked shard balance is reproducible.
        return self.shards[zlib.crc32(key[0].encode()) % len(self.shards)]

    # -- mapping interface ---------------------------------------------
    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._shard(key)

    def get(self, key: CacheKey,
            tenant: Optional[str] = None) -> Optional[SaliencyResult]:
        return self._shard(key).get(key, tenant=tenant)

    def peek(self, key: CacheKey) -> Optional[SaliencyResult]:
        return self._shard(key).peek(key)

    def put(self, key: CacheKey, result: SaliencyResult,
            cost_ms: Optional[float] = None,
            computed: bool = True) -> None:
        self._shard(key).put(key, result, cost_ms=cost_ms,
                             computed=computed)

    # -- aggregated counters -------------------------------------------
    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self.shards)

    @property
    def inserts(self) -> int:
        return sum(s.inserts for s in self.shards)

    @property
    def hit_cost_ms(self) -> float:
        return sum(s.hit_cost_ms for s in self.shards)

    @property
    def insert_cost_ms(self) -> float:
        return sum(s.insert_cost_ms for s in self.shards)

    def tenant_hits(self) -> Dict[str, int]:
        """Per-tenant hit counts merged across shards."""
        merged: Dict[str, int] = {}
        for shard in self.shards:
            for tenant, count in shard.tenant_hits.items():
                merged[tenant] = merged.get(tenant, 0) + count
        return merged

    def shard_sizes(self) -> List[int]:
        return [len(s) for s in self.shards]

    def stats(self) -> Dict[str, object]:
        """Aggregate counters (with the derived hit rates) plus the
        per-shard breakdown."""
        return _derive_rates({
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "inserts": self.inserts,
            "hit_cost_ms": self.hit_cost_ms,
            "insert_cost_ms": self.insert_cost_ms,
            "tenant_hits": self.tenant_hits(),
            "size": len(self), "capacity": self.capacity,
            "shards": len(self.shards),
            "shard_sizes": self.shard_sizes(),
        })
