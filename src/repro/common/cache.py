"""Bounded insertion-ordered caches whose hits write nothing.

One implementation backs every memo keyed per value or per statement:
the provider's DET/OPE value caches (:mod:`repro.core.encdata`), the OPE
pivot caches (:mod:`repro.crypto.ope`), compiled SQLite statements
(:mod:`repro.server.sqlite`), the coordinator's shard queries
(:mod:`repro.server.sharded`) and a TCP connection's query keys
(:mod:`repro.net.client`).  :class:`BoundedCache` is one table;
:class:`PartitionedCache` is a few of them under one shared capacity.

A hit only reads and counts: :meth:`BoundedCache.get_many` is one
C-level ``map`` of the dict's ``get``, so a warm column costs no Python
bytecode per value.  With no recency to keep, an overflowing table drops
the entries inserted longest ago (FIFO).  A hot entry that FIFO evicts
costs one extra miss (microseconds of Feistel or OPE work) per
``capacity`` insertions, where LRU recency charged every hit; a working
set that fits is never evicted under either policy.

Hits and inserts take no lock: each is one dict call (or one C-level
``map``/``update``) under the GIL.  Only misses reach eviction, so it
runs under one process-wide lock.  Cached values are deterministic, so a
racy double compute stores the identical value.  The counters are plain
int increments, *advisory* under contention: they never affect results,
only the ``cache_stats()`` reporting that benchmarks use to explain
amortization (the plan cache's exact ``PlanCacheStats`` sits behind a
lock because a plan-cache miss is expensive enough to pay for one).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice

from repro.common.errors import CryptoError

# Serializes every eviction and ``clear`` (only misses reach it).  One
# lock for all caches keeps each cache picklable, as a provider must be.
_EVICTION_LOCK = threading.Lock()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters (advisory under concurrency).

    A *lookup* is one non-``None`` key presented to ``get`` or
    ``get_many``, and it counts exactly one hit or one miss: a batch with
    a key five times makes five lookups.  ``None`` (SQL NULL) is never a
    key: it is never stored and never counted.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BoundedCache:
    """A dict of at most ``capacity`` entries, evicted oldest-inserted first.

    ``None`` is never a value worth caching and never a key (see
    :class:`CacheStats`).  Re-putting a present key replaces its value
    and keeps its place in the eviction order.
    """

    __slots__ = ("_data", "_oldest", "_capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CryptoError(f"cache capacity must be positive, got {capacity}")
        self._data: dict = {}
        # The next eviction victims, in order: a snapshot of the dict's
        # first keys.  Inserts only append, and only evictions and clear
        # (both under the lock) remove, so it stays the dict's head.
        self._oldest: deque = deque()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object) -> object | None:
        value = self._data.get(key)
        if value is None:
            if key is not None:
                self.misses += 1
            return None
        self.hits += 1
        return value

    def get_many(self, keys: list) -> tuple[list, int]:
        """Element-wise :meth:`get` over ``keys``: ``(values, misses)``.

        ``values[i]`` is ``get(keys[i])`` (``None`` for a miss or a
        ``None`` key); ``misses`` counts the non-``None`` keys that
        missed, so ``0`` means the whole batch was served.
        """
        out = list(map(self._data.get, keys))
        absent = out.count(None)
        misses = absent - keys.count(None) if absent else 0
        self.hits += len(out) - absent
        self.misses += misses
        return out, misses

    def put(self, key: object, value: object) -> None:
        if key is None:
            return
        data = self._data
        data[key] = value
        if len(data) > self._capacity:
            with _EVICTION_LOCK:
                self._evict(self._capacity)

    def put_many(self, keys: list, values: list) -> None:
        """Element-wise :meth:`put` of ``zip(keys, values)``.

        A batch of real keys that fits is one ``dict.update``; one that
        overflows puts key by key, so it evicts exactly as the puts would.
        """
        data = self._data
        if None in keys or len(data) + len(keys) > self._capacity:
            for key, value in zip(keys, values):
                self.put(key, value)
            return
        data.update(zip(keys, values))
        if len(data) > self._capacity:  # Concurrent puts filled it first.
            with _EVICTION_LOCK:
                self._evict(self._capacity)

    def _evict(self, limit: int) -> int:
        """Drop the oldest entries until at most ``limit`` remain; returns
        how many this call dropped.  The caller holds ``_EVICTION_LOCK``.

        A dict keeps deleted slots at the front of its entry table until
        it resizes, so finding its first key walks every key evicted
        since: one walk snapshots an eighth of the capacity for the
        evictions after it.  The walk runs in C without a thread switch,
        but a lock-free put can land between creating its iterator and
        walking it; the iterator then raises before yielding a key, and
        the walk starts over.
        """
        data = self._data
        oldest = self._oldest
        dropped = 0
        while len(data) > limit:
            if not oldest:
                batch = max(len(data) - limit, self._capacity >> 3)
                try:
                    oldest.extend(islice(data, batch))
                except RuntimeError:  # "dictionary changed size during iteration"
                    oldest.clear()
                    continue
            del data[oldest.popleft()]
            dropped += 1
        self.evictions += dropped
        return dropped

    def clear(self) -> None:
        """Drop entries (counters survive — they describe lifetime traffic)."""
        with _EVICTION_LOCK:
            self._data.clear()
            self._oldest.clear()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._data),
            capacity=self._capacity,
        )


class PartitionedCache:
    """One :class:`BoundedCache` table per partition under one shared capacity.

    The provider's decrypt caches partition by SQL type, so a table is
    keyed by the bare ciphertext (no per-value ``(sql_type, ciphertext)``
    tuple) and one ciphertext decrypts under each type independently.
    When the tables together outgrow the capacity, the table *written*
    least recently gives up its oldest entries first, so a stale SQL type
    drains before a hot one; hits are not writes and move nothing.
    Counters, entries and ``clear`` cover all tables, and with one
    partition this is exactly one :class:`BoundedCache`.
    """

    __slots__ = ("_tables", "_written", "_capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CryptoError(f"cache capacity must be positive, got {capacity}")
        self._tables: dict[object, BoundedCache] = {}
        # The written tables by last write, least recent first.
        self._written: dict[object, BoundedCache] = {}
        self._capacity = capacity

    def _table(self, part: object) -> BoundedCache:
        table = self._tables.get(part)
        if table is None:
            table = self._tables.setdefault(part, BoundedCache(self._capacity))
        return table

    def get(self, part: object, key: object) -> object | None:
        return self._table(part).get(key)

    def get_many(self, part: object, keys: list) -> tuple[list, int]:
        return self._table(part).get_many(keys)

    def put(self, part: object, key: object, value: object) -> None:
        self.put_many(part, [key], [value])

    def put_many(self, part: object, keys: list, values: list) -> None:
        table = self._table(part)
        table.put_many(keys, values)
        written = self._written
        written.pop(part, None)
        written[part] = table
        if len(self) <= self._capacity:
            return
        with _EVICTION_LOCK:
            excess = len(self) - self._capacity
            for table in list(written.values()):
                if excess <= 0:
                    return
                excess -= table._evict(max(len(table) - excess, 0))

    def clear(self) -> None:
        """Drop every table's entries (counters survive)."""
        for table in list(self._tables.values()):
            table.clear()

    def __len__(self) -> int:
        return sum(map(len, list(self._tables.values())))

    def stats(self) -> CacheStats:
        tables = list(self._tables.values())
        return CacheStats(
            hits=sum(table.hits for table in tables),
            misses=sum(table.misses for table in tables),
            evictions=sum(table.evictions for table in tables),
            entries=sum(map(len, tables)),
            capacity=self._capacity,
        )
