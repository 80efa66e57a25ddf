"""Bounded LRU caches with amortization counters.

One implementation backs every crypto-side memoization cache: the
provider's DET/OPE value caches (:mod:`repro.core.encdata`) and the OPE
pivot caches (:mod:`repro.crypto.ope`).  :class:`LRUCache` is one table;
:class:`PartitionedLRU` is a few of them (one per SQL type for the
decrypt caches) under one shared capacity.  Both are deliberately
lock-free — see :class:`LRUCache` — which is also why their counters are
*advisory*: they can undercount slightly under thread contention, but
they never affect results, only the ``cache_stats()`` reporting that
benchmarks use to explain amortization (mirroring the plan cache's exact
``PlanCacheStats``, which sits behind a real lock because a plan-cache
miss is expensive enough to pay for one).

A column asks a table once: :meth:`LRUCache.get_many` probes every key
with one C-level ``map`` of the dict's ``get`` and refreshes the hits'
recency with one C-level ``deque(map(move_to_end, ...), 0)``, so a warm
column costs no Python bytecode per value.  :meth:`LRUCache.put_many`
stores a batch of misses with one :meth:`~LRUCache.put` per key.  Both
equal the same sequence of :meth:`~LRUCache.get`/:meth:`~LRUCache.put`
calls: values, counters, entries and eviction order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import Iterator

from repro.common.errors import CryptoError


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


def _touch(move_to_end, keys: Iterator) -> None:
    """``move_to_end`` every key, skipping keys a concurrent put evicted.

    ``deque(map(...), 0)`` runs the moves in C; a ``KeyError`` stops it
    after consuming the missing key, so resuming the same iterator moves
    exactly the rest.
    """
    while True:
        try:
            deque(map(move_to_end, keys), 0)
            return
        except KeyError:  # Evicted by a concurrent put.
            continue


class LRUCache:
    """Minimal bounded LRU used for the DET/OPE memoization caches.

    Lock-free but thread-tolerant: every operation is a single atomic
    dict/OrderedDict call under the GIL (or one C-level ``map`` of such
    calls), and the two places a concurrent eviction can invalidate a key
    between calls (``move_to_end`` after a hit, ``popitem`` after an
    insert) tolerate the ``KeyError`` instead of locking the hot path.
    Recency order may be slightly stale under contention; cached *values*
    are deterministic (de)cryptions, so a racy double-compute returns the
    identical value either way — exactly the property the concurrent
    service layer relies on.  The hit/miss/eviction counters are plain int
    increments and share that tolerance: approximate under contention,
    never wrong by more than the race width.  ``None`` is never a value
    worth caching and never a key (see :class:`CacheStats`).
    """

    __slots__ = ("_data", "_capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CryptoError(f"cache capacity must be positive, got {capacity}")
        self._data: OrderedDict = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object) -> object | None:
        data = self._data
        value = data.get(key)
        if value is None:
            if key is not None:
                self.misses += 1
            return None
        self.hits += 1
        try:
            data.move_to_end(key)
        except KeyError:  # Evicted by a concurrent put.
            pass
        return value

    def get_many(self, keys: list) -> tuple[list, int]:
        """Element-wise :meth:`get` over ``keys``: ``(values, misses)``.

        ``values[i]`` is ``get(keys[i])`` (``None`` for a miss or a
        ``None`` key); ``misses`` counts the non-``None`` keys that
        missed, so ``0`` means the whole batch was served.
        """
        data = self._data
        out = list(map(data.get, keys))
        absent = out.count(None)
        misses = absent - keys.count(None) if absent else 0
        hits = len(out) - absent
        self.hits += hits
        self.misses += misses
        if absent == 0:
            _touch(data.move_to_end, iter(keys))
        elif hits:
            _touch(data.move_to_end, compress(keys, map(is_not, out, repeat(None))))
        return out, misses

    def put(self, key: object, value: object) -> None:
        if key is None:
            return
        data = self._data
        data[key] = value
        try:
            data.move_to_end(key)
        except KeyError:  # Evicted by a concurrent put.
            pass
        if len(data) > self._capacity:
            self._evict(self._capacity)

    def put_many(self, keys: list, values: list) -> None:
        """Element-wise :meth:`put` of ``zip(keys, values)``."""
        for key, value in zip(keys, values):
            self.put(key, value)

    def _evict(self, limit: int) -> int:
        """Drop least recently used entries until at most ``limit`` remain.

        Returns how many this call dropped.
        """
        data = self._data
        dropped = 0
        while len(data) > limit:
            try:
                data.popitem(last=False)
            except KeyError:  # Another thread already evicted.
                break
            dropped += 1
        self.evictions += dropped
        return dropped

    def clear(self) -> None:
        """Drop entries (counters survive — they describe lifetime traffic)."""
        self._data.clear()

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


class PartitionedLRU:
    """One :class:`LRUCache` table per partition under one shared capacity.

    The provider's decrypt caches partition by SQL type, so a table is
    keyed by the bare ciphertext (no per-value ``(sql_type, ciphertext)``
    tuple) and one ciphertext decrypts under each type independently.
    Each table is an exact LRU; when the tables together outgrow the
    capacity, the table touched least recently gives up its least
    recently used entries first, so a stale SQL type drains before a hot
    one.  Counters, entries and ``clear`` cover all tables, and with one
    partition this is exactly one :class:`LRUCache`.  Thread tolerance is
    :class:`LRUCache`'s.
    """

    __slots__ = ("_tables", "_capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise CryptoError(f"cache capacity must be positive, got {capacity}")
        # Least recently touched table first.
        self._tables: OrderedDict[object, LRUCache] = OrderedDict()
        self._capacity = capacity

    def _table(self, part: object) -> LRUCache:
        tables = self._tables
        table = tables.get(part)
        if table is None:
            table = tables.setdefault(part, LRUCache(self._capacity))
        tables.move_to_end(part)  # Tables are never removed.
        return table

    def get(self, part: object, key: object) -> object | None:
        return self._table(part).get(key)

    def get_many(self, part: object, keys: list) -> tuple[list, int]:
        return self._table(part).get_many(keys)

    def put(self, part: object, key: object, value: object) -> None:
        self._table(part).put(key, value)
        self._shrink()

    def put_many(self, part: object, keys: list, values: list) -> None:
        self._table(part).put_many(keys, values)
        self._shrink()

    def _shrink(self) -> None:
        tables = list(self._tables.values())
        excess = sum(map(len, tables)) - self._capacity
        for table in tables:
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
