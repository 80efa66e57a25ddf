"""Thread-safe LRU plan cache behind every way into the planner.

Planning is the client library's most expensive CPU phase after
decryption: the optimizing planner enumerates a power set of encryption
units and prices every candidate (§6.3–6.4).  Analytical workloads repeat
their statements — a dashboard refreshing, a service with many sessions
asking the same question — so :class:`~repro.core.client.MonomiClient`
memoizes :class:`~repro.core.planner.PlannedQuery` objects here, and
``execute``, ``execute_iter``, ``explain`` and the concurrent service all
share the one cache.

Keying rule
-----------
The cache has two levels behind one lock, one capacity and one LRU
policy.  The **normalized level** holds the plans, keyed on the pair

``(normalized SQL text, physical-design fingerprint)``

* *Normalized SQL text* — the query after
  :func:`~repro.core.normalize.normalize_query` (parameters bound,
  ``AVG`` expanded, constants folded), printed back to canonical SQL by
  :func:`~repro.sql.to_sql`.  Normalization runs **before** keying, so
  textual variants that plan identically (``avg(x)`` vs
  ``sum(x)/count(x)``, folded date arithmetic, whitespace) share one
  entry, while any semantic difference — including different bound
  parameter values, whose literals the planner encrypts into the plan —
  keys separately.  The printer keeps literal types apart (``1``,
  ``1.0``, ``TRUE`` and ``'1'`` print differently), and printing then
  parsing a normalized query gives the query back.
* *Design fingerprint* — :meth:`PhysicalDesign.fingerprint
  <repro.core.design.PhysicalDesign.fingerprint>`, a digest of every
  ⟨table, expression, scheme⟩ entry and homomorphic group.  A cached plan
  embeds server column names and ciphertext constants that only exist
  under the design it was planned against; fingerprinting the design into
  the key makes a stale plan unreachable rather than latently wrong.

The **text level** sits in front of it and maps what the caller passed —
the statement string and its parameters, :func:`text_cache_key` — to the
normalized key, so an exact repeat of a statement is answered without
parsing, normalizing or printing anything.  It is sound because the
normalized text is a function of the text key: each parameter is keyed by
⟨name, ``type(v)``, ``repr(v)``⟩, never by the value alone (``1 == True
== 1.0`` and ``0.0 == -0.0`` in Python, while the printer prints each of
them differently).  Only statement strings get a text key; a statement
passed as an AST takes the normalized level alone.  A text entry is filed
only beside a plan, after normalization succeeded: a parse error, the
multi-pattern-LIKE rejection or an unbound or unprintable parameter
raises again on every repeat.

Either way a statement makes exactly **one** counted lookup: a text-level
hit counts the hit; otherwise the normalized lookup counts the hit or the
miss.  A text entry whose plan was evicted is dropped uncounted, so the
statement re-plans with one counted miss.  ``entries`` and ``len()``
count plans, ``text_entries`` the text level, which is bounded by the
same capacity.

Cached plans are treated as immutable and shared across sessions; the
executor never mutates a plan, so concurrent executions of one cached
plan are safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.core.planner import PlannedQuery
from repro.sql import ast, to_sql

#: Entries the client's plan cache holds (distinct normalized statements).
PLAN_CACHE_SIZE = 128

PlanKey = tuple[str, str]
TextKey = tuple


def plan_cache_key(query: ast.Select, design_fingerprint: str) -> PlanKey:
    """The cache key for a *normalized* query under the design whose
    :meth:`~repro.core.design.PhysicalDesign.fingerprint` is given."""
    return (to_sql(query), design_fingerprint)


def text_cache_key(sql: object, params: dict[str, object] | None) -> TextKey | None:
    """The text-level key of a statement as the caller passed it, or
    ``None`` when ``sql`` is not a string (an AST takes the normalized
    level alone).  Parameter order does not matter."""
    if not isinstance(sql, str):
        return None
    if not params:
        return (sql,)
    return (sql, frozenset((name, type(v), repr(v)) for name, v in params.items()))


@dataclass(frozen=True)
class PlanCacheStats:
    """Point-in-time counters (consistent snapshot under the cache lock)."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int
    text_entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded LRU over planned queries, safe for concurrent sessions.

    Unlike the provider's lock-free crypto caches (where a racy
    double-compute re-derives the same ciphertext), a plan-cache miss
    costs a full planner run — so this cache takes a real lock around
    every operation and keeps exact hit/miss/eviction counters, which
    ``service.stats()`` exposes for operators to size the cache against
    their workload.
    """

    def __init__(self, capacity: int = PLAN_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ConfigError(f"plan cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[PlanKey, PlannedQuery] = OrderedDict()
        self._texts: OrderedDict[TextKey, PlanKey] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def get_text(self, text: TextKey) -> PlannedQuery | None:
        """Look up a plan by statement text, counting only a hit: on
        ``None`` the caller's normalized lookup counts this statement."""
        with self._lock:
            key = self._texts.get(text)
            if key is None:
                return None
            planned = self._data.get(key)
            if planned is None:
                del self._texts[text]
                return None
            self._texts.move_to_end(text)
            self._data.move_to_end(key)
            self._hits += 1
            return planned

    def get(self, key: PlanKey, text: TextKey | None = None) -> PlannedQuery | None:
        """Look up a plan, counting the hit or miss; a hit also files
        ``text`` under ``key``."""
        with self._lock:
            planned = self._data.get(key)
            if planned is None:
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            if text is not None:
                self._link(text, key)
            return planned

    def peek(self, key: PlanKey) -> PlannedQuery | None:
        """Counter-free, recency-free lookup.

        Used for the single-flight re-check after a counted miss: the
        thread that waited on the planning lock should not inflate the
        hit/miss counters a second time for the same logical lookup.
        """
        with self._lock:
            return self._data.get(key)

    def put(
        self, key: PlanKey, planned: PlannedQuery, text: TextKey | None = None
    ) -> None:
        """Store a plan, and file ``text`` under ``key`` when given."""
        with self._lock:
            self._data[key] = planned
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions += 1
            if text is not None:
                self._link(text, key)

    def _link(self, text: TextKey, key: PlanKey) -> None:
        """File a text entry (caller holds the lock)."""
        self._texts[text] = key
        self._texts.move_to_end(text)
        if len(self._texts) > self._capacity:
            self._texts.popitem(last=False)

    def clear(self) -> None:
        """Empty both levels (the counters keep counting)."""
        with self._lock:
            self._data.clear()
            self._texts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._data),
                capacity=self._capacity,
                text_entries=len(self._texts),
            )
