"""Sharded scatter-gather execution: N backends behind one seam (PR 9).

One backend store is the scale ceiling of the split architecture: every
query drains a single :class:`~repro.server.backend.ServerBackend`.  The
paper's encryption schemes make scatter-gather natural — DET equality,
OPE order, and Paillier addition all survive partitioning, so partial
results combine commutatively above N independent stores (the same
observation that lets MRV split one logical value over many physical
records: the combine op commutes).

:class:`ShardedBackend` implements the existing ``ServerBackend`` seam
over N inner backends plus a local *coordinator*
(:class:`~repro.engine.catalog.Database`) that holds replicated tables,
the packed-Paillier ciphertext store, and the merge engine.  Because it
is just another backend, it composes for free with streaming, chaos
wrapping, the service layer's worker views, and
:class:`~repro.net.client.RemoteBackend` shards (N TCP servers).

Row routing happens at load time: ``insert_rows`` assigns each row a
global ordinal (a hidden ``__shard_ord`` column appended to every shard
table) and routes it by the hash of its DET shard key — or by ordinal
when the schema has no DET column.  The ordinal is the merge fence:
every gather path re-establishes the exact serial row order by sorting
or merging on it, so plaintext rows, block boundaries, and ledger byte
counts are **shard-count-invariant** (N=1 is byte-identical to the
serial reference).

Query execution classifies the server query into four gather modes:

* **scan** — streamable scan: fan out with per-shard LIMIT, k-way merge
  of the shard streams on the (globally unique) ordinal, trim the global
  LIMIT;
* **ordered** — ORDER BY (OPE keys): per-shard top-k with the ordinal as
  final tiebreak, k-way sorted merge with the engine's exact NULL
  ordering per direction;
* **partial aggregation** — GROUP BY / aggregates: shards compute
  partial states (counts, OPE min/max, ``grp`` value lists, ``hom_agg``
  row-id lists), the coordinator merges groups by DET key in global
  first-encounter order and re-aggregates — Paillier partial sums
  recombine by ciphertext multiplication inside
  :class:`~repro.engine.aggregates.HomAgg` over the merged row ids;
* **general** — joins, DISTINCT, subqueries: gather the referenced
  partitioned tables (ordinal-sorted, so relation order is serial) into
  the coordinator and run the unmodified engine there.  For a comma or
  inner join of base tables each named once, with no subquery and no
  ``*``, each shard scan returns only the columns the query names and
  applies the WHERE conjuncts that read that table alone; any other
  shape gathers whole tables.

Every mode is one :meth:`ShardedBackend.execute_stream` and runs on its
caller's thread: a scan or ORDER BY pulls each shard's stream straight
into the k-way merge as the consumer pulls blocks, and the blocking
modes read the shards in turn before re-blocking their result.  A
permanent error on one shard is raised before the next shard is asked,
and closing the merged stream closes every shard's stream.

Scan-byte accounting is computed by the coordinator from the logical
(pre-ordinal) table sizes — one heap read per table occurrence plus the
ciphertext-store read window, exactly the serial engine's static
accounting — so the ledger never sees the shard topology.

The coordinator is the one retry loop on the coordinator ↔ shard hop:
a fault on one shard retries that shard alone.  A delete or replace
retries through :func:`~repro.common.retry.retry_call`; a bucket of an
insert through :func:`~repro.server.backend.insert_rows_idempotent`, so a
lost ack never stores the bucket twice; every read through
:class:`~repro.engine.rowblock.ResilientStream`, which re-opens only the
faulted shard's stream and fast-forwards past the rows it already
delivered.  Deletes and replaces match exact stored tuples, ordinal
included, so a retried one never touches a row twice.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.common.errors import ConfigError
from repro.common.retry import Deadline, RetryPolicy, retry_call
from repro.engine.aggregates import HomAgg
from repro.engine.catalog import Database
from repro.engine.executor import ExecStats, Executor, ResultSet, _mentioned_names
from repro.engine.rowblock import (
    DEFAULT_BLOCK_ROWS,
    BlockStream,
    ResilientStream,
    blocks_from_rows,
    rechunk_rows,
)
from repro.engine.schema import ColumnDef, TableSchema
from repro.server.backend import ServerBackend, insert_rows_idempotent
from repro.sql import ast
from repro.storage.rowcodec import encode_value, row_bytes

#: Hidden per-row global ordinal appended to every shard table: the merge
#: fence that re-establishes serial row order above the shards.
ORDINAL_COLUMN = "__shard_ord"

#: Scratch table name the partial-aggregation finalizer materializes
#: merged groups into (lives in a throwaway scratch Database).
_GROUPS_TABLE = "__sharded_groups"


def route_hash(value: object) -> int:
    """Deterministic shard-routing hash of one (ciphertext) cell value.

    Python's built-in ``hash`` is per-process salted; routing must be
    stable across processes (a TCP redeploy must find its rows), so the
    hash is SHA-256 over the rowcodec's canonical value encoding.
    """
    digest = hashlib.sha256(encode_value(value)).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Ordered-merge key: the engine's exact sort semantics, per direction
# ---------------------------------------------------------------------------


class DirectedKey:
    """One ORDER BY key value under the engine's comparison semantics.

    The serial engine sorts with repeated stable passes of
    ``_SortKey`` (NULLs last) and ``reverse=not ascending`` — equivalent
    to one lexicographic comparison where each key compares ascending
    with NULLs last, or descending with NULLs first.  This wrapper is
    that per-key comparison, so ``heapq.merge`` over per-shard sorted
    streams reproduces the serial order exactly (ties fall through to
    the ordinal tiebreak the caller appends).
    """

    __slots__ = ("value", "ascending")

    def __init__(self, value: object, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "DirectedKey") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            if a is None and b is None:
                return False
            # Ascending: NULLs last (a None is never less).  Descending
            # inverts the serial pass, putting NULLs first.
            return (a is None) != self.ascending
        return a < b if self.ascending else b < a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectedKey) and self.value == other.value

    def __hash__(self) -> int:  # pragma: no cover - keys are never hashed
        return hash((self.value, self.ascending))


def merge_sorted_rows(
    shard_rows: Sequence[Iterable[tuple]],
    key_slots: Sequence[tuple[int, bool]],
    ordinal_slot: int,
    limit: int | None = None,
) -> Iterator[tuple]:
    """K-way merge of per-shard sorted rows into the serial total order.

    ``key_slots`` is ``[(column_index, ascending), ...]``; the ordinal at
    ``ordinal_slot`` breaks every remaining tie (it is globally unique),
    which makes the merge exact, not merely stable.  Each input must
    already be sorted by the same composite — true by construction, the
    shard query ends with an ascending ordinal ORDER BY key.
    """

    def sort_key(row: tuple) -> tuple:
        directed = tuple(
            DirectedKey(row[slot], ascending) for slot, ascending in key_slots
        )
        return directed + (row[ordinal_slot],)

    merged = heapq.merge(*shard_rows, key=sort_key)
    if limit is None:
        yield from merged
        return
    for count, row in enumerate(merged):
        if count >= limit:
            return
        yield row


def sort_by_ordinal(
    shard_rows: Sequence[Iterable[tuple]], ordinal_slot: int
) -> list[tuple]:
    """The serial scan order of a partitioned table, ordinal kept: one sort
    of the concatenated shard rows.  Ordinals are globally unique, so this
    is the order the k-way ordinal merge gives, without a key per row."""
    rows: list[tuple] = []
    for chunk in shard_rows:
        rows.extend(chunk)
    rows.sort(key=itemgetter(ordinal_slot))
    return rows


# ---------------------------------------------------------------------------
# Partial-aggregation plan (mode 3)
# ---------------------------------------------------------------------------


@dataclass
class _AggSpec:
    """How one aggregate call is partialized and merged.

    ``kind`` selects the merge rule; ``slots`` maps the shard query's
    partial columns (by alias) feeding this aggregate.
    """

    call: ast.FuncCall
    kind: str  # count | sum | min | max | avg | grp | hom | distinct
    slots: dict[str, str] = field(default_factory=dict)


@dataclass
class _PartialPlan:
    """A mode-3 execution recipe: shard query + merge + finalize query."""

    shard_query: ast.Select
    key_count: int
    specs: list[_AggSpec]
    final_query: ast.Select
    needs_pairs: bool  # Any spec consuming the shared grp(ordinal) column.


class _Unsupported(Exception):
    """Internal: this query shape has no partial-aggregation recipe."""


def _subqueries_anywhere(query: ast.Select) -> bool:
    """Whether a subquery appears in any expression slot of ``query``
    (FROM items are the caller's to check)."""
    exprs: list[ast.Expr] = [item.expr for item in query.items]
    exprs.extend(query.group_by)
    exprs.extend(o.expr for o in query.order_by)
    if query.where is not None:
        exprs.append(query.where)
    if query.having is not None:
        exprs.append(query.having)
    return any(ast.find_subqueries(e) for e in exprs)


def _join_tables(refs: Sequence[ast.TableRef]) -> list[ast.TableName] | None:
    """The base tables of a comma or inner join, or None for any other
    FROM: a FROM subquery, an outer join, a subquery in an ON condition."""
    tables: list[ast.TableName] = []
    for ref in refs:
        if isinstance(ref, ast.TableName):
            tables.append(ref)
            continue
        if not isinstance(ref, ast.Join) or ref.kind != "inner":
            return None
        if ref.condition is not None and ast.find_subqueries(ref.condition):
            return None
        inner = _join_tables((ref.left, ref.right))
        if inner is None:
            return None
        tables.extend(inner)
    return tables


def _unqualified(expr: ast.Expr) -> ast.Expr:
    """``expr`` with every column qualifier dropped (for a one-table scan)."""

    def strip(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Column) and node.table is not None:
            return ast.Column(node.name)
        return node

    return ast.transform(expr, strip)


def _resolve_aliases(query: ast.Select, expr: ast.Expr) -> ast.Expr:
    """Replace bare output-alias references with the aliased expression
    (HAVING / ORDER BY may name an item alias; partializing needs the
    underlying expression)."""
    aliases = {
        item.alias: item.expr for item in query.items if item.alias is not None
    }

    def sub(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Column) and node.table is None:
            replacement = aliases.get(node.name)
            if replacement is not None:
                return replacement
        return node

    return ast.transform(expr, sub)


class ShardedBackend(ServerBackend):
    """N independent ``ServerBackend`` shards behind the single-server seam."""

    kind = "sharded"

    #: Bucket commits are per shard, not a prefix of the request order:
    #: a partially applied insert cannot be resumed by slicing the batch
    #: (see ``insert_rows_idempotent`` in ``server.backend``).
    supports_prefix_resume = False

    def __init__(
        self,
        shards: Sequence[ServerBackend],
        name: str = "server",
        shard_keys: dict[str, str | None] | None = None,
        retry_policy: RetryPolicy | None = None,
        _shared: "ShardedBackend | None" = None,
    ) -> None:
        if not shards:
            raise ConfigError("ShardedBackend needs at least one shard")
        self.shards = list(shards)
        self.last_stats = ExecStats()
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        if _shared is not None:
            # A re-pointed topology (e.g. the same loaded data served by
            # RemoteBackend shards): share every piece of coordinator
            # state so introspection, routing, and planning are
            # unchanged — only where queries are sent differs.
            self._db = _shared._db
            self._tables = _shared._tables
            self._shard_keys = _shared._shard_keys
            self._gather_lock = _shared._gather_lock
        else:
            self._db = Database(f"{name}_coordinator")
            self._tables: dict[str, _ShardedTable] = {}
            self._shard_keys = dict(shard_keys or {})
            self._gather_lock = threading.Lock()
        self._executor = Executor(self._db)

    # -- topology ------------------------------------------------------------

    def with_shards(self, shards: Sequence[ServerBackend]) -> "ShardedBackend":
        """The same loaded coordinator state over a different shard set.

        The TCP deployment path: load in-process, serve each shard with
        its own :class:`~repro.net.MonomiServer`, then re-point the
        coordinator at N :class:`RemoteBackend` connections.  The shard
        count and per-table routing must match the loaded topology.
        """
        if len(shards) != len(self.shards):
            raise ConfigError(
                f"shard topology mismatch: loaded {len(self.shards)} "
                f"shards, got {len(shards)}"
            )
        return ShardedBackend(
            shards, retry_policy=self.retry_policy, _shared=self
        )

    @property
    def ciphertext_store(self):
        # Packed-Paillier files live on the coordinator only: the grp()
        # rewrite ships row-id lists, never ciphertexts, so shards hold
        # table heaps and nothing else.
        return self._db.ciphertext_store

    def _retry_rng(self) -> random.Random:
        # Fixed-seed jitter, same discipline as the plan executor: fault
        # schedules replay with identical retry timing.
        return random.Random(0x5EED)

    # -- loading -------------------------------------------------------------

    def _route_column(self, schema: TableSchema) -> int | None:
        """Schema position of the DET shard key, or None (ordinal routing).

        The designer chooses by name: an explicit ``shard_keys`` entry
        wins; otherwise the first DET column in schema order (its
        deterministic ciphertexts make equal plaintexts co-resident, the
        leakage already in the DET budget).
        """
        choice = self._shard_keys.get(schema.name, "")
        if choice is None:
            raise ConfigError(
                f"table {schema.name!r} is marked replicated; it has no "
                "shard route"
            )
        if choice:
            try:
                return schema.column_index(choice)
            except Exception:
                raise ConfigError(
                    f"shard key {choice!r} is not a column of "
                    f"{schema.name!r}"
                ) from None
        for index, column in enumerate(schema.columns):
            if column.name.endswith("_det"):
                return index
        return None

    def _is_replicated(self, table_name: str) -> bool:
        return (
            table_name in self._shard_keys
            and self._shard_keys[table_name] is None
        )

    def create_table(self, schema: TableSchema) -> None:
        if self._is_replicated(schema.name):
            self._db.create_table(schema)
            return
        shard_schema = TableSchema(
            name=schema.name,
            columns=tuple(schema.columns) + (ColumnDef(ORDINAL_COLUMN, "int"),),
        )
        for shard in self.shards:
            shard.create_table(shard_schema)
        self._tables[schema.name] = _ShardedTable(
            schema=schema,
            shard_schema=shard_schema,
            route_index=self._route_column(schema),
        )

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        meta = self._tables.get(table_name)
        if meta is None:
            self._db.table(table_name).insert_many(rows)
            return
        count = len(self.shards)
        buckets: list[list[tuple]] = [[] for _ in range(count)]
        bucket_bytes = [0] * count
        ordinal = meta.next_ordinal
        for row in rows:
            if meta.route_index is None:
                target = ordinal % count
            else:
                target = route_hash(row[meta.route_index]) % count
            bucket_bytes[target] += row_bytes(row)
            buckets[target].append(tuple(row) + (ordinal,))
            ordinal += 1
        # Per-shard inserts retry independently, each bucket exactly once
        # (a shard that committed but lost its ack is not sent the bucket
        # again).  The ordinal watermark and byte accounting advance per
        # committed bucket — not once at the end — so a failure on a later
        # bucket cannot leave `next_ordinal` below ordinals an earlier
        # bucket already committed (a caller-level retry would then mint
        # duplicate `__shard_ord` values for the surviving rows).
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            insert_rows_idempotent(
                self.shards[index],
                table_name,
                bucket,
                self.retry_policy,
                self._retry_rng(),
            )
            meta.next_ordinal = max(meta.next_ordinal, bucket[-1][-1] + 1)
            meta.logical_bytes += bucket_bytes[index]

    def create_indexes(self, table_name: str, columns: Iterable[str]) -> None:
        if table_name not in self._tables:
            # Replicated tables live in the coordinator's engine, which
            # keeps no index; an unknown name raises here.
            self._db.table(table_name)
            return
        columns = list(columns)
        for shard in self.shards:
            shard.create_indexes(table_name, columns)

    # -- encrypted DML (PR 10) -----------------------------------------------
    #
    # DML requests address rows by their *logical* encrypted tuples
    # (without the hidden ordinal — callers never see it).  The
    # coordinator gathers each shard's stored rows, matches requests in
    # global ordinal order (deterministic under any shard interleaving),
    # and forwards full shard rows — ordinal included, so each forwarded
    # tuple is globally unique and a shard-side exact match can never
    # touch a sibling duplicate.  Replaced rows keep their ordinal and
    # shard: DET-key co-residency may drift after updates, but routing
    # is a locality optimization — merges are key-exact regardless.

    def _gathered_rows(
        self, table_name: str, meta: "_ShardedTable", wanted: Iterable[tuple]
    ) -> list[tuple[int, tuple]]:
        """The stored ``(shard_index, full_row)`` that can match one of the
        ``wanted`` logical tuples, ordinal-sorted.

        Each shard filters its scan with an IN-set on the stored column
        that takes the fewest distinct values among the requests — every
        stored match passes it, so matching stays exact.  A column with a
        NULL among the requests (``IN`` never matches NULL) or without
        literal values (tag sets) cannot carry the filter.

        Fewest values keeps the IN-set short, not the gather small: a
        low-cardinality column (one status shared by every request) wins
        over a unique one (the hom row id) and lets through every stored
        row with that status.  Never more than the whole-table gather it
        replaces, and exactly the candidates when the write's own WHERE
        was an equality on that column — the common case.
        """
        narrowest: tuple[str, set] | None = None
        for position, column in enumerate(meta.schema.columns):
            if column.type in ("tagset", "any"):
                continue
            values = {row[position] for row in wanted}
            if None in values or not values:
                continue
            if narrowest is None or len(values) < len(narrowest[1]):
                narrowest = (column.name, values)
        where = None
        if narrowest is not None:
            name, values = narrowest
            where = ast.InList(
                ast.Column(name), tuple(ast.Literal(v) for v in sorted(values))
            )
        scan = ast.Select(
            items=tuple(
                ast.SelectItem(ast.Column(c.name))
                for c in meta.shard_schema.columns
            ),
            from_items=(ast.TableName(table_name),),
            where=where,
        )
        pairs: list[tuple[int, tuple]] = []
        for index, rows in enumerate(self._fan_rows(scan, None, None)):
            pairs.extend((index, row) for row in rows)
        pairs.sort(key=lambda pair: pair[1][-1])
        return pairs

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        meta = self._tables.get(table_name)
        if meta is None:
            return self._db.table(table_name).delete_exact(rows)
        wanted: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row)
            wanted[key] = wanted.get(key, 0) + 1
        if not wanted:
            return 0
        batches: list[list[tuple]] = [[] for _ in self.shards]
        for index, full in self._gathered_rows(table_name, meta, wanted):
            logical = full[:-1]
            count = wanted.get(logical, 0)
            if count:
                wanted[logical] = count - 1
                batches[index].append(full)
        removed = 0
        # Per-shard accounting, same discipline as insert: a later
        # shard's fatal failure must not un-account an earlier shard's
        # committed deletes.
        for index, batch in enumerate(batches):
            if not batch:
                continue
            self._on_shard(lambda: self.shards[index].delete_rows(table_name, batch))
            # The matched rows are gone once the shard call converges —
            # a faulted-then-retried attempt may report a smaller count
            # for rows the first attempt already removed, so accounting
            # follows the match set, not the last attempt's return.
            removed += len(batch)
            meta.logical_bytes -= sum(row_bytes(r[:-1]) for r in batch)
        return removed

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        meta = self._tables.get(table_name)
        if meta is None:
            return self._db.table(table_name).replace_exact(pairs)
        pending: dict[tuple, list[tuple]] = {}
        total = 0
        for old, new in pairs:
            pending.setdefault(tuple(old), []).append(tuple(new))
            total += 1
        if not total:
            return 0
        batches: list[list[tuple[tuple, tuple]]] = [[] for _ in self.shards]
        deltas = [0] * len(self.shards)
        for index, full in self._gathered_rows(table_name, meta, pending):
            logical = full[:-1]
            waiting = pending.get(logical)
            if waiting:
                new = waiting.pop(0)
                new_full = tuple(new) + (full[-1],)
                batches[index].append((full, new_full))
                deltas[index] += row_bytes(tuple(new)) - row_bytes(logical)
        replaced = 0
        for index, batch in enumerate(batches):
            if not batch:
                continue
            self._on_shard(lambda: self.shards[index].replace_rows(table_name, batch))
            replaced += len(batch)
            meta.logical_bytes += deltas[index]
        return replaced

    # -- introspection -------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(set(self._tables) | set(self._db.tables))

    def table_bytes(self, table_name: str) -> int:
        meta = self._tables.get(table_name)
        if meta is not None:
            return meta.logical_bytes
        return self._db.table(table_name).total_bytes

    def has_table(self, table_name: str) -> bool:
        return table_name in self._tables or self._db.has_table(table_name)

    def row_count(self, table_name: str) -> int:
        meta = self._tables.get(table_name)
        if meta is None:
            return len(self._db.table(table_name).rows)
        return sum(shard.row_count(table_name) for shard in self.shards)

    def adopt_table(self, schema: TableSchema) -> None:
        """Resume support: re-register a partitioned table against shard
        data a previous load committed, recovering the logical byte count
        and the ordinal watermark by scanning the shards once."""
        if self._is_replicated(schema.name):
            self._db.table(schema.name)
            return
        if schema.name in self._tables:
            return
        shard_schema = TableSchema(
            name=schema.name,
            columns=tuple(schema.columns) + (ColumnDef(ORDINAL_COLUMN, "int"),),
        )
        meta = _ShardedTable(
            schema=schema,
            shard_schema=shard_schema,
            route_index=self._route_column(schema),
        )
        for shard in self.shards:
            shard.adopt_table(shard_schema)
            if shard.row_count(schema.name) == 0:
                continue
            scan = ast.Select(
                items=tuple(
                    ast.SelectItem(ast.Column(c.name))
                    for c in shard_schema.columns
                ),
                from_items=(ast.TableName(schema.name),),
            )
            for row in shard.execute(scan).rows:
                meta.logical_bytes += row_bytes(row[:-1])
                meta.next_ordinal = max(meta.next_ordinal, row[-1] + 1)
        self._tables[schema.name] = meta

    # -- query execution -----------------------------------------------------

    def _partitioned_in(self, query: ast.Select) -> list[str]:
        seen: list[str] = []
        for name in ast.table_occurrences(query):
            if name in self._tables and name not in seen:
                seen.append(name)
        return seen

    def _classify(
        self, query: ast.Select
    ) -> tuple[str, _PartialPlan | None]:
        """Pick the gather mode for one server query."""
        partitioned = self._partitioned_in(query)
        if not partitioned:
            return "local", None
        simple = (
            len(query.from_items) == 1
            and isinstance(query.from_items[0], ast.TableName)
            and query.from_items[0].name in self._tables
            and not _subqueries_anywhere(query)
        )
        if not simple:
            return "general", None
        has_aggregates = query.group_by or any(
            ast.contains_aggregate(item.expr) for item in query.items
        )
        if has_aggregates:
            try:
                return "partial", self._plan_partial(query)
            except _Unsupported:
                return "general", None
        if query.distinct or query.having is not None:
            return "general", None
        if query.order_by:
            return "ordered", None
        return "scan", None

    def _scan_stats(self, query: ast.Select) -> ExecStats:
        """Static scan accounting, identical to the serial engine: one
        logical heap read per table occurrence, charged up front."""
        stats = ExecStats()
        for name in ast.table_occurrences(query):
            if self.has_table(name):
                stats.bytes_scanned += self.table_bytes(name)
        return stats

    # -- fan-out primitives --------------------------------------------------

    def _on_shard(self, call):
        """Run one write on one shard, retrying that shard alone."""
        return retry_call(call, self.retry_policy, rng=self._retry_rng())

    def _fan_rows(
        self,
        query: ast.Select,
        params: dict[str, object] | None,
        deadline: Deadline | None,
    ) -> list[list[tuple]]:
        """Every shard's rows for one query, asking the shards in turn;
        each read resumes on its own shard (:meth:`_shard_rows`)."""
        return [
            list(chain.from_iterable(self._shard_rows(index, query, params, deadline)))
            for index in range(len(self.shards))
        ]

    # -- mode: scan ----------------------------------------------------------

    def _scan_query(self, query: ast.Select) -> ast.Select:
        items = tuple(query.items) + (
            ast.SelectItem(ast.Column(ORDINAL_COLUMN), ORDINAL_COLUMN),
        )
        return ast.Select(
            items=items,
            from_items=query.from_items,
            where=query.where,
            limit=query.limit,
        )

    # -- mode: ordered -------------------------------------------------------

    def _ordered_query(
        self, query: ast.Select
    ) -> tuple[ast.Select, list[tuple[int, bool]]]:
        """Shard query for an ORDER BY scan plus merge-key column slots.

        ORDER BY keys that already are items (by structural equality or
        output alias) reuse the item's column; anything else rides along
        as an extra projected item.  The shard-side ORDER BY appends the
        ordinal ascending, making each shard's output a total order the
        k-way merge can consume exactly.
        """
        items = list(query.items)
        key_slots: list[tuple[int, bool]] = []
        extra = 0
        for order in query.order_by:
            slot = None
            for index, item in enumerate(query.items):
                alias_match = (
                    isinstance(order.expr, ast.Column)
                    and order.expr.table is None
                    and item.alias == order.expr.name
                )
                if item.expr == order.expr or alias_match:
                    slot = index
                    break
            if slot is None:
                slot = len(items)
                items.append(ast.SelectItem(order.expr, f"__okey{extra}"))
                extra += 1
            key_slots.append((slot, order.ascending))
        ordinal_slot = len(items)
        items.append(ast.SelectItem(ast.Column(ORDINAL_COLUMN), ORDINAL_COLUMN))
        shard_query = ast.Select(
            items=tuple(items),
            from_items=query.from_items,
            where=query.where,
            order_by=tuple(query.order_by)
            + (ast.OrderItem(ast.Column(ORDINAL_COLUMN)),),
            limit=query.limit,
        )
        return shard_query, key_slots

    # -- mode: partial aggregation ------------------------------------------

    def _plan_partial(self, query: ast.Select) -> _PartialPlan:
        """Build the shard partial query + merge plan, or raise
        :class:`_Unsupported` (the general gather handles anything)."""
        key_exprs = list(query.group_by)
        key_index = {expr: j for j, expr in enumerate(key_exprs)}
        having = (
            _resolve_aliases(query, query.having)
            if query.having is not None
            else None
        )
        order_by = tuple(
            ast.OrderItem(_resolve_aliases(query, o.expr), o.ascending)
            for o in query.order_by
        )

        aggregates: list[ast.FuncCall] = []
        agg_index: dict[ast.FuncCall, int] = {}
        sources: list[ast.Expr] = [item.expr for item in query.items]
        if having is not None:
            sources.append(having)
        sources.extend(o.expr for o in order_by)
        for expr in sources:
            for call in ast.find_aggregates(expr):
                if call not in agg_index:
                    agg_index[call] = len(aggregates)
                    aggregates.append(call)

        shard_items: list[ast.SelectItem] = [
            ast.SelectItem(expr, f"__k{j}") for j, expr in enumerate(key_exprs)
        ]
        specs: list[_AggSpec] = []
        needs_pairs = False

        def add_item(expr: ast.Expr, alias: str) -> str:
            shard_items.append(ast.SelectItem(expr, alias))
            return alias

        for position, call in enumerate(aggregates):
            label = f"__a{position}"
            arg = call.args[0] if call.args else None
            if call.name in ("hom_agg", "paillier_sum"):
                if call.distinct or len(call.args) != 2:
                    raise _Unsupported()
                file_expr = call.args[0]
                if not isinstance(file_expr, ast.Literal):
                    raise _Unsupported()
                spec = _AggSpec(call, "hom")
                spec.slots["ids"] = add_item(
                    ast.FuncCall("grp", (call.args[1],)), label
                )
            elif call.name == "count":
                if call.distinct:
                    if call.star or arg is None:
                        raise _Unsupported()
                    spec = _AggSpec(call, "count_distinct")
                    spec.slots["values"] = add_item(
                        ast.FuncCall("grp", (arg,)), label
                    )
                else:
                    spec = _AggSpec(call, "count")
                    spec.slots["partial"] = add_item(call, label)
            elif call.name in ("min", "max"):
                spec = _AggSpec(call, call.name)
                spec.slots["partial"] = add_item(
                    ast.FuncCall(call.name, call.args), label
                )
            elif call.name in ("sum", "avg") and call.distinct:
                # Exact distinct-order semantics: dedupe over the merged
                # (ordinal, value) pairs in global first-encounter order,
                # then feed the serial aggregate.
                if arg is None:
                    raise _Unsupported()
                spec = _AggSpec(call, "distinct")
                spec.slots["values"] = add_item(
                    ast.FuncCall("grp", (arg,)), label
                )
                needs_pairs = True
            elif call.name == "sum":
                spec = _AggSpec(call, "sum")
                spec.slots["partial"] = add_item(call, label)
            elif call.name == "avg":
                if arg is None:
                    raise _Unsupported()
                spec = _AggSpec(call, "avg")
                spec.slots["sum"] = add_item(
                    ast.FuncCall("sum", (arg,)), f"{label}s"
                )
                spec.slots["count"] = add_item(
                    ast.FuncCall("count", (arg,)), f"{label}c"
                )
            elif call.name == "grp":
                if call.distinct or arg is None:
                    raise _Unsupported()
                spec = _AggSpec(call, "grp")
                spec.slots["values"] = add_item(
                    ast.FuncCall("grp", (arg,)), label
                )
                needs_pairs = True
            else:  # pragma: no cover - AGGREGATE_FUNCTIONS is closed
                raise _Unsupported()
            specs.append(spec)

        gmin_alias = add_item(
            ast.FuncCall("min", (ast.Column(ORDINAL_COLUMN),)), "__gmin"
        )
        del gmin_alias
        if needs_pairs:
            add_item(ast.FuncCall("grp", (ast.Column(ORDINAL_COLUMN),)), "__gord")

        shard_query = ast.Select(
            items=tuple(shard_items),
            from_items=query.from_items,
            where=query.where,
            group_by=tuple(key_exprs),
        )

        # Finalize query over the merged-groups scratch table: replace
        # aggregate calls with their merged columns and group-key
        # expressions with their key columns; any other column reference
        # means the value is not derivable from partials -> unsupported.
        def rewrite(expr: ast.Expr) -> ast.Expr:
            if expr in key_index:
                return ast.Column(f"__k{key_index[expr]}")
            if ast.is_aggregate_call(expr) and expr in agg_index:
                return ast.Column(f"__a{agg_index[expr]}")
            if isinstance(
                expr, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)
            ):
                raise _Unsupported()
            if isinstance(expr, ast.Column):
                raise _Unsupported()
            return ast._rebuild_children(expr, rewrite)

        final_query = ast.Select(
            items=tuple(
                ast.SelectItem(rewrite(item.expr), item.output_name(i))
                for i, item in enumerate(query.items)
            ),
            from_items=(ast.TableName(_GROUPS_TABLE),),
            where=rewrite(having) if having is not None else None,
            order_by=tuple(
                ast.OrderItem(rewrite(o.expr), o.ascending) for o in order_by
            ),
            limit=query.limit,
        )
        return _PartialPlan(
            shard_query=shard_query,
            key_count=len(key_exprs),
            specs=specs,
            final_query=final_query,
            needs_pairs=needs_pairs,
        )

    def _execute_partial(
        self,
        plan: _PartialPlan,
        params: dict[str, object] | None,
        deadline: Deadline | None,
    ) -> list[tuple]:
        key_count = plan.key_count
        groups: dict[tuple, list[list[tuple]]] = {}
        order: list[tuple] = []
        for rows in self._fan_rows(plan.shard_query, params, deadline):
            for row in rows:
                marker = tuple(
                    tuple(v) if isinstance(v, list) else v
                    for v in row[:key_count]
                )
                partials = groups.get(marker)
                if partials is None:
                    partials = []
                    groups[marker] = partials
                    order.append(marker)
                partials.append(row)

        # Global first-encounter order == ascending min-ordinal.  The
        # min(ordinal) column sits right after the per-aggregate slots;
        # it is None only for the empty-input identity row (at most one
        # group exists then, so the sort is vacuous).
        gmin_slot = key_count + sum(len(s.slots) for s in plan.specs)
        pairs_slot = gmin_slot + 1

        def group_min(marker: tuple) -> int:
            values = [
                row[gmin_slot]
                for row in groups[marker]
                if row[gmin_slot] is not None
            ]
            return min(values) if values else -1

        order.sort(key=group_min)

        # Slot layout of one shard partial row mirrors add_item order.
        slot_of: dict[tuple[int, str], int] = {}
        cursor = key_count
        for position, spec in enumerate(plan.specs):
            for slot_name in spec.slots:
                slot_of[(position, slot_name)] = cursor
                cursor += 1

        merged_rows: list[tuple] = []
        store = self._db.ciphertext_store
        for marker in order:
            partials = groups[marker]
            values: list[object] = list(partials[0][:key_count])
            for position, spec in enumerate(plan.specs):
                values.append(
                    self._merge_aggregate(
                        spec, position, partials, slot_of, pairs_slot, store
                    )
                )
            gmin = group_min(marker)
            merged_rows.append(tuple(values) + (gmin,))

        scratch = Database("sharded_merge")
        columns = [
            ColumnDef(f"__k{j}", "any") for j in range(key_count)
        ] + [ColumnDef(f"__a{i}", "any") for i in range(len(plan.specs))]
        columns.append(ColumnDef("__gmin", "any"))
        table = scratch.create_table(
            TableSchema(name=_GROUPS_TABLE, columns=tuple(columns))
        )
        table.rows = merged_rows  # Bypass sizing: scratch is never charged.
        final = Executor(scratch).execute(plan.final_query, params=params)
        return final.rows

    def _merge_aggregate(
        self,
        spec: _AggSpec,
        position: int,
        partials: list[tuple],
        slot_of: dict[tuple[int, str], int],
        pairs_slot: int,
        store,
    ) -> object:
        def column(slot_name: str) -> list[object]:
            slot = slot_of[(position, slot_name)]
            return [row[slot] for row in partials]

        kind = spec.kind
        if kind == "count":
            return sum(v for v in column("partial") if v is not None)
        if kind == "sum":
            values = [v for v in column("partial") if v is not None]
            return sum(values) if values else None
        if kind in ("min", "max"):
            values = [v for v in column("partial") if v is not None]
            if not values:
                return None
            return min(values) if kind == "min" else max(values)
        if kind == "avg":
            sums = [v for v in column("sum") if v is not None]
            count = sum(v for v in column("count") if v is not None)
            if not count:
                return None
            return sum(sums) / count
        if kind == "count_distinct":
            seen: set = set()
            for values in column("values"):
                seen.update(v for v in values if v is not None)
            return len(seen)
        if kind == "hom":
            agg = HomAgg(store)
            file_name = spec.call.args[0].value
            for ids in column("ids"):
                for row_id in ids:
                    agg.update([file_name, row_id])
            return agg.finalize()
        # Order-sensitive merges: interleave per-shard grp() lists by the
        # shared grp(ordinal) column back into the serial scan order.
        ordered = self._ordered_values(
            spec, position, partials, slot_of, pairs_slot
        )
        if kind == "grp":
            return tuple(ordered)
        if kind == "distinct":
            unique: dict = {}
            for value in ordered:
                key = tuple(value) if isinstance(value, list) else value
                if key not in unique:
                    unique[key] = value
            values = [v for v in unique.values() if v is not None]
            if spec.call.name == "sum":
                return sum(values) if values else None
            if not values:
                return None
            return sum(values) / len(values)
        raise ConfigError(f"unknown merge kind {kind!r}")  # pragma: no cover

    def _ordered_values(
        self,
        spec: _AggSpec,
        position: int,
        partials: list[tuple],
        slot_of: dict[tuple[int, str], int],
        pairs_slot: int,
    ) -> list[object]:
        slot = slot_of[(position, "values")]
        pairs: list[tuple[int, object]] = []
        for row in partials:
            ordinals = row[pairs_slot]
            values = row[slot]
            pairs.extend(zip(ordinals, values))
        pairs.sort(key=lambda pair: pair[0])
        return [value for _, value in pairs]

    # -- mode: general gather ------------------------------------------------

    def _gather_shape(
        self, query: ast.Select
    ) -> dict[str, tuple[tuple[ColumnDef, ...], ast.Expr | None]]:
        """Per partitioned table the query reads: the columns to gather and
        the WHERE its shards' scan applies.

        For a comma or inner join of base tables, each named once, with no
        subquery and no ``*``: the columns of each table whose names the
        query mentions anywhere, and the WHERE conjuncts whose every column
        resolves to that table alone, qualifiers stripped.  A name the
        query mentions is gathered from every table that has it, so the
        engine resolves (or finds ambiguous) exactly what it would over
        the full tables; it re-applies each pushed conjunct, which only
        narrows its input the way its own pre-join pushdown does.  Any
        other shape gathers every column and no filter.
        """
        names = self._partitioned_in(query)
        shape = {name: (self._tables[name].schema.columns, None) for name in names}
        tables = _join_tables(query.from_items)
        if tables is None or _subqueries_anywhere(query):
            return shape
        mentioned = _mentioned_names(query)
        if mentioned is None or len({ref.name for ref in tables}) != len(tables):
            return shape
        schemas: dict[str, TableSchema] = {}
        for ref in tables:
            if ref.binding in schemas or not self.has_table(ref.name):
                return shape
            meta = self._tables.get(ref.name)
            schemas[ref.binding] = (
                meta.schema if meta is not None else self._db.table(ref.name).schema
            )

        def owner(column: ast.Column) -> str | None:
            if column.table is None:
                candidates = list(schemas.values())
            else:
                candidates = [schemas.get(column.table)]
            homes = [s.name for s in candidates if s and s.has_column(column.name)]
            return homes[0] if len(homes) == 1 else None

        pushed: dict[str, list[ast.Expr]] = {name: [] for name in names}
        for conjunct in ast.conjuncts(query.where):
            owners = {owner(column) for column in ast.find_columns(conjunct)}
            home = owners.pop() if len(owners) == 1 else None
            if home in pushed:
                pushed[home].append(_unqualified(conjunct))
        for name in names:
            columns = tuple(
                c for c in self._tables[name].schema.columns if c.name in mentioned
            )
            shape[name] = (columns, ast.conjoin(pushed[name]))
        return shape

    def _gather_rows(
        self,
        table_name: str,
        deadline: Deadline | None,
        columns: tuple[ColumnDef, ...],
        where: ast.Expr | None,
        params: dict[str, object] | None,
    ) -> list[tuple]:
        """The ``columns`` of one partitioned table's rows that pass
        ``where``, in serial (ordinal) order, ordinal stripped."""
        scan = ast.Select(
            items=tuple(ast.SelectItem(ast.Column(c.name)) for c in columns)
            + (ast.SelectItem(ast.Column(ORDINAL_COLUMN)),),
            from_items=(ast.TableName(table_name),),
            where=where,
        )
        rows = sort_by_ordinal(self._fan_rows(scan, params, deadline), len(columns))
        return [row[:-1] for row in rows]

    def _execute_general(
        self,
        query: ast.Select,
        params: dict[str, object] | None,
        deadline: Deadline | None,
    ) -> ResultSet:
        """Gather what the query reads of each partitioned table into the
        coordinator and run the unmodified engine there: exact for every
        query shape.  Each scratch table holds only the gathered columns
        and charges the table's logical bytes, as the serial scan does."""
        with self._gather_lock:
            created: list[str] = []
            try:
                for name, (columns, where) in self._gather_shape(query).items():
                    rows = self._gather_rows(name, deadline, columns, where, params)
                    table = self._db.create_table(TableSchema(name, columns))
                    created.append(name)
                    table.rows = rows
                    table.total_bytes = self._tables[name].logical_bytes
                return self._executor.execute(query, params=params)
            finally:
                for name in created:
                    self._db.drop_table(name)

    # -- streaming -----------------------------------------------------------

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        """Dispatch on the gather mode: a scan or ORDER BY streams through
        the k-way merge; every other mode is blocking, so it materializes
        and re-blocks."""
        mode, plan = self._classify(query)
        if mode in ("scan", "ordered"):
            return self._stream_merged(query, params, block_rows, deadline, mode)
        if mode == "partial":
            stats = self._scan_stats(query)
            store = self._db.ciphertext_store
            store_start = store.bytes_read
            rows = self._execute_partial(plan, params, deadline)
            # Plus whatever the merge read from the ciphertext store.
            stats.bytes_scanned += store.bytes_read - store_start
            stats.rows_output = len(rows)
            columns = [item.output_name(i) for i, item in enumerate(query.items)]
        else:
            if mode == "general":
                result = self._execute_general(query, params, deadline)
            else:
                result = self._executor.execute(query, params=params)
            stats = self._executor.last_stats
            columns, rows = result.columns, result.rows
        self.last_stats = stats
        blocks = blocks_from_rows(rows, len(columns), block_rows)
        return BlockStream(columns, blocks, stats)

    def _stream_merged(
        self,
        query: ast.Select,
        params: dict[str, object] | None,
        block_rows: int,
        deadline: Deadline | None,
        mode: str,
    ) -> BlockStream:
        """Scatter-gather streaming on the consumer's thread: each shard's
        stream feeds the k-way merge directly, serial block boundaries via
        :func:`rechunk_rows`."""
        if mode == "ordered":
            shard_query, key_slots = self._ordered_query(query)
        else:
            shard_query, key_slots = self._scan_query(query), []
        width = len(query.items)
        ordinal_slot = len(shard_query.items) - 1
        stats = self.last_stats = self._scan_stats(query)
        columns = [item.output_name(i) for i, item in enumerate(query.items)]

        def merged_chunks() -> Iterator[list[tuple]]:
            sources = [
                self._shard_rows(index, shard_query, params, deadline, block_rows)
                for index in range(len(self.shards))
            ]
            try:
                merged = merge_sorted_rows(
                    [chain.from_iterable(source) for source in sources],
                    key_slots,
                    ordinal_slot,
                    query.limit,
                )
                chunk: list[tuple] = []
                for row in merged:
                    chunk.append(row[:width])
                    if len(chunk) >= block_rows:
                        if deadline is not None:
                            deadline.check("sharded stream")
                        yield chunk
                        chunk = []
                if chunk:
                    yield chunk
            finally:
                for source in sources:
                    source.close()

        blocks = rechunk_rows(merged_chunks(), width, block_rows, stats)
        return BlockStream(columns, blocks, stats)

    def _shard_rows(
        self,
        index: int,
        shard_query: ast.Select,
        params: dict[str, object] | None,
        deadline: Deadline | None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> Iterator[list[tuple]]:
        """One shard's rows as chunks; a fault re-opens this shard's
        stream alone (the others are untouched)."""
        shard = self.shards[index]

        def open_stream() -> BlockStream:
            return shard.execute_stream(
                shard_query, params=params, block_rows=block_rows, deadline=deadline
            )

        stream = ResilientStream(
            open_stream, self.retry_policy, deadline, self._retry_rng()
        )
        try:
            for block in stream:
                yield block.rows()
        finally:
            stream.close()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release shard resources (connections, sockets)."""
        for shard in self.shards:
            shard.close()


@dataclass
class _ShardedTable:
    """Coordinator-side metadata for one partitioned table."""

    schema: TableSchema
    shard_schema: TableSchema
    route_index: int | None
    logical_bytes: int = 0
    next_ordinal: int = 0


def make_sharded_backend(
    kind: str,
    shards: int,
    name: str = "server",
    shard_keys: dict[str, str | None] | None = None,
    **options,
) -> ShardedBackend:
    """N fresh single-kind shards behind one :class:`ShardedBackend`."""
    from repro.server import make_backend

    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    backends = [
        make_backend(kind, name=f"{name}_shard{i}", **options)
        for i in range(shards)
    ]
    return ShardedBackend(backends, name=name, shard_keys=shard_keys)


__all__ = [
    "ORDINAL_COLUMN",
    "DirectedKey",
    "ShardedBackend",
    "make_sharded_backend",
    "merge_sorted_rows",
    "route_hash",
    "sort_by_ordinal",
]
