"""Real-SQLite untrusted server: encrypted tables + hom-aggregate UDFs.

This backend demonstrates the paper's claim (§1, §7) that MONOMI's server
half is an *unmodified* relational engine plus a few UDFs.  Encrypted
tables are materialized into an actual SQLite database; split-plan server
queries print in SQLite dialect (``sql.printer`` with ``dialect="sqlite"``)
and run inside the engine; the paper's server-side UDFs are registered as
Python functions on the connection:

* ``hom_agg(file, row_id)`` — grouped packed-Paillier addition, backed by
  the same :class:`~repro.storage.ciphertext_store.CiphertextStore` the
  in-memory engine uses (ciphertexts live outside table rows, §7);
* ``grp(x)``               — the GROUP() operator shipping whole groups;
* ``searchswp(tags, t)``   — SWP tag-set membership for SEARCH predicates;
* ``like_strict(s, p)``    — case-sensitive LIKE (SQLite's is not).

Value representation
--------------------
Values SQLite cannot hold natively — ciphertext integers wider than the
64-bit INTEGER, SEARCH tag sets — use the order-preserving **marker-blob
codec** in :mod:`repro.storage.sqlite_codec` (shared with the SQL
printer's literal rendering).  ``grp`` lists and ``hom_agg`` results
serialize to tagged blobs the same way, defined here next to the UDFs
that produce them; :func:`decode_sqlite_value` restores the logical
Python values before the result set leaves the backend, so the client's
decrypt path is backend-agnostic.

Indexes
-------
Right after the load, :meth:`SQLiteBackend.create_indexes` builds one
B-tree per DET equi-join key of the designer's workload
(``ix_<table>_<column>``; ``MonomiClient.setup`` passes
``core.loader.join_key_indexes``) and then runs ``ANALYZE`` on the
table.  Without them SQLite builds a throwaway automatic index over the
fact table on every join statement; without ``ANALYZE`` statistics its
planner picks worse join orders over the indexes, so the two always come
together.  Later writes maintain the indexes.  The split planner and the
cost ledger never see them; :meth:`SQLiteBackend.index_bytes` reports
their pages.

Scan accounting is logical and identical to the in-memory backend: each
table reference charges the table's rowcodec heap size, and ``hom_agg``
ciphertext reads charge through the shared store, so the cost ledger's
byte counts are backend-independent (asserted by the equivalence tests).
"""

from __future__ import annotations

import itertools
import sqlite3
import struct
import threading
import urllib.parse
from dataclasses import dataclass, replace
from typing import Iterable

from repro.common.errors import BackendBusyError, EngineError, ExecutionError
from repro.common.lru import LRUCache
from repro.common.retry import Deadline
from repro.crypto.search import TAG_BYTES
from repro.engine.aggregates import GrpAgg, HomAgg, HomAggResult
from repro.engine.eval import like_matches
from repro.engine.executor import ExecStats, ResultSet
from repro.engine.rowblock import (
    DEFAULT_BLOCK_ROWS,
    BlockStream,
    RowBlock,
    blocks_from_rows,
)
from repro.engine.schema import TableSchema
from repro.server.backend import DelegatingView, ServerBackend
from repro.sql import ast, to_sql
from repro.storage.ciphertext_store import CiphertextStore
from repro.storage.rowcodec import decode_value, encode_value, row_bytes
from repro.storage.sqlite_codec import (
    BIG_MARK,
    GRP_MARK,
    HOM_MARK,
    MARK_LEN,
    TAG_MARK,
    decode_big,
    decode_tags,
    encode_sqlite_value,
    quote_ident,
)

__all__ = ["SQLiteBackend", "decode_sqlite_value", "encode_sqlite_value"]


# ---------------------------------------------------------------------------
# Value codec (aggregate-blob half; scalar half lives in storage.sqlite_codec)
# ---------------------------------------------------------------------------


def decode_sqlite_value(value: object, store: CiphertextStore) -> object:
    """Restore the logical value behind one SQLite storage value."""
    if not isinstance(value, bytes) or len(value) < MARK_LEN:
        return value
    mark = value[:MARK_LEN]
    if mark == BIG_MARK:
        return decode_big(value)
    if mark == TAG_MARK:
        return decode_tags(value)
    if mark == GRP_MARK:
        return _decode_grp(value)
    if mark == HOM_MARK:
        return _decode_hom(value, store)
    return value


def _decode_grp(blob: bytes) -> tuple:
    (count,) = struct.unpack_from("<I", blob, MARK_LEN)
    offset = MARK_LEN + 4
    values = []
    for _ in range(count):
        value, offset = decode_value(blob, offset)
        values.append(value)
    return tuple(values)


def _encode_hom(result: HomAggResult) -> bytes:
    parts = [HOM_MARK, encode_value(result.file_name), encode_value(result.product)]
    parts.append(struct.pack("<I", len(result.partials)))
    for ciphertext, offsets in result.partials:
        parts.append(encode_value(ciphertext))
        parts.append(struct.pack("<I", len(offsets)))
        parts.append(struct.pack(f"<{len(offsets)}I", *offsets))
    parts.append(struct.pack("<I", result.multiplications))
    return b"".join(parts)


def _decode_hom(blob: bytes, store: CiphertextStore) -> HomAggResult:
    file_name, offset = decode_value(blob, MARK_LEN)
    product, offset = decode_value(blob, offset)
    (num_partials,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    partials = []
    for _ in range(num_partials):
        ciphertext, offset = decode_value(blob, offset)
        (num_offsets,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        slots = struct.unpack_from(f"<{num_offsets}I", blob, offset)
        offset += 4 * num_offsets
        partials.append((ciphertext, tuple(slots)))
    (multiplications,) = struct.unpack_from("<I", blob, offset)
    file = store.get(file_name)
    return HomAggResult(
        file_name=file_name,
        column_names=file.column_names,
        product=product,
        partials=tuple(partials),
        multiplications=multiplications,
        ciphertext_bytes=file.ciphertext_bytes,
        layout=file.layout,
    )


def _is_busy_error(exc: sqlite3.Error) -> bool:
    """SQLITE_BUSY / SQLITE_LOCKED: transient lock contention, not a bug.

    These surface *after* the connection's own ``busy_timeout`` retries
    are exhausted, so translating them to
    :class:`~repro.common.errors.BackendBusyError` hands the decision to
    the retry loop of the hop that called the store — the client's, the
    hosting server's or the sharded coordinator's — instead of failing
    the query outright.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def _translate_sqlite_error(exc: sqlite3.Error, sql_text: str) -> Exception:
    if _is_busy_error(exc):
        return BackendBusyError(f"SQLite busy: {exc} in {sql_text!r}")
    return ExecutionError(f"SQLite error: {exc} in {sql_text!r}")


# ---------------------------------------------------------------------------
# UDFs
# ---------------------------------------------------------------------------


def _searchswp(tags_blob: object, trapdoor: object) -> object:
    """SWP membership test: does the row's tag set contain the trapdoor?"""
    if tags_blob is None or trapdoor is None:
        return None
    if not (isinstance(tags_blob, bytes) and tags_blob[:MARK_LEN] == TAG_MARK):
        raise ExecutionError("searchswp over a non-tagset value")
    body = tags_blob[MARK_LEN:]
    for i in range(0, len(body), TAG_BYTES):
        if body[i : i + TAG_BYTES] == trapdoor:
            return 1
    return 0


def _like_strict(needle: object, pattern: object) -> object:
    if needle is None or pattern is None:
        return None
    return 1 if like_matches(str(needle), str(pattern)) else 0


class _SqliteSum:
    """SUM override: decode marker-blob integers and sum with Python ints.

    SQLite's native SUM coerces BIG_MARK blobs to 0 and raises "integer
    overflow" past 2**63; routing through Python keeps SUM exact over
    ciphertext-sized integers and identical to the engine's SumAgg
    (None-skipping, NULL over empty input).  Other arithmetic (+, -, *)
    over marker blobs remains out of contract — the planner never ships
    arithmetic over ciphertexts (SUM travels as hom_agg or grp).
    """

    def __init__(self, store: CiphertextStore) -> None:
        self._store = store
        self._total = None

    def step(self, value: object) -> None:
        value = decode_sqlite_value(value, self._store)
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def finalize(self) -> object:
        return encode_sqlite_value(self._total)


class _SqliteGrp:
    """GROUP() adapter: collect raw SQLite values, emit one tagged blob."""

    def __init__(self, store: CiphertextStore) -> None:
        self._store = store
        self._inner = GrpAgg()

    def step(self, value: object) -> None:
        self._inner.update([decode_sqlite_value(value, self._store)])

    def finalize(self) -> bytes:
        values = self._inner.finalize()
        body = b"".join(encode_value(v) for v in values)
        return GRP_MARK + struct.pack("<I", len(values)) + body


class _SqliteHomAgg:
    """hom_agg adapter over the shared HomAgg implementation."""

    def __init__(self, store: CiphertextStore) -> None:
        self._inner = HomAgg(store)

    def step(self, file_name: object, row_id: object) -> None:
        self._inner.update([file_name, row_id])

    def finalize(self) -> bytes | None:
        result = self._inner.finalize()
        if result is None:
            return None
        return _encode_hom(result)


# ---------------------------------------------------------------------------
# Query preparation
# ---------------------------------------------------------------------------


def _inline_in_sets(query: ast.Select, params: dict[str, object]) -> ast.Select:
    """Bind the DET IN-set parameters of the multi-round-trip plans.

    SQLite cannot bind a set-valued parameter, so ``in_set(x, :p)`` inlines
    as ``x IN (c1, c2, ...)`` over the DET ciphertext literals — exactly
    the SQL a real deployment would ship.  An empty set becomes
    ``x IS NULL AND NULL`` (NULL for a NULL needle, false otherwise),
    matching the engine's three-valued ``in_set``.
    """

    def rewrite(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.FuncCall) and node.name == "in_set":
            if len(node.args) != 2 or not isinstance(node.args[1], ast.Param):
                raise ExecutionError("in_set expects (expr, :param)")
            needle, param = node.args
            if param.name not in params:
                raise ExecutionError(f"unbound IN-set parameter :{param.name}")
            members = params[param.name]
            if not members:
                return ast.BinOp("and", ast.IsNull(needle), ast.Literal(None))
            ordered = sorted(members, key=lambda v: (isinstance(v, bytes), v))
            return ast.InList(needle, tuple(ast.Literal(v) for v in ordered))
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(_inline_in_sets(node.query, params))
        if isinstance(node, ast.InSubquery):
            return ast.InSubquery(
                node.needle, _inline_in_sets(node.query, params), node.negated
            )
        if isinstance(node, ast.Exists):
            return ast.Exists(_inline_in_sets(node.query, params), node.negated)
        return node

    def rewrite_ref(ref: ast.TableRef) -> ast.TableRef:
        if isinstance(ref, ast.SubqueryRef):
            return ast.SubqueryRef(_inline_in_sets(ref.query, params), ref.alias)
        if isinstance(ref, ast.Join):
            condition = ref.condition
            if condition is not None:
                condition = ast.transform(condition, rewrite)
            return ast.Join(
                rewrite_ref(ref.left), rewrite_ref(ref.right), ref.kind, condition
            )
        return ref

    rewritten = query.map_expressions(lambda e: ast.transform(e, rewrite))
    return replace(
        rewritten,
        from_items=tuple(rewrite_ref(ref) for ref in rewritten.from_items),
    )


def _add_order_tiebreak(query: ast.Select) -> ast.Select:
    """Pin the tie order of a pushed ORDER BY + LIMIT to insertion order.

    The engine's stable sort breaks ties by insertion order; SQLite leaves
    tie order undefined.  For the common pushed shape — single base table,
    no grouping/DISTINCT/aggregates — appending ``rowid`` (SQLite's
    insertion order) makes the served subset deterministic and identical
    to the engine's.  Grouped ORDER BY + LIMIT keeps SQLite's tie order
    (group emission order is an engine detail on both sides).
    """
    if query.limit is None or not query.order_by:
        return query
    if query.group_by or query.distinct:
        return query
    if len(query.from_items) != 1 or not isinstance(
        query.from_items[0], ast.TableName
    ):
        return query
    exprs = [item.expr for item in query.items]
    exprs.extend(o.expr for o in query.order_by)
    if any(ast.contains_aggregate(e) for e in exprs):
        return query
    tiebreak = ast.OrderItem(ast.Column("rowid"))
    return replace(query, order_by=query.order_by + (tiebreak,))


def _called_functions(query: ast.Select) -> set[str]:
    """Every function name ``query`` calls anywhere in its tree.

    Covers its expressions, FROM subqueries, joins (nested ones and their
    ON conditions) and expression subqueries.  A read-only walk: it builds
    no AST, so a statement-cache miss pays no rebuild for it.
    """
    names: set[str] = set()
    pending = [query]
    while pending:
        select = pending.pop()
        exprs = [item.expr for item in select.items]
        exprs.extend(select.group_by)
        exprs.extend(o.expr for o in select.order_by)
        if select.where is not None:
            exprs.append(select.where)
        if select.having is not None:
            exprs.append(select.having)
        refs = list(select.from_items)
        while refs:
            ref = refs.pop()
            if isinstance(ref, ast.SubqueryRef):
                pending.append(ref.query)
            elif isinstance(ref, ast.Join):
                refs.extend((ref.left, ref.right))
                if ref.condition is not None:
                    exprs.append(ref.condition)
        for expr in exprs:
            names.update(
                node.name for node in expr.walk() if isinstance(node, ast.FuncCall)
            )
            pending.extend(ast.find_subqueries(expr))
    return names


def _grp_positions(query: ast.Select) -> frozenset[int]:
    """Output positions carrying ``grp()`` results (identity restoration)."""
    return frozenset(
        i
        for i, item in enumerate(query.items)
        if isinstance(item.expr, ast.FuncCall) and item.expr.name == "grp"
    )


def _restore_grp_identities(
    positions: frozenset[int], rows: list[tuple]
) -> list[tuple]:
    """Replace NULL ``grp()`` outputs with the empty tuple.

    Aggregating over zero input rows (no GROUP BY) yields one identity row;
    SQLite never instantiates a user aggregate that sees no input, so
    ``grp()`` comes back NULL where the engine's GrpAgg produces ``()``.
    GrpAgg never returns None otherwise (a group has at least one row), so
    the substitution is unambiguous.
    """
    if not positions or not rows:
        return rows
    return [
        tuple(
            () if i in positions and value is None else value
            for i, value in enumerate(row)
        )
        for row in rows
    ]


@dataclass(frozen=True)
class _Statement:
    """What no execution of one server query changes, compiled once.

    ``sql_text`` is ``None`` when the query calls ``in_set``: its IN sets
    come from each execution's parameters, so it is inlined and printed
    per execution.  ``tables`` are the names, not the bytes: DML moves
    ``table_bytes``, so static scan bytes are summed live.
    """

    query: ast.Select
    #: Reads packed-Paillier bytes (``hom_agg``): such a query runs under
    #: the store lock, because its scan accounting windows the
    #: backend-global ciphertext-store counter.
    reads_store: bool
    sql_text: str | None
    tables: tuple[str, ...]
    grp_positions: frozenset[int]
    columns: tuple[str, ...]


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


class SQLiteBackend(ServerBackend):
    """Encrypted tables in a real SQLite database (file or in-memory).

    Each distinct server query is compiled once (:meth:`_compile`): its
    store-read flag, SQLite SQL text, table occurrences, ``grp()``
    positions and output names live in one bounded LRU of
    ``_CACHED_STATEMENTS`` entries that the worker views share, keyed by
    the query object's identity.  An execution then only binds its scalar
    parameters, re-inlines IN sets (``in_set`` queries only) and sums the
    live heap sizes.  ``sqlite3``'s per-connection statement cache (of
    the same size) then skips re-preparing the repeated SQL text.  Each
    query (:meth:`execute_stream`) gets its own cursor with ``arraysize``
    tuned to the block size, so overlapping streams keep distinct result
    sets.  A query that reads ciphertext files (``hom_agg``) runs to
    completion under the store lock instead, because its scan accounting
    windows the backend-global ciphertext read counter.
    """

    kind = "sqlite"

    _CACHED_STATEMENTS = 256
    #: How long any connection retries a locked database before erroring.
    #: Shared-cache readers on per-worker connections can hit transient
    #: lock states while another connection commits; a zero timeout turns
    #: that into a spurious "database is locked" failure under the
    #: concurrent service layer.
    _BUSY_TIMEOUT_MS = 5000

    _memory_ids = itertools.count()

    def __init__(self, name: str = "server", path: str = ":memory:") -> None:
        self.name = name
        self.path = path
        self.ciphertext_store = CiphertextStore()
        self.last_stats = ExecStats()
        self.schemas: dict[str, TableSchema] = {}
        self._table_bytes: dict[str, int] = {}
        # id(query) -> _Statement; thread-tolerant like every LRUCache (a
        # racy double compile stores an identical statement).
        self._statements = LRUCache(self._CACHED_STATEMENTS)
        # In-memory databases use a uniquely named shared-cache URI so the
        # service worker views' own connections see the same data; the
        # main connection below holds the database alive.  File-backed
        # databases need no sharing tricks — workers just open the path.
        if path == ":memory:":
            unique = next(self._memory_ids)
            # Percent-encode the name: a '#' or '?' in it would otherwise
            # truncate the URI's query string and silently open an
            # on-disk file instead of a private in-memory database.
            safe_name = urllib.parse.quote(name, safe="")
            self._connect_target = (
                f"file:monomi-{safe_name}-{unique}?mode=memory&cache=shared"
            )
            self._connect_uri = True
        else:
            self._connect_target = path
            self._connect_uri = False
        # Serializes ciphertext-store reads (hom_agg) across connections:
        # the store's bytes_read counter is backend-global, so queries
        # that read packed ciphertexts take this lock for an exclusive
        # accounting window while plain scans run fully concurrent.
        self._store_lock = threading.Lock()
        # check_same_thread=False: threads other than the opener drive this
        # connection — the shard coordinator's fan-out threads (a SQLite
        # shard), MonomiServer connection threads (writes through a
        # session view land here) and the maintained-aggregate balancer.
        # SQLite itself is compiled serialized (sqlite3.threadsafety), and
        # no caller touches one cursor from two threads concurrently.
        self.connection = sqlite3.connect(
            self._connect_target,
            uri=self._connect_uri,
            cached_statements=self._CACHED_STATEMENTS,
            check_same_thread=False,
        )
        self._configure_connection(self.connection)

    def _configure_connection(
        self, conn: sqlite3.Connection, reader: bool = False
    ) -> None:
        conn.execute(f"PRAGMA busy_timeout = {self._BUSY_TIMEOUT_MS}")
        if reader:
            # Shared-cache table locks are SQLITE_LOCKED, which the busy
            # handler does *not* retry: a reader overlapping a writer's
            # commit would fail with "database table is locked" no matter
            # the timeout.  Worker connections are read-only by contract
            # (all writes go through the parent), so skipping read locks
            # is safe and makes readers immune to writer lock states.
            conn.execute("PRAGMA read_uncommitted = 1")
        self._register_udfs(conn)

    def _register_udfs(self, conn: sqlite3.Connection) -> None:
        store = self.ciphertext_store
        conn.create_function("searchswp", 2, _searchswp, deterministic=True)
        conn.create_function("like_strict", 2, _like_strict, deterministic=True)
        conn.create_aggregate("grp", 1, lambda: _SqliteGrp(store))
        conn.create_aggregate("hom_agg", 2, lambda: _SqliteHomAgg(store))
        conn.create_aggregate("sum", 1, lambda: _SqliteSum(store))

    def _worker_connection(self) -> sqlite3.Connection:
        """A per-worker read connection (one per service worker view).

        Same database, own statement cache and cursor state; the UDF set
        is registered per connection because SQLite functions are
        connection-scoped, and ``busy_timeout`` is set so shared-cache
        lock contention retries instead of failing.
        ``check_same_thread=False`` because a service's DML view is driven
        by whichever service worker holds the write lock, and
        ``MonomiService.close`` closes every view from its own thread.
        """
        conn = sqlite3.connect(
            self._connect_target,
            uri=self._connect_uri,
            cached_statements=self._CACHED_STATEMENTS,
            check_same_thread=False,
        )
        self._configure_connection(conn, reader=True)
        return conn

    # -- loading ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        if schema.name in self.schemas:
            raise EngineError(f"table {schema.name!r} already exists")
        if not schema.columns:
            raise EngineError("SQLite backend requires at least one column")
        self.schemas[schema.name] = schema
        columns = ", ".join(quote_ident(c.name) for c in schema.columns)
        self.connection.execute(
            f"CREATE TABLE {quote_ident(schema.name)} ({columns})"
        )
        self._table_bytes[schema.name] = 0

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        schema = self.schemas.get(table_name)
        if schema is None:
            raise EngineError(f"unknown table {table_name!r}")
        width = len(schema.columns)
        placeholders = ", ".join("?" * width)
        encoded: list[tuple] = []
        total = 0
        for row in rows:
            if len(row) != width:
                raise EngineError(
                    f"row has {len(row)} values, table {table_name!r} has {width}"
                )
            total += row_bytes(row)
            encoded.append(tuple(encode_sqlite_value(v) for v in row))
        insert_sql = (
            f"INSERT INTO {quote_ident(table_name)} VALUES ({placeholders})"
        )
        try:
            self.connection.executemany(insert_sql, encoded)
            self.connection.commit()
        except sqlite3.Error as exc:
            # Roll back the implicit transaction so a retried batch never
            # double-inserts half-written rows; byte accounting below only
            # moves on a successful commit for the same reason.
            self.connection.rollback()
            raise _translate_sqlite_error(exc, insert_sql) from exc
        self._table_bytes[table_name] += total

    def create_indexes(self, table_name: str, columns: Iterable[str]) -> None:
        """``CREATE INDEX IF NOT EXISTS ix_<table>_<column>`` per column,
        then one ``ANALYZE`` of the table and one commit.

        Idempotent: a repeat finds every index and derives the same
        ``sqlite_stat1`` rows.  A column the table does not store raises
        :class:`~repro.common.errors.EngineError` before anything is built.
        """
        schema = self.schemas.get(table_name)
        if schema is None:
            raise EngineError(f"unknown table {table_name!r}")
        columns = list(columns)
        for column in columns:
            if not schema.has_column(column):
                raise EngineError(f"table {table_name!r} has no column {column!r}")
        table = quote_ident(table_name)
        statements = [
            f"CREATE INDEX IF NOT EXISTS {quote_ident(f'ix_{table_name}_{column}')} "
            f"ON {table} ({quote_ident(column)})"
            for column in columns
        ]
        statements.append(f"ANALYZE {table}")
        try:
            for sql_text in statements:
                self.connection.execute(sql_text)
            self.connection.commit()
        except sqlite3.Error as exc:
            self.connection.rollback()
            raise _translate_sqlite_error(exc, sql_text) from exc

    # -- encrypted DML (PR 10) -----------------------------------------------
    #
    # Rows are matched by *decoded logical value* (the tuples a fetch
    # returned), not by encoded-at-rest bytes: the wide-int marker-blob
    # encoding is deterministic, but matching on decoded values keeps the
    # contract identical to the in-memory backend's.  Each batch commits
    # in one transaction, so a failed batch leaves the store untouched
    # and a retried one re-matches from scratch.

    def _match_stored(
        self, table_name: str, keys: dict[tuple, int]
    ) -> list[tuple[int, tuple]]:
        """Scan the table, consuming one stored match per requested key;
        return ``(rowid, decoded_row)`` pairs for the matches."""
        store = self.ciphertext_store
        matches: list[tuple[int, tuple]] = []
        cursor = self.connection.execute(
            f"SELECT rowid, * FROM {quote_ident(table_name)}"
        )
        while True:
            raw = cursor.fetchmany(DEFAULT_BLOCK_ROWS)
            if not raw:
                break
            for values in raw:
                decoded = tuple(
                    decode_sqlite_value(v, store) for v in values[1:]
                )
                count = keys.get(decoded, 0)
                if count:
                    keys[decoded] = count - 1
                    matches.append((values[0], decoded))
        return matches

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        if table_name not in self.schemas:
            raise EngineError(f"unknown table {table_name!r}")
        wanted: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row)
            wanted[key] = wanted.get(key, 0) + 1
        if not wanted:
            return 0
        matches = self._match_stored(table_name, wanted)
        if not matches:
            return 0
        delete_sql = (
            f"DELETE FROM {quote_ident(table_name)} WHERE rowid = ?"
        )
        try:
            self.connection.executemany(
                delete_sql, [(rowid,) for rowid, _ in matches]
            )
            self.connection.commit()
        except sqlite3.Error as exc:
            self.connection.rollback()
            raise _translate_sqlite_error(exc, delete_sql) from exc
        self._table_bytes[table_name] -= sum(
            row_bytes(decoded) for _, decoded in matches
        )
        return len(matches)

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        schema = self.schemas.get(table_name)
        if schema is None:
            raise EngineError(f"unknown table {table_name!r}")
        width = len(schema.columns)
        pending: dict[tuple, list[tuple]] = {}
        total = 0
        for old, new in pairs:
            if len(new) != width:
                raise EngineError(
                    f"row has {len(new)} values, table {table_name!r} "
                    f"has {width}"
                )
            pending.setdefault(tuple(old), []).append(tuple(new))
            total += 1
        if not total:
            return 0
        counts = {key: len(queue) for key, queue in pending.items()}
        updates: list[tuple] = []
        delta = 0
        for rowid, decoded in self._match_stored(table_name, counts):
            new = pending[decoded].pop(0)
            updates.append(
                tuple(encode_sqlite_value(v) for v in new) + (rowid,)
            )
            delta += row_bytes(new) - row_bytes(decoded)
        if not updates:
            return 0
        assignments = ", ".join(
            f"{quote_ident(c.name)} = ?" for c in schema.columns
        )
        update_sql = (
            f"UPDATE {quote_ident(table_name)} SET {assignments} "
            "WHERE rowid = ?"
        )
        try:
            self.connection.executemany(update_sql, updates)
            self.connection.commit()
        except sqlite3.Error as exc:
            self.connection.rollback()
            raise _translate_sqlite_error(exc, update_sql) from exc
        self._table_bytes[table_name] += delta
        return len(updates)

    # -- introspection -------------------------------------------------------

    def table_names(self) -> list[str]:
        return sorted(self.schemas)

    def table_bytes(self, table_name: str) -> int:
        try:
            return self._table_bytes[table_name]
        except KeyError:
            raise EngineError(f"unknown table {table_name!r}") from None

    def index_bytes(self) -> int:
        """Bytes of the B-tree pages behind every index, from ``dbstat``.

        Physical and informational: neither :attr:`total_bytes` nor any
        scan charge counts them (the paper's space overhead, Table 2, is a
        logical ratio and never counted DBMS indexes).
        """
        (total,) = self.connection.execute(
            "SELECT COALESCE(SUM(pgsize), 0) FROM dbstat WHERE name IN "
            "(SELECT name FROM sqlite_master WHERE type = 'index')"
        ).fetchone()
        return total

    # -- resumable load support ----------------------------------------------

    def has_table(self, table_name: str) -> bool:
        """True when the table exists — registered here *or* persisted in
        the database file by a previous process (the resume case)."""
        if table_name in self.schemas:
            return True
        row = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?",
            (table_name,),
        ).fetchone()
        return row is not None

    def row_count(self, table_name: str) -> int:
        if not self.has_table(table_name):
            raise EngineError(f"unknown table {table_name!r}")
        (count,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {quote_ident(table_name)}"
        ).fetchone()
        return count

    def adopt_table(self, schema: TableSchema) -> None:
        """Register ``schema`` over rows a previous process committed.

        The crash-resume path: the table lives in the database file but
        this backend object has never seen it.  Logical byte accounting
        is recomputed by scanning and decoding the surviving rows, so
        ``table_bytes`` — and with it every scan charge — is identical
        to what an uninterrupted load would have recorded.
        """
        if schema.name in self.schemas:
            return  # Already registered (same-process resume): nothing to do.
        if not self.has_table(schema.name):
            raise EngineError(
                f"cannot adopt {schema.name!r}: not present in the database"
            )
        store = self.ciphertext_store
        total = 0
        cursor = self.connection.execute(
            f"SELECT * FROM {quote_ident(schema.name)}"
        )
        while True:
            raw = cursor.fetchmany(DEFAULT_BLOCK_ROWS)
            if not raw:
                break
            for row in raw:
                total += row_bytes(
                    tuple(decode_sqlite_value(v, store) for v in row)
                )
        self.schemas[schema.name] = schema
        self._table_bytes[schema.name] = total

    # -- query execution ------------------------------------------------------

    def _compile(self, query: ast.Select) -> _Statement:
        """The cached :class:`_Statement` of ``query``, compiled on a miss.

        Keyed by the query object's identity, not its value: AST nodes are
        frozen dataclasses, and ``Literal(1)``, ``Literal(1.0)`` and
        ``Literal(True)`` compare and hash equal, so a value key would hand
        one statement another's SQL.  The entry holds the query, so its
        ``id`` cannot be reused while the entry lives.  A hit needs the
        caller to pass the same object again, as the client's plan cache
        and the TCP server's prepared statements do.  IN-set inlining only
        injects literal lists, so the raw query answers every field but an
        ``in_set`` query's SQL text.
        """
        statement = self._statements.get(id(query))
        if statement is None:
            calls = _called_functions(query)
            sql_text = None
            if "in_set" not in calls:
                sql_text = to_sql(_add_order_tiebreak(query), dialect="sqlite")
            statement = _Statement(
                query=query,
                reads_store="hom_agg" in calls,
                sql_text=sql_text,
                tables=tuple(ast.table_occurrences(query)),
                grp_positions=_grp_positions(query),
                columns=tuple(
                    item.output_name(i) for i, item in enumerate(query.items)
                ),
            )
            self._statements.put(id(query), statement)
        return statement

    def _prepare(
        self, query: ast.Select, params: dict[str, object] | None
    ) -> tuple[_Statement, str, dict]:
        """Compile ``query`` (once), bind its IN sets, and encode its scalar
        parameters: ``(statement, sql_text, bind)``."""
        statement = self._compile(query)
        params = params or {}
        sql_text = statement.sql_text
        if sql_text is None:
            bound = _inline_in_sets(query, params)
            sql_text = to_sql(_add_order_tiebreak(bound), dialect="sqlite")
        bind = {
            name: encode_sqlite_value(value)
            for name, value in params.items()
            if not isinstance(value, (set, frozenset))
        }
        return statement, sql_text, bind

    def _static_scan_bytes(self, statement: _Statement) -> int:
        # Static scan accounting over the same walk the engine uses
        # (ast.table_occurrences), so ledgers are backend-independent.
        table_bytes = self._table_bytes
        return sum(table_bytes.get(name, 0) for name in statement.tables)

    def _execute_on(
        self,
        conn: sqlite3.Connection,
        statement: _Statement,
        sql_text: str,
        bind: dict,
    ) -> tuple[ResultSet, ExecStats]:
        """Run one ciphertext-store-reading (``hom_agg``) query on
        ``conn`` to completion, returning its result and stats.

        It runs under the backend's store lock, so the global bytes-read
        window is exclusively its own; store-free queries stream through
        :meth:`_stream_on` and skip both the lock and the window, which is
        what lets per-worker connections execute concurrently with exact
        per-query accounting.
        """
        store = self.ciphertext_store
        with self._store_lock:
            read_start = store.bytes_read
            try:
                raw_rows = conn.execute(sql_text, bind).fetchall()
            except sqlite3.Error as exc:
                raise _translate_sqlite_error(exc, sql_text) from exc
            rows = [
                tuple(decode_sqlite_value(v, store) for v in row)
                for row in raw_rows
            ]
            scanned = store.bytes_read - read_start
        rows = _restore_grp_identities(statement.grp_positions, rows)
        stats = ExecStats(
            bytes_scanned=self._static_scan_bytes(statement) + scanned,
            rows_output=len(rows),
        )
        return ResultSet(list(statement.columns), rows), stats

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        """Stream the query through a ``fetchmany`` cursor, one block at a
        time — the server never materializes a store-free result set.

        Static scan bytes are charged when the stream is created, so
        ``stats`` is final from the start.
        """
        stream = self._stream_on(self.connection, query, params, block_rows)
        self.last_stats = stream.stats
        return stream

    def _stream_on(
        self,
        conn: sqlite3.Connection,
        query: ast.Select,
        params: dict[str, object] | None,
        block_rows: int,
    ) -> BlockStream:
        """Serial ``fetchmany`` streaming over an explicit connection.

        A query that reads the ciphertext store (``hom_agg``) runs to
        completion under the store lock instead (:meth:`_execute_on`) and
        re-blocks: its accounting needs an exclusive store-counter window
        for the whole execution, which a consumer-paced cursor cannot hold
        without letting one slow session block every hom reader.  Hom
        queries are grouped aggregates, so their results are small either
        way.  Every other query never consults the global bytes-read
        counter, so concurrent hom readers on other connections cannot leak
        bytes into its accounting.
        """
        statement, sql_text, bind = self._prepare(query, params)
        if statement.reads_store:
            result, stats = self._execute_on(conn, statement, sql_text, bind)
            blocks = blocks_from_rows(result.rows, len(result.columns), block_rows)
            return BlockStream(result.columns, blocks, stats)
        stats = ExecStats(bytes_scanned=self._static_scan_bytes(statement))
        store = self.ciphertext_store
        grp_positions = statement.grp_positions
        columns = list(statement.columns)
        cursor = conn.cursor()
        cursor.arraysize = block_rows
        try:
            cursor.execute(sql_text, bind)
        except sqlite3.Error as exc:
            cursor.close()
            raise _translate_sqlite_error(exc, sql_text) from exc

        def blocks():
            try:
                while True:
                    try:
                        raw = cursor.fetchmany(block_rows)
                    except sqlite3.Error as exc:
                        raise _translate_sqlite_error(exc, sql_text) from exc
                    if not raw:
                        break
                    rows = [
                        tuple(decode_sqlite_value(v, store) for v in row)
                        for row in raw
                    ]
                    rows = _restore_grp_identities(grp_positions, rows)
                    stats.rows_output += len(rows)
                    yield RowBlock.from_rows(rows, len(columns))
            finally:
                cursor.close()

        return BlockStream(columns, blocks(), stats)

    # -- concurrent service access ---------------------------------------------

    def worker_view(self) -> ServerBackend:
        """A genuinely concurrent worker view: its own SQLite connection.

        Every view opens a separate connection to the same database
        (shared-cache URI for ``:memory:``, the path for files), so
        service workers execute simultaneously inside SQLite itself.
        Only queries that read the shared ciphertext store (``hom_agg``)
        serialize, on the backend's store lock, because their byte
        accounting windows a backend-global counter.
        """
        return _SQLiteWorkerView(self)

    def close(self) -> None:
        self.connection.close()


class _SQLiteWorkerView(DelegatingView):
    """One service worker's view of a :class:`SQLiteBackend`.

    Shares the parent's schemas, logical heap sizes, and ciphertext store
    (loading and introspection delegate via :class:`DelegatingView`);
    owns a dedicated connection and its own ``last_stats``.
    """

    _parent: SQLiteBackend

    def __init__(self, parent: SQLiteBackend) -> None:
        super().__init__(parent)
        self.connection = parent._worker_connection()

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        stream = self._parent._stream_on(self.connection, query, params, block_rows)
        self.last_stats = stream.stats
        return stream

    def close(self) -> None:
        self.connection.close()
