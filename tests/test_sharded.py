"""Sharded scatter-gather execution: N backends behind the single seam.

The contract under test everywhere: plaintext rows and ledger byte
counts are **shard-count-invariant** — a :class:`ShardedBackend` over N
stores is indistinguishable from one serial backend (N=1 ≡ serial
reference), in-process and over TCP, fault-free and with chaos armed on
a single shard.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ConfigError, ExecutionError
from repro.core import MonomiClient
from repro.engine.schema import schema
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream
from repro.server import (
    FaultInjectingBackend,
    ShardedBackend,
    make_backend,
    make_sharded_backend,
)
from repro.server.backend import DelegatingView
from repro.server.sharded import ORDINAL_COLUMN, route_hash
from repro.sql import ast
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, canonical

CHAOS_SEEDS = (3, 11, 42)


# ---------------------------------------------------------------------------
# Backend-level harness: plain-value tables, sharded vs serial reference
# ---------------------------------------------------------------------------

ROWS = [
    # (k_det, v, label) — k has ties, None keys, and skew; v has Nones.
    (i % 7 if i % 11 else None, i * 3 if i % 5 else None, f"r{i}")
    for i in range(83)
]

SCHEMA = schema("t1", ("k_det", "any"), ("v", "any"), ("label", "text"))


def build_pair(kind: str, shards: int, rows=ROWS, shard_keys=None, serial_kind=None):
    """A sharded backend and its serial twin, loaded identically."""
    sharded = make_sharded_backend(kind, shards, name="sh", shard_keys=shard_keys)
    sharded.create_table(SCHEMA)
    sharded.insert_rows("t1", rows)
    serial = make_backend(serial_kind or kind, name="ref")
    serial.create_table(SCHEMA)
    serial.insert_rows("t1", rows)
    return sharded, serial


def assert_equivalent(sharded, serial, query, params=None):
    got = sharded.execute(query, params=params)
    want = serial.execute(query, params=params)
    assert got.columns == want.columns
    assert got.rows == want.rows
    assert sharded.last_stats.bytes_scanned == serial.last_stats.bytes_scanned
    assert sharded.last_stats.rows_output == serial.last_stats.rows_output
    return got


def col(name):
    return ast.Column(name)


def item(expr, alias=None):
    return ast.SelectItem(expr, alias)


SCAN = ast.Select(
    items=(item(col("k_det")), item(col("v")), item(col("label"))),
    from_items=(ast.TableName("t1"),),
)

FILTERED = ast.Select(
    items=(item(col("v")), item(col("label"))),
    from_items=(ast.TableName("t1"),),
    where=ast.BinOp(">", col("v"), ast.Literal(30)),
    limit=9,
)

ORDERED = ast.Select(
    items=(item(col("label")), item(col("v"))),
    from_items=(ast.TableName("t1"),),
    order_by=(
        ast.OrderItem(col("v"), False),  # Descending: NULLs first.
        ast.OrderItem(col("k_det")),  # Ascending: NULLs last; many ties.
    ),
    limit=17,
)

GROUPED = ast.Select(
    items=(
        item(col("k_det"), "k"),
        item(ast.FuncCall("count", star=True), "n"),
        item(ast.FuncCall("sum", (col("v"),)), "s"),
        item(ast.FuncCall("avg", (col("v"),)), "a"),
        item(ast.FuncCall("min", (col("v"),)), "lo"),
        item(ast.FuncCall("max", (col("v"),)), "hi"),
        item(ast.FuncCall("grp", (col("label"),)), "g"),
        item(ast.FuncCall("count", (col("v"),), distinct=True), "nd"),
    ),
    from_items=(ast.TableName("t1"),),
    group_by=(col("k_det"),),
    having=ast.BinOp(">", ast.FuncCall("count", star=True), ast.Literal(3)),
    order_by=(ast.OrderItem(col("s"), False),),
    limit=5,
)

UNGROUPED = ast.Select(
    items=(
        item(ast.FuncCall("count", star=True), "n"),
        item(ast.FuncCall("sum", (col("v"),)), "s"),
        item(ast.FuncCall("grp", (col("k_det"),)), "g"),
    ),
    from_items=(ast.TableName("t1"),),
)

DISTINCT = ast.Select(
    items=(item(col("k_det")),),
    from_items=(ast.TableName("t1"),),
    distinct=True,
    order_by=(ast.OrderItem(col("k_det")),),
)

ALL_QUERIES = (SCAN, FILTERED, ORDERED, GROUPED, UNGROUPED, DISTINCT)


class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_all_modes_match_serial(self, kind, shards):
        sharded, serial = build_pair(kind, shards)
        for query in ALL_QUERIES:
            assert_equivalent(sharded, serial, query)
        sharded.close()

    def test_scan_preserves_insertion_order(self):
        sharded, serial = build_pair("memory", 3)
        assert sharded.execute(SCAN).rows == [r for r in ROWS]

    def test_ordinal_routing_without_det_column(self):
        plain_schema = schema("t1", ("a", "any"), ("b", "any"), ("label", "text"))
        sharded = make_sharded_backend("memory", 3, name="ord")
        sharded.create_table(plain_schema)
        rows = [(r[0], r[1], r[2]) for r in ROWS]
        sharded.insert_rows("t1", rows)
        scan = ast.Select(
            items=(item(col("a")), item(col("b")), item(col("label"))),
            from_items=(ast.TableName("t1"),),
        )
        assert sharded.execute(scan).rows == rows
        # Round-robin actually spread the rows.
        counts = [s.row_count("t1") for s in sharded.shards]
        assert all(c > 0 for c in counts)

    def test_det_key_routing_colocates_equal_keys(self):
        sharded, _ = build_pair("memory", 4)
        # Every row with the same k_det lives on exactly one shard.
        probe = ast.Select(
            items=(item(col("k_det")),), from_items=(ast.TableName("t1"),)
        )
        homes: dict[object, set[int]] = {}
        for index, shard in enumerate(sharded.shards):
            for (k,) in shard.execute(probe).rows:
                homes.setdefault(k, set()).add(index)
        assert all(len(where) == 1 for where in homes.values())

    def test_group_keys_merge_exactly_across_shards(self):
        # DET group keys split across shards re-merge to the serial
        # grouping: same groups, same first-encounter order.
        sharded, serial = build_pair("memory", 3)
        no_order = ast.Select(
            items=(
                item(col("k_det"), "k"),
                item(ast.FuncCall("count", star=True), "n"),
            ),
            from_items=(ast.TableName("t1"),),
            group_by=(col("k_det"),),
        )
        assert_equivalent(sharded, serial, no_order)

    def test_general_gather_join_and_subquery(self):
        sharded, serial = build_pair("memory", 3)
        other = schema("t2", ("k_det", "any"), ("w", "any"))
        extra = [(i % 7, i * 100) for i in range(7)]
        for backend in (sharded, serial):
            backend.create_table(other)
            backend.insert_rows("t2", extra)
        join = ast.Select(
            items=(item(col("label")), item(col("w"))),
            from_items=(
                ast.Join(
                    ast.TableName("t1"),
                    ast.TableName("t2"),
                    "inner",
                    ast.BinOp(
                        "=", ast.Column("k_det", "t1"), ast.Column("k_det", "t2")
                    ),
                ),
            ),
            order_by=(ast.OrderItem(col("label")),),
            limit=25,
        )
        assert_equivalent(sharded, serial, join)
        sub = ast.Select(
            items=(item(col("label")),),
            from_items=(ast.TableName("t1"),),
            where=ast.InSubquery(
                col("k_det"),
                ast.Select(
                    items=(item(col("k_det")),),
                    from_items=(ast.TableName("t2"),),
                    where=ast.BinOp(">", col("w"), ast.Literal(300)),
                ),
            ),
        )
        assert_equivalent(sharded, serial, sub)

    def test_replicated_table_stays_on_coordinator(self):
        sharded, serial = build_pair(
            "memory", 3, shard_keys={"t2": None}
        )
        other = schema("t2", ("k_det", "any"), ("w", "any"))
        extra = [(i % 7, i * 100) for i in range(7)]
        for backend in (sharded, serial):
            backend.create_table(other)
            backend.insert_rows("t2", extra)
        assert not any(s.has_table("t2") for s in sharded.shards)
        small_scan = ast.Select(
            items=(item(col("w")),), from_items=(ast.TableName("t2"),)
        )
        assert_equivalent(sharded, serial, small_scan)
        assert sharded.table_bytes("t2") == serial.table_bytes("t2")

    def test_explicit_shard_key_override(self):
        keyed = make_sharded_backend(
            "memory", 3, name="keyed", shard_keys={"t1": "label"}
        )
        keyed.create_table(SCHEMA)
        keyed.insert_rows("t1", ROWS)
        assert keyed.execute(SCAN).rows == ROWS
        with pytest.raises(ConfigError):
            bad = make_sharded_backend(
                "memory", 2, name="bad", shard_keys={"t1": "nope"}
            )
            bad.create_table(SCHEMA)

    def test_params_reach_the_shards(self):
        sharded, serial = build_pair("memory", 2)
        query = ast.Select(
            items=(item(col("label")),),
            from_items=(ast.TableName("t1"),),
            where=ast.BinOp(">", col("v"), ast.Param("lo")),
        )
        assert_equivalent(sharded, serial, query, params={"lo": 120})

    def test_empty_table_identity_rows(self):
        sharded = make_sharded_backend("memory", 3, name="empty")
        sharded.create_table(SCHEMA)
        serial = make_backend("memory", name="empty_ref")
        serial.create_table(SCHEMA)
        for query in ALL_QUERIES:
            assert_equivalent(sharded, serial, query)

    def test_table_bytes_shard_count_invariant(self):
        reference = None
        for shards in (1, 2, 3, 8):
            backend, _ = build_pair("memory", shards)
            current = backend.table_bytes("t1")
            assert reference is None or current == reference
            reference = current
            assert backend.row_count("t1") == len(ROWS)

    def test_hidden_ordinal_never_leaks(self):
        sharded, _ = build_pair("memory", 2)
        result = sharded.execute(SCAN)
        assert ORDINAL_COLUMN not in result.columns
        assert all(len(row) == 3 for row in result.rows)


# Join partners for the general gather: t2 shares only the join key with
# t1; t3 also has a column named ``v``, like t1.
T2 = schema("t2", ("k_det", "any"), ("w", "any"))
T2_ROWS = [(i % 7, i * 100) for i in range(7)]
T3 = schema("t3", ("k_det", "any"), ("v", "any"))
T3_ROWS = [(i % 7, i * 10) for i in range(7)]


def build_join_pair(kind: str, shards: int, serial_kind=None):
    sharded, serial = build_pair(kind, shards, serial_kind=serial_kind)
    for backend in (sharded, serial):
        for table, rows in ((T2, T2_ROWS), (T3, T3_ROWS)):
            backend.create_table(table)
            backend.insert_rows(table.name, rows)
    return sharded, serial


def qcol(table, name):
    return ast.Column(name, table)


def gt(left, right):
    return ast.BinOp(">", left, right)


def conj(*parts):
    return ast.conjoin(parts)


def spy_shard_scans(sharded, monkeypatch):
    """Record every query the coordinator sends to a shard."""
    seen: list[ast.Select] = []
    for shard in sharded.shards:

        def spy(query, params=None, _inner=shard.execute_stream, **kwargs):
            seen.append(query)
            return _inner(query, params=params, **kwargs)

        monkeypatch.setattr(shard, "execute_stream", spy)
    return seen


def scans_of(seen, table):
    return [q for q in seen if q.from_items == (ast.TableName(table),)]


class TestGeneralGather:
    """Joins and DISTINCT gather only the columns the query names and
    push each one-table WHERE conjunct to that table's shards; any other
    shape gathers whole tables.  Either way rows and ledger bytes equal
    the serial reference."""

    pytestmark = pytest.mark.parametrize(
        "kind,shards", [("memory", 2), ("memory", 3), ("sqlite", 2)]
    )

    def test_alias_qualified_conjunct(self, kind, shards):
        sharded, serial = build_join_pair(kind, shards)
        query = ast.Select(
            items=(item(qcol("a", "label")), item(qcol("b", "w"))),
            from_items=(ast.TableName("t1", "a"), ast.TableName("t2", "b")),
            where=conj(
                ast.BinOp("=", qcol("a", "k_det"), qcol("b", "k_det")),
                gt(qcol("a", "v"), ast.Literal(30)),
            ),
            order_by=(ast.OrderItem(qcol("a", "label")),),
        )
        assert_equivalent(sharded, serial, query)

    def test_bound_param_in_pushed_conjunct(self, kind, shards):
        sharded, serial = build_join_pair(kind, shards)
        query = ast.Select(
            items=(item(qcol("t1", "label")), item(col("w"))),
            from_items=(
                ast.Join(
                    ast.TableName("t1"),
                    ast.TableName("t2"),
                    "inner",
                    ast.BinOp("=", qcol("t1", "k_det"), qcol("t2", "k_det")),
                ),
            ),
            where=conj(gt(col("v"), ast.Param("lo")), gt(col("w"), ast.Param("w_lo"))),
            order_by=(ast.OrderItem(qcol("t1", "label")),),
        )
        for params in ({"lo": 120, "w_lo": 100}, {"lo": 0, "w_lo": -1}):
            assert_equivalent(sharded, serial, query, params=params)

    def test_name_in_two_tables_is_not_pushed(self, kind, shards, monkeypatch):
        # SQLite refuses the ambiguous ``v``; the coordinator's engine
        # applies it to the first relation that has it, as the serial
        # in-memory engine does.  Pushed to t3's shards it would drop
        # every t3 row below 30 and change the result.
        sharded, serial = build_join_pair(kind, shards, serial_kind="memory")
        seen = spy_shard_scans(sharded, monkeypatch)
        query = ast.Select(
            items=(item(qcol("t1", "label")), item(qcol("t3", "v"), "v3")),
            from_items=(ast.TableName("t1"), ast.TableName("t3")),
            where=conj(
                ast.BinOp("=", qcol("t1", "k_det"), qcol("t3", "k_det")),
                gt(col("v"), ast.Literal(30)),
            ),
            order_by=(ast.OrderItem(qcol("t1", "label")),),
        )
        got = assert_equivalent(sharded, serial, query)
        assert got.rows
        assert all(scan.where is None for scan in seen)

    def test_left_join_gathers_whole_tables(self, kind, shards, monkeypatch):
        sharded, serial = build_join_pair(kind, shards)
        seen = spy_shard_scans(sharded, monkeypatch)
        query = ast.Select(
            items=(item(qcol("t1", "label")), item(qcol("t2", "w"))),
            from_items=(
                ast.Join(
                    ast.TableName("t1"),
                    ast.TableName("t2"),
                    "left",
                    conj(
                        ast.BinOp("=", qcol("t1", "k_det"), qcol("t2", "k_det")),
                        gt(qcol("t2", "w"), ast.Literal(300)),
                    ),
                ),
            ),
            where=ast.IsNull(qcol("t2", "w")),
            order_by=(ast.OrderItem(qcol("t1", "label")),),
        )
        got = assert_equivalent(sharded, serial, query)
        assert 0 < len(got.rows) < len(ROWS)
        for table, schema_ in (("t1", SCHEMA), ("t2", T2)):
            (scan,) = set(scans_of(seen, table))
            assert scan.where is None
            assert [i.expr.name for i in scan.items] == [
                *schema_.column_names,
                ORDINAL_COLUMN,
            ]

    def test_subquery_gathers_whole_tables(self, kind, shards, monkeypatch):
        # On one shard the subquery would see only that shard's t2 rows.
        sharded, serial = build_join_pair(kind, shards)
        seen = spy_shard_scans(sharded, monkeypatch)
        lowest = ast.Select(
            items=(item(ast.FuncCall("min", (col("w"),))),),
            from_items=(ast.TableName("t2"),),
            where=gt(col("w"), ast.Literal(0)),
        )
        query = ast.Select(
            items=(item(col("label")),),
            from_items=(ast.TableName("t1"),),
            where=gt(col("v"), ast.ScalarSubquery(lowest)),
            distinct=True,
        )
        got = assert_equivalent(sharded, serial, query)
        assert 0 < len(got.rows) < len(ROWS)
        assert all(scan.where is None for scan in seen)

    def test_self_join(self, kind, shards, monkeypatch):
        sharded, serial = build_join_pair(kind, shards)
        seen = spy_shard_scans(sharded, monkeypatch)
        query = ast.Select(
            items=(item(qcol("a", "label"), "la"), item(qcol("b", "label"), "lb")),
            from_items=(ast.TableName("t1", "a"), ast.TableName("t1", "b")),
            where=conj(
                ast.BinOp("=", qcol("a", "k_det"), qcol("b", "k_det")),
                gt(qcol("a", "v"), ast.Literal(200)),
                ast.BinOp("<", qcol("b", "v"), ast.Literal(20)),
            ),
            order_by=(ast.OrderItem(col("la")), ast.OrderItem(col("lb"))),
        )
        got = assert_equivalent(sharded, serial, query)
        assert got.rows
        assert all(scan.where is None for scan in seen)

    def test_single_table_distinct(self, kind, shards, monkeypatch):
        sharded, serial = build_join_pair(kind, shards)
        seen = spy_shard_scans(sharded, monkeypatch)
        query = ast.Select(
            items=(item(col("k_det")),),
            from_items=(ast.TableName("t1"),),
            where=gt(col("v"), ast.Literal(30)),
            distinct=True,
            order_by=(ast.OrderItem(col("k_det")),),
        )
        assert_equivalent(sharded, serial, query)
        (scan,) = set(seen)
        assert [i.expr.name for i in scan.items] == ["k_det", "v", ORDINAL_COLUMN]
        assert scan.where == query.where

    def test_join_scan_carries_named_columns_and_pushed_conjunct(
        self, kind, shards, monkeypatch
    ):
        # Pins the projected, filtered gather: a silent fallback to the
        # whole-table gather fails here, not only in a benchmark.
        sharded, serial = build_join_pair(kind, shards)
        seen = spy_shard_scans(sharded, monkeypatch)
        query = ast.Select(
            items=(item(col("w")), item(ast.FuncCall("count", star=True), "n")),
            from_items=(ast.TableName("t1"), ast.TableName("t2")),
            where=conj(
                ast.BinOp("=", qcol("t1", "k_det"), qcol("t2", "k_det")),
                gt(qcol("t1", "v"), ast.Literal(30)),
            ),
            group_by=(col("w"),),
            order_by=(ast.OrderItem(col("w")),),
        )
        assert_equivalent(sharded, serial, query)
        assert len(seen) == 2 * shards
        (t1_scan,) = set(scans_of(seen, "t1"))
        assert [i.expr.name for i in t1_scan.items] == [
            "k_det",
            "v",
            ORDINAL_COLUMN,
        ]
        assert t1_scan.where == gt(col("v"), ast.Literal(30))
        (t2_scan,) = set(scans_of(seen, "t2"))
        assert [i.expr.name for i in t2_scan.items] == [
            "k_det",
            "w",
            ORDINAL_COLUMN,
        ]
        assert t2_scan.where is None


class TestStreaming:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_stream_matches_serial_blocks(self, shards):
        sharded, serial = build_pair("memory", shards)
        for query in (SCAN, FILTERED, ORDERED):
            got = sharded.execute_stream(query, block_rows=8)
            want = serial.execute_stream(query, block_rows=8)
            got_blocks = [block.rows() for block in got]
            want_blocks = [block.rows() for block in want]
            assert got_blocks == want_blocks  # Boundaries, not just rows.
            assert got.stats.bytes_scanned == want.stats.bytes_scanned
            assert got.stats.rows_output == want.stats.rows_output

    def test_blocking_query_stream_materializes_serially(self):
        # A stream request on a non-streamable shape materializes and
        # re-blocks instead of raising.
        sharded, serial = build_pair("memory", 2)
        got = sharded.execute_stream(GROUPED, block_rows=4)
        rows = [row for block in got for row in block.rows()]
        assert rows == serial.execute(GROUPED).rows


class _CountedStream(BlockStream):
    """A shard's block stream that tells its recorder when it closes."""

    def __init__(self, inner: BlockStream, recorder: "_RecordingShard") -> None:
        super().__init__(inner.columns, inner, inner.stats)
        self._inner = inner
        self._recorder = recorder

    def close(self) -> None:
        self._recorder.closed.add(id(self))
        self._inner.close()


class _RecordingShard(DelegatingView):
    """A shard that records the thread of every query it answers and the
    streams it opens and closes; ``fail`` makes every query raise it."""

    def __init__(self, parent, fail: BaseException | None = None) -> None:
        super().__init__(parent)
        self.fail = fail
        self.threads: list[int] = []
        self.opened: set[int] = set()
        self.closed: set[int] = set()

    def _called(self) -> None:
        self.threads.append(threading.get_ident())
        if self.fail is not None:
            raise self.fail

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        self._called()
        inner = self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )
        stream = _CountedStream(inner, self)
        self.opened.add(id(stream))
        return stream


def recorded(sharded, fail_first: BaseException | None = None):
    """``sharded`` over recording views of its shards; the first one
    raises ``fail_first`` on every query when it is given."""
    views = [
        _RecordingShard(shard, fail_first if index == 0 else None)
        for index, shard in enumerate(sharded.shards)
    ]
    return sharded.with_shards(views), views


def assert_every_stream_closed(views):
    for view in views:
        assert len(view.opened) == 1 and view.closed == view.opened


JOIN = ast.Select(
    items=(item(qcol("a", "label")), item(qcol("b", "w"))),
    from_items=(ast.TableName("t1", "a"), ast.TableName("t2", "b")),
    where=ast.BinOp("=", qcol("a", "k_det"), qcol("b", "k_det")),
    order_by=(ast.OrderItem(qcol("a", "label")),),
)


class TestCallersThread:
    """One query runs on its caller's thread: the coordinator asks its
    shards in turn and merges their streams where they are pulled, and
    every shard stream it opens is closed however the merge ends."""

    @pytest.mark.parametrize(
        "query",
        [SCAN, ORDERED, GROUPED, JOIN],
        ids=["scan", "ordered", "grouped", "join"],
    )
    def test_fan_out_calls_every_shard_on_callers_thread(self, query):
        sharded, serial = build_join_pair("memory", 3)
        wrapped, views = recorded(sharded)
        assert_equivalent(wrapped, serial, query)
        me = threading.get_ident()
        for view in views:
            assert view.threads and set(view.threads) == {me}

    @pytest.mark.parametrize("query", [SCAN, ORDERED], ids=["scan", "ordered"])
    def test_drained_stream_runs_on_callers_thread(self, query):
        sharded, serial = build_pair("memory", 3)
        wrapped, views = recorded(sharded)
        rows = wrapped.execute_stream(query, block_rows=4).drain_rows()
        assert rows == serial.execute(query).rows
        for view in views:
            assert set(view.threads) == {threading.get_ident()}
        assert_every_stream_closed(views)

    def test_close_after_first_block_closes_every_shard_stream(self):
        sharded, _ = build_pair("memory", 3)
        wrapped, views = recorded(sharded)
        stream = wrapped.execute_stream(SCAN, block_rows=4)
        assert next(iter(stream)).num_rows == 4
        stream.close()
        assert_every_stream_closed(views)

    @pytest.mark.parametrize(
        "query",
        [
            ast.Select(items=SCAN.items, from_items=SCAN.from_items, limit=5),
            ORDERED,
        ],
        ids=["scan", "ordered"],
    )
    def test_limit_ending_the_merge_closes_every_shard_stream(self, query):
        sharded, serial = build_pair("memory", 3)
        wrapped, views = recorded(sharded)
        rows = wrapped.execute_stream(query, block_rows=2).drain_rows()
        assert rows == serial.execute(query).rows
        assert len(rows) == query.limit
        assert_every_stream_closed(views)

    @pytest.mark.parametrize("streamed", [False, True])
    def test_permanent_error_on_first_shard_stops_the_fan_out(self, streamed):
        error = ExecutionError("shard 0 refuses")
        sharded, _ = build_pair("memory", 2)
        wrapped, views = recorded(sharded, fail_first=error)
        with pytest.raises(ExecutionError) as raised:
            if streamed:
                wrapped.execute_stream(SCAN, block_rows=4).drain_rows()
            else:
                wrapped.execute(SCAN)
        assert raised.value is error
        assert len(views[0].threads) == 1  # Not transient: no retry.
        assert views[1].threads == []


class TestChaosOneShard:
    """Faults injected on a single shard retry per the transient taxonomy
    without disturbing the others — results stay byte-identical."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_execute_under_single_shard_chaos(self, seed):
        sharded, serial = build_pair("memory", 3)
        chaotic = FaultInjectingBackend(sharded.shards[0], seed, 0.2)
        wrapped = sharded.with_shards(
            [chaotic, sharded.shards[1], sharded.shards[2]]
        )
        for _ in range(4):  # Enough volume for the schedule to fire.
            for query in ALL_QUERIES:
                assert_equivalent(wrapped, serial, query)
        stats = chaotic.stats()
        assert stats["draws"] > 0
        assert stats["injected_errors"] + stats["truncations"] > 0

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_stream_under_single_shard_chaos(self, seed):
        sharded, serial = build_pair("memory", 3)
        chaotic = FaultInjectingBackend(sharded.shards[1], seed, 0.2)
        wrapped = sharded.with_shards(
            [sharded.shards[0], chaotic, sharded.shards[2]]
        )
        want = serial.execute(ORDERED).rows
        for _ in range(6):
            stream = wrapped.execute_stream(ORDERED, block_rows=4)
            assert [row for b in stream for row in b.rows()] == want
        assert chaotic.stats()["draws"] > 0

    def test_insert_retries_through_shard_faults(self):
        sharded = make_sharded_backend("memory", 2, name="chaotic_load")
        chaotic = FaultInjectingBackend(sharded.shards[0], 11, 0.3)
        wrapped = sharded.with_shards([chaotic, sharded.shards[1]])
        wrapped.create_table(SCHEMA)
        wrapped.insert_rows("t1", ROWS)
        assert wrapped.execute(SCAN).rows == ROWS
        assert chaotic.stats()["draws"] > 0

    def test_insert_survives_shard_lost_ack(self):
        # Seed 7 loses the ack of a bucket the shard has committed: the
        # coordinator must not send that bucket again.
        sharded = make_sharded_backend("memory", 2, name="lost_ack_load")
        chaotic = FaultInjectingBackend(sharded.shards[0], 7, 0.3)
        wrapped = sharded.with_shards([chaotic, sharded.shards[1]])
        wrapped.create_table(SCHEMA)
        wrapped.insert_rows("t1", ROWS)
        assert wrapped.row_count("t1") == len(ROWS)
        assert wrapped.execute(SCAN).rows == ROWS
        assert chaotic.stats()["injected_errors"] > 0


class TestTopology:
    def test_with_shards_count_mismatch_raises(self):
        sharded, _ = build_pair("memory", 3)
        with pytest.raises(ConfigError):
            sharded.with_shards(sharded.shards[:2])

    def test_adopt_table_recovers_accounting(self):
        sharded, _ = build_pair("memory", 3)
        resumed = ShardedBackend(sharded.shards, name="resumed")
        resumed.adopt_table(SCHEMA)
        assert resumed.row_count("t1") == sharded.row_count("t1")
        assert resumed.table_bytes("t1") == sharded.table_bytes("t1")
        assert resumed.execute(SCAN).rows == sharded.execute(SCAN).rows
        # Ordinal watermark continues past the adopted rows.
        resumed.insert_rows("t1", [(99, 1, "tail")])
        assert resumed.execute(SCAN).rows[-1] == (99, 1, "tail")

    def test_route_hash_is_process_stable(self):
        # Routing must not depend on Python's salted hash().
        assert route_hash(42) == route_hash(42)
        assert route_hash(b"\x01\x02") == route_hash(b"\x01\x02")
        values = [route_hash(v) % 4 for v in range(64)]
        assert len(set(values)) > 1  # Actually spreads.


# ---------------------------------------------------------------------------
# Client-level: the full encrypted pipeline, shard-count-invariant
# ---------------------------------------------------------------------------


def ledger_key(ledger):
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


@pytest.fixture(scope="module", params=[2, 3])
def sharded_sales_client(request, sales_db, provider, sales_client):
    """The conftest sales client's sharded twin: same design, same key
    chain, N shards — so rows and ledgers must match byte-for-byte."""
    return MonomiClient.setup(
        sales_db,
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=sales_client.design,
        shards=request.param,
    )


class TestClientEquivalence:
    def test_backend_is_sharded(self, sharded_sales_client):
        backend = sharded_sales_client.backend
        while hasattr(backend, "_parent"):  # Unwrap chaos, if armed.
            backend = backend._parent
        assert isinstance(backend, ShardedBackend)

    def test_sales_workload_rows_and_ledgers(
        self, sharded_sales_client, sales_client
    ):
        for query in SALES_WORKLOAD:
            want = sales_client.execute(query)
            got = sharded_sales_client.execute(query)
            assert canonical(got.rows) == canonical(want.rows)
            assert got.rows == want.rows
            assert ledger_key(got.ledger) == ledger_key(want.ledger)

    def test_execute_iter_streams_through_shards(
        self, sharded_sales_client, sales_client
    ):
        for query in SALES_WORKLOAD[:3]:
            rows = []
            for block in sharded_sales_client.execute_iter(query):
                rows.extend(block.rows())
            assert rows == sales_client.execute(query).rows

    def test_sqlite_sharded_client(self, sales_db, provider, sales_client):
        client = MonomiClient.setup(
            sales_db,
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=384,
            space_budget=2.5,
            provider=provider,
            design=sales_client.design,
            backend="sqlite",
            shards=2,
        )
        try:
            for query in SALES_WORKLOAD:
                want = sales_client.execute(query)
                got = client.execute(query)
                assert got.rows == want.rows
                assert ledger_key(got.ledger) == ledger_key(want.ledger)
        finally:
            client.close()

    def test_setup_shards_a_backend_kind(self, sales_db, provider, sales_client):
        def setup(shards):
            return MonomiClient.setup(
                sales_db,
                SALES_WORKLOAD,
                master_key=MASTER_KEY,
                paillier_bits=384,
                space_budget=2.5,
                provider=provider,
                design=sales_client.design,
                shards=shards,
            )

        client = setup(2)
        backend = client.backend
        while hasattr(backend, "_parent"):
            backend = backend._parent
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 2
        query = SALES_WORKLOAD[0]
        assert client.execute(query).rows == sales_client.execute(query).rows
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            setup(0)

    def test_shards_option_reaches_the_suite_clients(self, pytestconfig, sales_client):
        """``--shards=N`` sets up the suites' clients that name a backend
        kind over N shards; without it they run over one store."""
        store = sales_client.backend
        while hasattr(store, "_parent"):
            store = store._parent
        shards = pytestconfig.getoption("shards")
        if shards == 1:
            assert not isinstance(store, ShardedBackend)
        else:
            assert isinstance(store, ShardedBackend)
            assert len(store.shards) == shards


# ---------------------------------------------------------------------------
# Over the network: N TCP shard servers (selected by `-k network`)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def network_shard_cluster(sharded_sales_client):
    from repro.net.sharded import serve_shards

    backend = sharded_sales_client.backend
    while hasattr(backend, "_parent"):
        backend = backend._parent
    with serve_shards(backend) as cluster:
        yield cluster


class TestNetworkShards:
    def test_network_cluster_addresses(self, network_shard_cluster):
        addresses = network_shard_cluster.addresses
        assert len(addresses) == len(set(addresses)) >= 2

    def test_network_rows_and_ledgers_match_in_process(
        self, network_shard_cluster, sharded_sales_client, sales_client, sales_db
    ):
        remote = MonomiClient(
            sales_db,
            sharded_sales_client.design,
            sharded_sales_client.provider,
            network_shard_cluster.backend,
            sharded_sales_client.flags,
            sharded_sales_client.network,
            sharded_sales_client.disk,
        )
        for query in SALES_WORKLOAD:
            want = sales_client.execute(query)
            got = remote.execute(query)
            assert got.rows == want.rows
            assert ledger_key(got.ledger) == ledger_key(want.ledger)

    def test_network_streaming_through_shard_sockets(
        self, network_shard_cluster, sharded_sales_client, sales_client, sales_db
    ):
        remote = MonomiClient(
            sales_db,
            sharded_sales_client.design,
            sharded_sales_client.provider,
            network_shard_cluster.backend,
            sharded_sales_client.flags,
            sharded_sales_client.network,
            sharded_sales_client.disk,
        )
        for query in SALES_WORKLOAD[:3]:
            rows = []
            for block in remote.execute_iter(query):
                rows.extend(block.rows())
            assert rows == sales_client.execute(query).rows
