"""SQLite indexes on the design's DET join keys, built once at load.

``MonomiClient.setup`` asks the server for a B-tree index on every DET
column that is an equi-join key of the designer's workload, then runs
``ANALYZE`` (``core.loader.join_key_indexes``,
``ServerBackend.create_indexes``).  These tests pin what that builds and
where the request reaches:

* the keys come from JOIN ON conditions and correlated subqueries too,
  and only a column with a DET copy is one;
* on SSB, designed from the benchmark's four queries, the store holds
  exactly the eight join-key indexes, and no server query of the 13 plans
  an automatic index, on the main connection or on a worker view's;
* ``create_indexes`` is idempotent and refuses a column the table does
  not store;
* every view forwards it to the store, the sharded coordinator to each
  shard; a remote client refuses it and the in-memory backend keeps the
  no-op.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ConfigError, EngineError
from repro.core import MonomiClient, normalize_query
from repro.core.design import PhysicalDesign
from repro.core.loader import complete_design, join_key_indexes
from repro.engine import Executor
from repro.engine.schema import schema
from repro.net import MonomiServer, RemoteBackend
from repro.server import (
    FaultInjectingBackend,
    InMemoryBackend,
    ServerBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.server.backend import DelegatingView, LockScopedView
from repro.sql import parse
from repro.ssb import generate, ssb_queries
from repro.testkit import MASTER_KEY, build_sales_db, canonical

#: The benchmark's designer input: one query per SSB flight.
DESIGN_INPUT = ("1.1", "2.1", "3.1", "4.1")

JOIN_KEY_INDEXES = {
    "ix_customer_c_custkey_det",
    "ix_ddate_d_datekey_det",
    "ix_lineorder_lo_custkey_det",
    "ix_lineorder_lo_orderdate_det",
    "ix_lineorder_lo_partkey_det",
    "ix_lineorder_lo_suppkey_det",
    "ix_part_p_partkey_det",
    "ix_supplier_s_suppkey_det",
}


class _Recorder(DelegatingView):
    """Forwards everything; records index requests and server queries."""

    def __init__(self, parent) -> None:
        super().__init__(parent)
        self.indexed: list[tuple[str, tuple[str, ...]]] = []
        self.queries: list[tuple] = []

    def create_indexes(self, table_name, columns):
        columns = tuple(columns)
        self.indexed.append((table_name, columns))
        self._parent.create_indexes(table_name, columns)

    def execute_stream(self, query, params=None, **kwargs):
        self.queries.append((query, params))
        return self._parent.execute_stream(query, params=params, **kwargs)


def index_names(store: SQLiteBackend) -> set[str]:
    rows = store.connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'"
    )
    return {name for (name,) in rows}


def catalog(store: SQLiteBackend) -> tuple[list, list]:
    """Every schema object and every planner statistic the store holds."""
    conn = store.connection
    objects = conn.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master ORDER BY name"
    ).fetchall()
    stats = conn.execute(
        "SELECT tbl, idx, stat FROM sqlite_stat1 ORDER BY tbl, idx"
    ).fetchall()
    return objects, stats


# ---------------------------------------------------------------------------
# Choosing the columns
# ---------------------------------------------------------------------------


def test_join_keys_come_from_on_conditions_and_correlated_subqueries():
    db = build_sales_db(num_orders=10)
    schemas = {name: table.schema for name, table in db.tables.items()}
    design = complete_design(PhysicalDesign(), db)
    sql = (
        "SELECT c_name FROM customer c JOIN orders o ON o.o_custkey = c.c_custkey "
        "WHERE c_nation = 'FRANCE' AND o.o_price > o.o_qty AND EXISTS "
        "(SELECT o2.o_orderkey FROM orders o2 WHERE o2.o_orderkey = o.o_orderkey)"
    )
    keys = join_key_indexes(design, [normalize_query(parse(sql))], schemas)
    assert keys == {
        "customer": ("c_custkey_det",),
        "orders": ("o_custkey_det", "o_orderkey_det"),
    }
    # A column without a DET copy is never an index key.
    design.entries = {e for e in design.entries if e.expr_sql != "c_custkey"}
    keys = join_key_indexes(design, [normalize_query(parse(sql))], schemas)
    assert "customer" not in keys


# ---------------------------------------------------------------------------
# SSB: the benchmark's design on a real SQLite store
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ssb():
    db = generate(scale=0.001)
    queries = ssb_queries()
    store = SQLiteBackend(name="ssb_enc")
    recorder = _Recorder(store)
    client = MonomiClient.setup(
        db,
        [queries[n].sql for n in DESIGN_INPUT],
        master_key=MASTER_KEY,
        paillier_bits=384,
        backend=recorder,
    )
    yield db, client, store, recorder
    store.close()


@pytest.fixture(scope="module")
def server_queries(ssb):
    """SQLite text and bindings of every server query the 13 statements
    send, each statement checked against the plaintext engine."""
    db, client, store, recorder = ssb
    plain = Executor(db)
    for name, spec in ssb_queries().items():
        query = normalize_query(parse(spec.sql))
        expected = plain.execute(query).rows
        assert canonical(client.execute(query).rows) == canonical(expected), name
    texts = {}
    for query, params in recorder.queries:
        _, sql_text, bind = store._prepare(query, params)
        texts.setdefault(sql_text, bind)
    return texts


def test_setup_indexes_exactly_the_join_keys(ssb):
    _, _, store, recorder = ssb
    assert index_names(store) == JOIN_KEY_INDEXES
    # One request per table, and every index has planner statistics.
    tables = sorted(table for table, _ in recorder.indexed)
    assert tables == ["customer", "ddate", "lineorder", "part", "supplier"]
    _, stats = catalog(store)
    assert {idx for _, idx, _ in stats} == JOIN_KEY_INDEXES


def test_no_server_query_builds_an_automatic_index(ssb, server_queries):
    _, _, store, _ = ssb
    assert len(server_queries) == 13
    view = store.worker_view()  # A connection opened after setup.
    try:
        for conn in (store.connection, view.connection):
            for sql_text, bind in server_queries.items():
                plan = conn.execute("EXPLAIN QUERY PLAN " + sql_text, bind)
                details = [row[-1] for row in plan]
                assert not any("AUTOMATIC" in d for d in details), details
                assert any("USING INDEX ix_" in d for d in details), details
    finally:
        view.close()


def test_create_indexes_twice_changes_nothing(ssb):
    _, _, store, recorder = ssb
    before = catalog(store)
    for table_name, columns in list(recorder.indexed):
        store.create_indexes(table_name, columns)
    assert catalog(store) == before


def test_unknown_column_is_refused_before_anything_is_built(ssb):
    _, _, store, _ = ssb
    before = catalog(store)
    unindexed = next(
        column.name
        for column in store.schemas["lineorder"].columns
        if f"ix_lineorder_{column.name}" not in JOIN_KEY_INDEXES
    )
    with pytest.raises(EngineError):
        # The plaintext name is not a stored column.
        store.create_indexes("lineorder", [unindexed, "lo_custkey"])
    with pytest.raises(EngineError):
        store.create_indexes("no_such_table", [unindexed])
    assert catalog(store) == before


def test_index_space_is_reported_apart_from_the_ledger(ssb):
    _, client, store, _ = ssb
    assert store.index_bytes() > 0
    heaps = sum(store.table_bytes(name) for name in store.table_names())
    assert client.server_bytes() == heaps + store.ciphertext_store.total_bytes
    empty = SQLiteBackend(name="no_indexes")
    try:
        assert empty.index_bytes() == 0
    finally:
        empty.close()


# ---------------------------------------------------------------------------
# The seam: views and shards forward, remote refuses, in-memory is a no-op
# ---------------------------------------------------------------------------

T = schema("t", ("k_det", "int"), ("v_rnd", "bytes"))
ROWS = [(i % 5, bytes([i])) for i in range(20)]


class _Passthrough(DelegatingView):
    """A plain ``DelegatingView``: only execution is its own."""

    def execute_stream(self, query, params=None, **kwargs):
        return self._parent.execute_stream(query, params=params, **kwargs)


class _LockProbe(_Recorder):
    """Also notes whether ``lock`` was held when the request arrived."""

    def __init__(self, parent, lock) -> None:
        super().__init__(parent)
        self.lock = lock
        self.held: list[bool] = []

    def create_indexes(self, table_name, columns):
        self.held.append(self.lock.locked())
        super().create_indexes(table_name, columns)


def loaded_store(name: str) -> SQLiteBackend:
    store = SQLiteBackend(name=name)
    store.create_table(T)
    store.insert_rows("t", ROWS)
    return store


@pytest.mark.parametrize("wrapper", ["delegating", "lock_scoped", "chaos"])
def test_views_forward_create_indexes_to_the_store(wrapper):
    store = loaded_store(f"forward_{wrapper}")
    lock = threading.Lock()
    probe = _LockProbe(store, lock)
    if wrapper == "delegating":
        view = _Passthrough(probe)
    elif wrapper == "lock_scoped":
        view = LockScopedView(probe, lock)
    else:
        # At rate 1.0 every call the proxy faults fails; loads are not one.
        view = FaultInjectingBackend(probe, seed=3, rate=1.0)
    try:
        view.create_indexes("t", iter(["k_det"]))
        assert probe.indexed == [("t", ("k_det",))]
        assert probe.held == [wrapper == "lock_scoped"]
        assert index_names(store) == {"ix_t_k_det"}
    finally:
        store.close()


def test_sharded_backend_indexes_every_shard():
    stores = [SQLiteBackend(name=f"index_shard{i}") for i in range(2)]
    recorders = [_Recorder(store) for store in stores]
    sharded = ShardedBackend(recorders, shard_keys={"dim": None})
    try:
        sharded.create_table(T)
        sharded.insert_rows("t", ROWS)
        sharded.create_table(schema("dim", ("d_det", "int")))
        sharded.create_indexes("t", iter(["k_det"]))
        # A replicated table lives in the coordinator's engine: no index.
        sharded.create_indexes("dim", ["d_det"])
        for recorder, store in zip(recorders, stores):
            assert recorder.indexed == [("t", ("k_det",))]
            assert index_names(store) == {"ix_t_k_det"}
        with pytest.raises(EngineError):
            sharded.create_indexes("no_such_table", ["k_det"])
    finally:
        for store in stores:
            store.close()


def test_remote_backend_refuses_create_indexes():
    store = loaded_store("remote_refuses")
    try:
        with MonomiServer(store) as server:
            remote = RemoteBackend(server.address)
            try:
                with pytest.raises(ConfigError):
                    remote.create_indexes("t", ["k_det"])
            finally:
                remote.close()
        assert index_names(store) == set()
    finally:
        store.close()


def test_in_memory_backend_keeps_the_no_op():
    backend = InMemoryBackend(name="mem")
    backend.create_table(T)
    backend.insert_rows("t", ROWS)
    assert type(backend).create_indexes is ServerBackend.create_indexes
    backend.create_indexes("t", ["k_det"])
    assert backend.database.table("t").rows == ROWS
