"""Cross-backend equivalence: split plans on real SQLite vs the in-memory engine.

The ``ServerBackend`` seam promises that every split plan — including
multi-round-trip DET IN-set plans — produces identical plaintext results
and identical ledger byte counts whether the untrusted server is the
in-process engine or a real SQLite database with the ``hom_agg`` /
``grp`` / ``searchswp`` UDFs.  This module tests that promise at three
levels: the value codec, splitter-generated plans executed directly
through :class:`PlanExecutor`, and the full TPC-H / SSB suites.
"""

from __future__ import annotations

import pytest

from repro.testkit import MASTER_KEY, build_sales_db, canonical
from repro.core import (
    CryptoProvider,
    EncryptedLoader,
    HomGroup,
    MonomiClient,
    PlanExecutor,
    Scheme,
    TechniqueFlags,
    generate_query_plan,
    normalize_query,
)
from repro.core.candidates import base_design_for_plain
from repro.core.loader import complete_design, join_key_indexes
from repro.engine import Executor
from repro.net.sharded import serve_shards
from repro.server import InMemoryBackend, SQLiteBackend, make_backend
from repro.server.sqlite import (
    BIG_MARK,
    decode_sqlite_value,
    encode_sqlite_value,
)
from repro.sql import parse
from repro.ssb import generate as ssb_generate, ssb_queries
from repro.storage.ciphertext_store import CiphertextStore
from repro.tpch import generate as tpch_generate, tpch_queries

TPCH_SCALE = 0.0003
TPCH_NUMBERS = (1, 3, 4, 6, 11, 12, 18, 19)
SSB_SCALE = 0.0002
SSB_NUMBERS = ("1.1", "2.1", "3.1", "4.1")


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------


class TestSqliteCodec:
    def test_native_values_pass_through(self):
        store = CiphertextStore()
        for value in (None, 42, -7, 3.5, "text", b"\x01\x02", 0, (1 << 62)):
            assert decode_sqlite_value(encode_sqlite_value(value), store) == value

    def test_wide_integers_round_trip(self):
        store = CiphertextStore()
        for value in (1 << 63, (1 << 88) - 1, (1 << 104) + 12345):
            encoded = encode_sqlite_value(value)
            assert isinstance(encoded, bytes) and encoded.startswith(BIG_MARK)
            assert decode_sqlite_value(encoded, store) == value

    def test_wide_integer_blobs_preserve_order(self):
        """SQLite compares BLOBs bytewise and sorts INTEGER before BLOB, so
        the marker encoding must be order-preserving across the 2**63
        boundary — that is what keeps OPE comparisons correct."""
        values = [0, 5, (1 << 62), (1 << 63) - 1, 1 << 63, (1 << 63) + 1, 1 << 87]
        encoded = [encode_sqlite_value(v) for v in values]

        def sqlite_order(x, y):
            # INTEGER < BLOB; INTEGER vs INTEGER numeric; BLOB vs BLOB memcmp.
            x_blob, y_blob = isinstance(x, bytes), isinstance(y, bytes)
            if x_blob != y_blob:
                return -1 if y_blob else 1
            return -1 if x < y else (1 if x > y else 0)

        for i in range(len(values) - 1):
            assert sqlite_order(encoded[i], encoded[i + 1]) == -1

    def test_tag_sets_round_trip(self):
        store = CiphertextStore()
        tags = frozenset({b"\x01" * 8, b"\x02" * 8, b"\xff" * 8})
        assert decode_sqlite_value(encode_sqlite_value(tags), store) == tags


# ---------------------------------------------------------------------------
# Splitter plans through PlanExecutor on both backends
# ---------------------------------------------------------------------------

PLAN_QUERIES = [
    # Integer division must use true division on every backend (SQLite's
    # native / truncates; the dialect casts the dividend to REAL).
    "SELECT o_custkey, SUM(o_price) / COUNT(*) FROM orders "
    "GROUP BY o_custkey ORDER BY o_custkey",
    # Fully pushed GROUP BY with homomorphic SUM.
    "SELECT o_custkey, SUM(o_price) FROM orders GROUP BY o_custkey",
    # grp() fallback + local re-aggregation.
    "SELECT o_status, SUM(o_qty), MIN(o_price) FROM orders GROUP BY o_status",
    # SEARCH predicate through the searchswp UDF.
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
    # OPE range + DET join.
    "SELECT c_segment, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_price > 2500 GROUP BY c_segment",
    # Multi-round-trip: IN-subquery materialized as a DET-encrypted server set.
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT o_custkey FROM orders GROUP BY o_custkey HAVING SUM(o_qty) > 140)",
]


@pytest.fixture(scope="module")
def plan_env():
    db = build_sales_db(num_orders=120, seed=31)
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    design = base_design_for_plain(db)
    design.add("orders", "o_custkey", Scheme.DET)
    design.add("orders", "o_status", Scheme.DET)
    design.add("orders", "o_orderkey", Scheme.DET)
    design.add("orders", "o_price", Scheme.OPE)
    design.add("orders", "o_qty", Scheme.OPE)
    design.add("orders", "o_comment", Scheme.SEARCH)
    design.add("customer", "c_custkey", Scheme.DET)
    design.add("customer", "c_segment", Scheme.DET)
    design.add_hom_group(HomGroup("orders", ("o_price", "o_qty"), 4))
    loader = EncryptedLoader(db, provider)
    memory = loader.load_into(make_backend("memory"), design)
    sqlite = loader.load_into(make_backend("sqlite"), design)
    schemas = {name: t.schema for name, t in db.tables.items()}
    # Index the join keys as MonomiClient.setup does.
    queries = [normalize_query(parse(sql)) for sql in PLAN_QUERIES]
    indexes = join_key_indexes(complete_design(design, db), queries, schemas)
    for table_name, columns in indexes.items():
        sqlite.create_indexes(table_name, columns)
    return db, provider, design, schemas, memory, sqlite


@pytest.mark.parametrize("sql", PLAN_QUERIES)
def test_split_plan_runs_identically_on_both_backends(plan_env, sql):
    db, provider, design, schemas, memory, sqlite = plan_env
    query = normalize_query(parse(sql))
    plan = generate_query_plan(
        query, design, schemas, provider, TechniqueFlags(), None, plain_db=db
    )
    mem_result, mem_ledger = PlanExecutor(memory, provider).execute(plan)
    lite_result, lite_ledger = PlanExecutor(sqlite, provider).execute(plan)
    expected = Executor(db).execute(query)
    assert canonical(mem_result.rows) == canonical(expected.rows)
    assert canonical(lite_result.rows) == canonical(expected.rows)
    assert mem_ledger.transfer_bytes == lite_ledger.transfer_bytes
    assert mem_ledger.server_bytes_scanned == lite_ledger.server_bytes_scanned
    assert mem_ledger.round_trips == lite_ledger.round_trips


def test_scan_accounting_is_static_for_unexecuted_subqueries():
    """A subquery the engine short-circuits (empty outer table) still counts
    toward the scan footprint — on both backends, identically."""
    from repro.engine import Database, schema

    rows_u = [(1,), (2,), (3,)]
    backends = []
    for kind in ("memory", "sqlite"):
        backend = make_backend(kind)
        backend.create_table(schema("t", ("a", "int")))
        backend.create_table(schema("u", ("b", "int")))
        backend.insert_rows("t", [])
        backend.insert_rows("u", rows_u)
        backends.append(backend)
    query = normalize_query(
        parse("SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE b = a)")
    )
    scanned = []
    for backend in backends:
        result = backend.execute(query)
        assert result.rows == []
        scanned.append(backend.last_stats.bytes_scanned)
    assert scanned[0] == scanned[1] > 0


def test_backends_report_identical_footprint(plan_env):
    _, _, _, _, memory, sqlite = plan_env
    assert memory.table_names() == sqlite.table_names()
    for name in memory.table_names():
        assert memory.table_bytes(name) == sqlite.table_bytes(name)
    assert memory.total_bytes == sqlite.total_bytes


def test_sqlite_server_never_sees_plaintext(plan_env):
    """Dump every raw SQLite value — table rows, the schema text, the
    planner statistics and every index's keys: no plaintext string, date,
    or comment word from the sales data may appear at rest."""
    db, _, _, _, _, sqlite = plan_env
    forbidden = {"OPEN", "SHIPPED", "RETURNED", "BUILDING", "FRANCE"}
    import datetime

    conn = sqlite.connection
    dumped = []
    for name in sqlite.table_names():
        dumped.extend(conn.execute(f'SELECT * FROM "{name}"').fetchall())
    dumped.extend(conn.execute("SELECT sql FROM sqlite_master").fetchall())
    dumped.extend(conn.execute("SELECT * FROM sqlite_stat1").fetchall())
    indexes = conn.execute(
        "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
    ).fetchall()
    assert indexes  # The join keys of PLAN_QUERIES are indexed.
    for index, table in indexes:
        ((_, _, column),) = conn.execute(f'PRAGMA index_info("{index}")')
        dumped.extend(
            conn.execute(f'SELECT "{column}" FROM "{table}" INDEXED BY "{index}"')
        )
    for row in dumped:
        for value in row:
            assert value not in forbidden
            assert not isinstance(value, datetime.date)
            if isinstance(value, str):
                assert "brown" not in value and "Customer" not in value


# ---------------------------------------------------------------------------
# Full TPC-H / SSB suites on both backends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_pair():
    db = tpch_generate(scale=TPCH_SCALE, seed=5)
    queries = tpch_queries(TPCH_SCALE)
    workload = [queries[n].sql for n in TPCH_NUMBERS]
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    memory = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=384,
        space_budget=2.0, provider=provider,
    )
    sqlite = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=384,
        space_budget=2.0, provider=provider, design=memory.design,
        backend="sqlite",
    )
    return db, queries, memory, sqlite


@pytest.mark.parametrize("number", TPCH_NUMBERS)
def test_tpch_backends_agree(tpch_pair, number):
    db, queries, memory, sqlite = tpch_pair
    query = normalize_query(parse(queries[number].sql))
    mem = memory.execute(query)
    lite = sqlite.execute(query)
    expected = Executor(db).execute(query)
    assert canonical(mem.rows) == canonical(expected.rows)
    assert canonical(lite.rows) == canonical(expected.rows)
    assert mem.ledger.transfer_bytes == lite.ledger.transfer_bytes
    assert mem.ledger.server_bytes_scanned == lite.ledger.server_bytes_scanned


@pytest.fixture(scope="module")
def ssb_pair():
    db = ssb_generate(scale=SSB_SCALE, seed=13)
    queries = ssb_queries()
    workload = [queries[n].sql for n in SSB_NUMBERS]
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    memory = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=384,
        space_budget=2.0, provider=provider,
    )
    sqlite = MonomiClient.setup(
        db, workload, master_key=MASTER_KEY, paillier_bits=384,
        space_budget=2.0, provider=provider, design=memory.design,
        backend="sqlite",
    )
    return db, queries, memory, sqlite


@pytest.mark.parametrize("number", SSB_NUMBERS)
def test_ssb_backends_agree(ssb_pair, number):
    db, queries, memory, sqlite = ssb_pair
    query = normalize_query(parse(queries[number].sql))
    mem = memory.execute(query)
    lite = sqlite.execute(query)
    expected = Executor(db).execute(query)
    assert canonical(mem.rows) == canonical(expected.rows)
    assert canonical(lite.rows) == canonical(expected.rows)
    assert mem.ledger.transfer_bytes == lite.ledger.transfer_bytes
    assert mem.ledger.server_bytes_scanned == lite.ledger.server_bytes_scanned


def _ledger_bytes(ledger) -> tuple[int, int, int]:
    return ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips


@pytest.mark.parametrize("suite", ["tpch", "ssb"])
def test_two_shards_match_serial(request, suite):
    """The TPC-H and SSB suites on two shards, in process and behind one
    loopback server per shard, return the serial client's rows and
    ledger byte counts, query by query."""
    db, queries, memory, _ = request.getfixturevalue(f"{suite}_pair")
    numbers = TPCH_NUMBERS if suite == "tpch" else SSB_NUMBERS
    sharded = MonomiClient.setup(
        db, [queries[n].sql for n in numbers], master_key=MASTER_KEY,
        paillier_bits=384, space_budget=2.0, provider=memory.provider,
        design=memory.design, shards=2,
    )
    backend = sharded.backend
    while hasattr(backend, "_parent"):  # Unwrap chaos, if armed.
        backend = backend._parent
    with serve_shards(backend) as cluster:
        remote = MonomiClient(
            db, sharded.design, sharded.provider, cluster.backend,
            sharded.flags, sharded.network, sharded.disk,
        )
        for number in numbers:
            query = normalize_query(parse(queries[number].sql))
            want = memory.execute(query)
            for client in (sharded, remote):
                got = client.execute(query)
                assert canonical(got.rows) == canonical(want.rows), number
                assert _ledger_bytes(got.ledger) == _ledger_bytes(want.ledger), (
                    number
                )
        remote.close()


# ---------------------------------------------------------------------------
# SQLite backend unit behavior
# ---------------------------------------------------------------------------


def test_sqlite_backend_rejects_duplicate_table():
    from repro.engine import schema

    backend = SQLiteBackend()
    backend.create_table(schema("t", ("a", "int")))
    with pytest.raises(Exception):
        backend.create_table(schema("t", ("a", "int")))


def test_sqlite_dialect_rejects_unbound_in_set():
    from repro.common.errors import ExecutionError

    backend = SQLiteBackend()
    from repro.engine import schema

    backend.create_table(schema("t", ("a", "int")))
    query = parse("SELECT a FROM t WHERE in_set(a, :sub0)")
    with pytest.raises(ExecutionError):
        backend.execute(query, params={})


def test_sqlite_sum_is_exact_over_wide_integers():
    """Native SQLite SUM coerces marker blobs to 0 and overflows past 2**63;
    the registered Python override must sum exactly, like the engine."""
    from repro.engine import schema

    values = [(1 << 63) + 5, (1 << 70) + 1, 7, None]
    expected = sum(v for v in values if v is not None)
    results = []
    for kind in ("memory", "sqlite"):
        backend = make_backend(kind)
        backend.create_table(schema("t", ("a", "int")))
        backend.insert_rows("t", [(v,) for v in values])
        result = backend.execute(normalize_query(parse("SELECT SUM(a) FROM t")))
        results.append(result.rows[0][0])
    assert results == [expected, expected]


def test_sqlite_order_limit_ties_follow_insertion_order():
    """A pushed ORDER BY + LIMIT with duplicate sort keys must serve the
    same tied subset as the engine's stable sort (insertion order)."""
    from repro.engine import schema

    rows = [(i, i % 3) for i in range(30)]  # Ten-way ties on the sort key.
    query = normalize_query(parse("SELECT i FROM t ORDER BY k LIMIT 7"))
    results = []
    for kind in ("memory", "sqlite"):
        backend = make_backend(kind)
        backend.create_table(schema("t", ("i", "int"), ("k", "int")))
        backend.insert_rows("t", rows)
        results.append(backend.execute(query).rows)
    assert results[0] == results[1]


def test_in_memory_backend_wraps_database():
    from repro.engine import Database, schema

    db = Database("d")
    backend = InMemoryBackend(db)
    backend.create_table(schema("t", ("a", "int")))
    backend.insert_rows("t", [(1,), (2,), (None,)])
    result = backend.execute(normalize_query(parse("SELECT COUNT(a) FROM t")))
    assert result.rows == [(2,)]
    assert backend.table_bytes("t") == db.table("t").total_bytes


# ---------------------------------------------------------------------------
# Shared-cache concurrency (PR 5 regression: busy_timeout on every connection)
# ---------------------------------------------------------------------------


class TestSqliteSharedCacheConcurrency:
    """Two sessions on one ``:memory:`` shared-cache database must not
    deadlock or fail with "database (table) is locked".

    Worker views open separate connections over the backend's shared-cache
    URI; without a busy timeout, transient lock states surface as
    immediate ``sqlite3.OperationalError`` instead of a short retry.  The
    backend sets ``PRAGMA busy_timeout`` on the main connection and every
    worker connection.
    """

    def _loaded_backend(self):
        from repro.engine import schema

        backend = SQLiteBackend(name="shared#cache test")
        backend.create_table(schema("t", ("i", "int"), ("k", "int")))
        backend.insert_rows("t", [(i, i % 7) for i in range(500)])
        return backend

    def test_uri_hostile_backend_name_stays_in_memory(self):
        """A '#' or '?' in the backend name must not truncate the shared-cache
        URI into an on-disk file (in-memory names are percent-encoded); a
        worker view's own connection still sees the parent's rows."""
        import pathlib

        from repro.engine import schema

        backend = SQLiteBackend(name="weird name#1?x")
        backend.create_table(schema("t", ("a", "int")))
        backend.insert_rows("t", [(i,) for i in range(100)])
        view = backend.worker_view()
        query = normalize_query(parse("SELECT a FROM t"))
        rows = view.execute_stream(query).drain_rows()
        assert rows == [(i,) for i in range(100)]
        assert not list(pathlib.Path(".").glob("monomi-weird*"))
        view.close()
        backend.close()

    def test_busy_timeout_set_on_all_connections(self):
        backend = self._loaded_backend()
        for conn in (backend.connection, backend._worker_connection()):
            (timeout,) = conn.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == SQLiteBackend._BUSY_TIMEOUT_MS

    def test_concurrent_shared_cache_readers_do_not_deadlock(self):
        import threading

        backend = self._loaded_backend()
        query = normalize_query(parse("SELECT i, k FROM t WHERE k = 3"))
        expected = backend.execute(query).rows
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def reader():
            try:
                view = backend.worker_view()
                barrier.wait(timeout=30)
                for _ in range(20):
                    assert view.execute(query).rows == expected
                view.close()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

    def test_reader_concurrent_with_writer_commits(self):
        """Readers retry through a concurrent bulk insert on the main
        connection instead of raising "database is locked"."""
        import threading

        backend = self._loaded_backend()
        query = normalize_query(parse("SELECT COUNT(*) FROM t WHERE k >= 0"))
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            try:
                view = backend.worker_view()
                while not stop.is_set():
                    (count,) = view.execute(query).rows[0]
                    assert count >= 500
                view.close()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for batch in range(10):
                backend.insert_rows(
                    "t", [(1000 + batch * 50 + i, i % 7) for i in range(50)]
                )
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
