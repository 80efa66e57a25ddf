"""Streaming RowBlock pipeline: streaming == materializing, bounded memory.

The streaming path's contract is exact equivalence with the materializing
path — identical rows in identical order and identical ledger byte counts
(transfer, scan, round trips) — on every query shape and both untrusted
server backends, while keeping peak memory O(block) for stream-shaped
plans.  This module tests the contract at four levels: the RowBlock
primitive, the engine operator layer, the backend seam, and full split
plans through the client, plus a peak-memory regression on a table far
larger than the block size.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db, canonical
from repro.common.errors import ExecutionError
from repro.core import (
    CryptoProvider,
    MonomiClient,
    PlanExecutor,
    normalize_query,
)
from repro.common.ledger import CostLedger, NetworkModel
from repro.engine import (
    BlockStream,
    Database,
    Executor,
    ResultSet,
    RowBlock,
    blocks_from_rows,
    is_streamable,
    result_header_bytes,
    schema,
)
from repro.crypto.packing import PackedLayout
from repro.crypto.paillier import generate_keypair
from repro.net import MonomiServer, RemoteBackend
from repro.server import FaultInjectingBackend, make_backend, make_sharded_backend
from repro.sql import parse
from repro.storage.ciphertext_store import CiphertextFile
from repro.ssb import generate as ssb_generate, ssb_queries
from repro.tpch import generate as tpch_generate, tpch_queries

TPCH_SCALE = 0.0003
TPCH_NUMBERS = (1, 6, 12, 18)
SSB_SCALE = 0.0002
SSB_NUMBERS = ("1.1", "4.1")


def ledger_bytes(ledger: CostLedger) -> tuple:
    """The ledger fields that must be byte-identical across both paths."""
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


# ---------------------------------------------------------------------------
# RowBlock primitive
# ---------------------------------------------------------------------------


class TestRowBlock:
    def test_round_trip(self):
        rows = [(1, "a", None), (2, "b", 3.5), (3, "c", b"\x01")]
        block = RowBlock.from_rows(rows, 3)
        assert block.num_rows == len(block) == 3
        assert block.columns[0] == [1, 2, 3]
        assert block.rows() == rows

    def test_empty_block_keeps_width(self):
        block = RowBlock.from_rows([], 4)
        assert len(block.columns) == 4 and block.num_rows == 0
        assert block.rows() == []

    def test_blocks_respect_capacity_and_order(self):
        rows = [(i,) for i in range(10)]
        blocks = list(blocks_from_rows(rows, 1, block_rows=3))
        assert [len(b) for b in blocks] == [3, 3, 3, 1]
        assert [r for b in blocks for r in b.rows()] == rows

    def test_stream_bytes_match_materialized_result(self):
        """Header + per-block payloads must equal ResultSet.byte_size —
        the invariant that keeps streamed and materialized ledgers
        byte-identical."""
        rows = [(i, f"name{i}", None if i % 3 else i * 1.5) for i in range(25)]
        result = ResultSet(["k", "name", "v"], rows)
        total = result_header_bytes(result.columns) + sum(
            block.payload_bytes()
            for block in blocks_from_rows(rows, 3, block_rows=4)
        )
        assert total == result.byte_size()


def test_ledger_block_transfer_matches_add_transfer():
    network = NetworkModel()
    materialized, streamed = CostLedger(), CostLedger()
    materialized.add_transfer(1000, network)
    streamed.begin_round_trip(network)
    for chunk in (300, 300, 300, 100):
        streamed.add_block_transfer(chunk, network)
    assert ledger_bytes(streamed) == ledger_bytes(materialized)
    assert streamed.transfer_seconds == pytest.approx(
        materialized.transfer_seconds
    )


# ---------------------------------------------------------------------------
# Engine operator layer
# ---------------------------------------------------------------------------

ENGINE_STREAMABLE = [
    "SELECT o_orderkey, o_price FROM orders WHERE o_price > 2500",
    "SELECT * FROM orders WHERE o_qty BETWEEN 10 AND 20",
    "SELECT o_orderkey FROM orders LIMIT 7",
    "SELECT o_price * o_qty FROM orders WHERE o_status = 'OPEN'",
    # Blocking subqueries under a streaming scan.
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_balance > 50000)",
    "SELECT c_name FROM customer WHERE EXISTS "
    "(SELECT * FROM orders WHERE o_custkey = c_custkey AND o_price > 4500)",
]
ENGINE_BLOCKING = [
    "SELECT o_custkey, SUM(o_price) FROM orders GROUP BY o_custkey",
    "SELECT o_orderkey FROM orders ORDER BY o_price DESC LIMIT 9",
    "SELECT DISTINCT o_status FROM orders",
    "SELECT c_nation, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey GROUP BY c_nation",
    "SELECT seg, SUM(p) FROM (SELECT c_segment AS seg, o_price AS p "
    "FROM orders, customer WHERE o_custkey = c_custkey) AS x GROUP BY seg",
]


@pytest.fixture(scope="module")
def engine_db():
    return build_sales_db(num_orders=150, seed=7)


@pytest.mark.parametrize("sql", ENGINE_STREAMABLE + ENGINE_BLOCKING)
@pytest.mark.parametrize("block_rows", [7, 4096])
def test_engine_streaming_matches_materializing(engine_db, sql, block_rows):
    query = normalize_query(parse(sql))
    materializing = Executor(engine_db)
    expected = materializing.execute(query)
    stream = Executor(engine_db, block_rows=block_rows).execute_stream(query)
    assert stream.columns == expected.columns
    assert stream.drain_rows() == expected.rows  # Exact order, not canonicalized.
    assert stream.stats.bytes_scanned == materializing.last_stats.bytes_scanned
    assert stream.stats.rows_output == materializing.last_stats.rows_output


def test_is_streamable_classification():
    for sql in ENGINE_STREAMABLE:
        assert is_streamable(normalize_query(parse(sql))), sql
    for sql in ENGINE_BLOCKING:
        assert not is_streamable(normalize_query(parse(sql))), sql


def test_engine_stream_blocks_bounded_by_capacity(engine_db):
    query = normalize_query(parse("SELECT o_orderkey FROM orders"))
    stream = Executor(engine_db).execute_stream(query, block_rows=16)
    sizes = [len(block) for block in stream]
    assert sum(sizes) == engine_db.table("orders").num_rows
    assert max(sizes) <= 16


def test_engine_stream_from_injected_source(engine_db):
    """A residual-style query can scan an external block stream instead of
    a catalog table — the client's no-staging path."""
    rows = [(i, i * 10) for i in range(20)]
    source = BlockStream(["a", "b"], blocks_from_rows(rows, 2, 6))
    query = normalize_query(parse("SELECT b FROM virt WHERE a >= 5"))
    executor = Executor(Database("empty"))
    stream = executor.execute_stream(query, sources={"virt": source})
    assert stream.drain_rows() == [(i * 10,) for i in range(5, 20)]


def test_engine_source_requires_streamable_query(engine_db):
    source = BlockStream(["a"], blocks_from_rows([(1,)], 1, 4))
    query = normalize_query(parse("SELECT a FROM virt ORDER BY a"))
    with pytest.raises(ExecutionError):
        Executor(engine_db).execute_stream(query, sources={"virt": source})


# ---------------------------------------------------------------------------
# Backend seam
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hom_ciphertexts():
    """A packed-Paillier file's key, layout and ciphertexts: ``x = a``
    for row ids 0..99, the rows of the seam's table ``t``."""
    public, _ = generate_keypair(256, seed=b"seam-hom")
    layout = PackedLayout(
        column_bits=(16,), pad_bits=8, plaintext_bits=public.plaintext_bits
    )
    step = layout.rows_per_ciphertext
    ciphertexts = [
        public.encrypt(layout.encode_rows([[i] for i in range(start, start + step)]))
        for start in range(0, 100, step)
    ]
    return public, layout, ciphertexts


def _load_seam(store, hom_ciphertexts) -> None:
    public, layout, ciphertexts = hom_ciphertexts
    store.create_table(schema("t", ("a", "int"), ("b", "int")))
    store.insert_rows("t", [(i, i % 5) for i in range(100)])
    store.create_table(schema("u", ("k", "int"), ("w", "int")))
    store.insert_rows("u", [(k, 10 * k) for k in range(4)])
    store.add_ciphertext_file(
        CiphertextFile(
            name="t_hom",
            public_key=public,
            layout=layout,
            column_names=("x",),
            ciphertexts=list(ciphertexts),
            num_rows=100,
        )
    )


#: Every reader at the server seam.
SEAM_KINDS = [
    "memory",
    "sqlite",
    "sqlite-worker-view",
    "memory-lock-scoped-view",
    "chaos-rate-0",
    "sharded-2",
    "remote",
]


@pytest.fixture
def seam(request, hom_ciphertexts):
    """A loaded reader of the kind ``request.param`` names."""
    kind = request.param
    if kind == "sharded-2":
        store = make_sharded_backend("memory", 2)
    else:
        store = make_backend("sqlite" if kind.startswith("sqlite") else "memory")
    _load_seam(store, hom_ciphertexts)
    if kind == "remote":
        # A rate-0 proxy: the hosted store stays fault-free under --chaos.
        with MonomiServer(FaultInjectingBackend(store, rate=0.0)) as server:
            remote = RemoteBackend(server.address, pool_size=1)
            yield remote
            remote.close()
        return
    if kind.endswith("view"):
        yield store.worker_view()
    elif kind == "chaos-rate-0":
        yield FaultInjectingBackend(store, rate=0.0)
    else:
        yield store


@pytest.mark.parametrize("seam", SEAM_KINDS, indirect=True)
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a, b FROM t WHERE a > 40",
        "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY b",
        "SELECT a FROM t WHERE a > 9999",  # Empty result: zero blocks.
        "SELECT a, b FROM t WHERE a > 10 ORDER BY b DESC, a LIMIT 17",
        "SELECT b, hom_agg('t_hom', a) FROM t GROUP BY b ORDER BY b",
        "SELECT t.a, u.w FROM t, u WHERE t.b = u.k AND t.a < 30 ORDER BY t.a",
    ],
)
def test_backend_stream_matches_execute(seam, sql):
    """``execute`` is ``execute_stream`` drained: on every reader at the
    seam the same columns, rows and final stats."""
    query = normalize_query(parse(sql))
    expected = seam.execute(query)
    expected_stats = (seam.last_stats.bytes_scanned, seam.last_stats.rows_output)
    stream = seam.execute_stream(query, block_rows=8)
    assert stream.columns == expected.columns
    blocks = list(stream)
    assert all(len(b) <= 8 for b in blocks)
    assert [r for b in blocks for r in b.rows()] == expected.rows
    assert (stream.stats.bytes_scanned, stream.stats.rows_output) == expected_stats
    assert expected_stats[0] > 0


def test_sqlite_stream_closes_cursor_on_early_exit():
    backend = make_backend("sqlite")
    backend.create_table(schema("t", ("a", "int")))
    backend.insert_rows("t", [(i,) for i in range(100)])
    stream = backend.execute_stream(
        normalize_query(parse("SELECT a FROM t")), block_rows=10
    )
    next(iter(stream))
    stream.close()  # Must not raise; finalizes stats.
    assert stream.stats.bytes_scanned == backend.table_bytes("t")


# ---------------------------------------------------------------------------
# Split plans through the client: streaming vs materializing
# ---------------------------------------------------------------------------

# Sales-shaped plans covering every plan family: fully-pushed scans,
# residual filters, grp() list re-aggregation, hom SUM, multi-round-trip
# IN sets, scalar subplans, ORDER BY + LIMIT, and FROM-subqueries.
STREAM_VS_MAT_QUERIES = SALES_WORKLOAD + [
    "SELECT o_orderkey, o_price FROM orders WHERE o_price > 2500",
    "SELECT o_orderkey FROM orders WHERE o_price * o_qty > 40000",
    "SELECT o_status, SUM(o_qty), MIN(o_price) FROM orders GROUP BY o_status",
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT o_custkey FROM orders GROUP BY o_custkey HAVING SUM(o_qty) > 140)",
    "SELECT o_custkey, SUM(o_price) AS total FROM orders GROUP BY o_custkey "
    "HAVING SUM(o_price) > (SELECT SUM(o_price) * 0.05 FROM orders) ORDER BY total DESC",
    "SELECT seg, SUM(rev) FROM (SELECT c_segment AS seg, o_price * o_qty AS rev "
    "FROM orders, customer WHERE o_custkey = c_custkey AND o_discount <= 5) AS x "
    "GROUP BY seg ORDER BY seg",
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
]


def run_both_modes(client, sql, block_rows=32):
    """Plan once, then run the plan through ``execute_iter`` and through
    the materializing path it falls back to for plans that cannot stream."""
    query = normalize_query(parse(sql))
    planned = client.plan(query)
    executor = PlanExecutor(
        client.backend,
        client.provider,
        client.network,
        client.disk,
        block_rows=block_rows,
    )
    stream = executor.execute_iter(planned.plan)
    streamed = stream.drain()
    mat_ledger = CostLedger()
    materialized = executor._run(planned.plan, mat_ledger)
    return streamed, stream.ledger, materialized, mat_ledger


@pytest.mark.parametrize("sql", STREAM_VS_MAT_QUERIES)
def test_streaming_matches_materializing(each_backend_client, sql):
    streamed, s_ledger, materialized, m_ledger = run_both_modes(
        each_backend_client, sql
    )
    assert streamed.columns == materialized.columns
    assert streamed.rows == materialized.rows  # Exact order.
    assert ledger_bytes(s_ledger) == ledger_bytes(m_ledger)


@given(
    columns=st.sampled_from(
        ["o_orderkey", "o_orderkey, o_price", "o_orderkey, o_price, o_qty"]
    ),
    filters=st.lists(
        st.one_of(
            st.builds(
                lambda c, v: f"{c} > {v}",
                st.sampled_from(["o_price", "o_qty", "o_discount"]),
                st.integers(0, 4000),
            ),
            st.sampled_from(
                [
                    "o_status = 'OPEN'",
                    "o_price * o_qty > 20000",
                    "o_comment LIKE '%green%'",
                ]
            ),
        ),
        min_size=0,
        max_size=2,
    ),
)
@settings(max_examples=20, deadline=None)
def test_streaming_property_random_scans(sales_client, columns, filters):
    """Property: on stream-shaped queries (the fast path) both paths agree
    row-for-row and byte-for-byte."""
    where = (" WHERE " + " AND ".join(filters)) if filters else ""
    sql = f"SELECT {columns} FROM orders{where}"
    streamed, s_ledger, materialized, m_ledger = run_both_modes(
        sales_client, sql, block_rows=17
    )
    assert streamed.rows == materialized.rows
    assert ledger_bytes(s_ledger) == ledger_bytes(m_ledger)


# ---------------------------------------------------------------------------
# TPC-H / SSB fixtures, both backends
# ---------------------------------------------------------------------------


def _client_pair(db, workload):
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
    return memory, sqlite


@pytest.fixture(scope="module")
def tpch_clients():
    db = tpch_generate(scale=TPCH_SCALE, seed=5)
    queries = tpch_queries(TPCH_SCALE)
    return queries, _client_pair(db, [queries[n].sql for n in TPCH_NUMBERS])


@pytest.mark.parametrize("number", TPCH_NUMBERS)
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_tpch_streaming_matches_materializing(tpch_clients, number, backend):
    queries, (memory, sqlite) = tpch_clients
    client = memory if backend == "memory" else sqlite
    streamed, s_ledger, materialized, m_ledger = run_both_modes(
        client, queries[number].sql, block_rows=64
    )
    assert streamed.rows == materialized.rows
    assert ledger_bytes(s_ledger) == ledger_bytes(m_ledger)


def test_tpch_scan_transfer_bytes_equal_the_result_set(tpch_clients):
    """A streamed TPC-H scan charges exactly the server result's
    ``ResultSet.byte_size()``: block payloads are sized a column at a
    time (``rowcodec.column_bytes``), ciphertext columns included."""
    _, (memory, _) = tpch_clients
    sql = (
        "SELECT l_orderkey, l_quantity, l_shipdate FROM lineitem "
        "WHERE l_shipdate <= DATE '1998-09-02'"
    )
    _, ledger, _, _ = run_both_modes(memory, sql, block_rows=64)
    (relation,) = memory.plan(normalize_query(parse(sql))).plan.remote_relations()
    assert ledger.transfer_bytes == memory.backend.execute(relation.query).byte_size()


@pytest.fixture(scope="module")
def ssb_clients():
    db = ssb_generate(scale=SSB_SCALE, seed=13)
    queries = ssb_queries()
    return queries, _client_pair(db, [queries[n].sql for n in SSB_NUMBERS])


@pytest.mark.parametrize("number", SSB_NUMBERS)
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_ssb_streaming_matches_materializing(ssb_clients, number, backend):
    queries, (memory, sqlite) = ssb_clients
    client = memory if backend == "memory" else sqlite
    streamed, s_ledger, materialized, m_ledger = run_both_modes(
        client, queries[number].sql, block_rows=64
    )
    assert streamed.rows == materialized.rows
    assert ledger_bytes(s_ledger) == ledger_bytes(m_ledger)


# ---------------------------------------------------------------------------
# Client API
# ---------------------------------------------------------------------------


def test_client_execute_iter_streams_blocks(each_backend_client):
    sql = "SELECT o_orderkey, o_price FROM orders WHERE o_price > 1500"
    stream = each_backend_client.execute_iter(sql, block_rows=16)
    blocks = list(stream)
    rows = [r for b in blocks for r in b.rows()]
    assert len(blocks) > 1  # Genuinely chunked, not one big block.
    assert all(len(b) <= 16 for b in blocks)
    outcome = each_backend_client.execute(sql)
    assert rows == outcome.rows
    assert stream.columns == outcome.columns
    assert ledger_bytes(stream.ledger) == ledger_bytes(outcome.ledger)
    assert stream.planned.plan.remote_relations()


def test_client_execute_iter_drain(sales_client):
    sql = SALES_WORKLOAD[0]
    drained = sales_client.execute_iter(sql).drain()
    outcome = sales_client.execute(sql)
    assert canonical(drained.rows) == canonical(outcome.rows)
    assert ledger_bytes(drained.ledger) == ledger_bytes(outcome.ledger)


# ---------------------------------------------------------------------------
# Bounded memory: the whole point of the pipeline
# ---------------------------------------------------------------------------


def _consume_stream(backend, query, block_rows):
    count = 0
    for block in backend.execute_stream(query, block_rows=block_rows):
        count += len(block)
    return count


def _peaks(num_rows: int) -> tuple[int, int, int]:
    """(streaming peak, materializing peak, row count) on a fresh table."""
    backend = make_backend("memory")
    backend.create_table(
        schema("big", ("a", "int"), ("b", "int"), ("c", "int"))
    )
    backend.insert_rows("big", [(i, i * 7, i % 97) for i in range(num_rows)])
    query = normalize_query(parse("SELECT a, b FROM big WHERE c < 80"))

    gc.collect()  # Keep earlier-suite garbage out of the traced window.
    tracemalloc.start()
    count = _consume_stream(backend, query, block_rows=512)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    gc.collect()
    tracemalloc.start()
    result = backend.execute(query)
    _, mat_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert count == len(result.rows) > 0
    return stream_peak, mat_peak, count


def test_streaming_peak_memory_is_bounded():
    """On a table ≫ block size, streaming peak memory must be a small
    fraction of materializing peak AND stay flat as the dataset grows —
    O(block), not O(dataset).  Streaming peaks are tiny (~60KB), so the
    flatness bound is additive (generous absolute slack for stray
    allocations landing in the traced window) rather than a tight ratio:
    the materialized footprint grows by megabytes over the same doubling,
    so 256KB of slack cannot mask an O(dataset) regression."""
    stream_small, mat_small, rows_small = _peaks(20_000)
    stream_large, mat_large, rows_large = _peaks(40_000)
    assert rows_large > 2 * rows_small * 0.9
    # Materializing grows with the dataset; streaming must not.
    assert mat_large > mat_small * 1.5
    assert stream_large < stream_small + 256 * 1024
    # And streaming stays far below the materialized footprint.
    assert stream_large * 5 < mat_large
