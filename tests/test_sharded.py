"""Sharded scatter-gather execution: N backends behind the single seam.

The contract under test everywhere: plaintext rows and ledger byte
counts are **shard-count-invariant** — a :class:`ShardedBackend` over N
stores is indistinguishable from one serial backend (N=1 ≡ serial
reference), in-process and over TCP, fault-free and with chaos armed on
a single shard.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.core import MonomiClient
from repro.engine.schema import schema
from repro.server import (
    FaultInjectingBackend,
    ShardedBackend,
    make_backend,
    make_sharded_backend,
)
from repro.server.sharded import (
    ORDINAL_COLUMN,
    resolve_shards,
    route_hash,
)
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


def build_pair(kind: str, shards: int, rows=ROWS, shard_keys=None):
    """A sharded backend and its serial twin, loaded identically."""
    sharded = make_sharded_backend(
        kind, shards, name="sh", shard_keys=shard_keys
    )
    sharded.create_table(SCHEMA)
    sharded.insert_rows("t1", rows)
    serial = make_backend(kind, name="ref")
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

    def test_early_close_releases_producers(self):
        sharded, _ = build_pair("memory", 3)
        stream = sharded.execute_stream(SCAN, block_rows=4)
        first = next(iter(stream))
        assert first.num_rows == 4
        stream.close()  # Must not hang on the producer queues.


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

    def test_resolve_shards_env(self, monkeypatch):
        monkeypatch.delenv("MONOMI_SHARDS", raising=False)
        assert resolve_shards(None) == 1
        monkeypatch.setenv("MONOMI_SHARDS", "4")
        assert resolve_shards(None) == 4
        assert resolve_shards(2) == 2  # Explicit beats env.
        monkeypatch.setenv("MONOMI_SHARDS", "zero")
        with pytest.raises(ConfigError):
            resolve_shards(None)

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

    def test_setup_reads_shards_env(
        self, monkeypatch, sales_db, provider, sales_client
    ):
        monkeypatch.setenv("MONOMI_SHARDS", "2")
        client = MonomiClient.setup(
            sales_db,
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=384,
            space_budget=2.5,
            provider=provider,
            design=sales_client.design,
        )
        backend = client.backend
        while hasattr(backend, "_parent"):
            backend = backend._parent
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 2
        query = SALES_WORKLOAD[0]
        assert client.execute(query).rows == sales_client.execute(query).rows


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
