"""The streaming scan paths and peer providers.

Every streaming path — a backend's native stream, a SQLite worker view,
the sharded scatter-gather — must produce the same plaintext rows in the
same order and the same ledger byte counts as the plain serial path; only
wall-clock time may differ.  These tests pin that contract, plus the
:class:`ConfigError` cases where a requested mode cannot be honored and
must fail loudly instead of silently degrading.  A client whose provider
holds the same keys by another route — a fresh provider from the master
key, a pickled clone, a pinned decryption profile — must match the
reference client's rows, ledger bytes, load sizes and plan choices.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.common.errors import ConfigError
from repro.common.retry import Deadline
from repro.core import CryptoProvider, MonomiClient, PlanExecutor, normalize_query
from repro.core.cost import DecryptionProfiler
from repro.engine import schema
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream, blocks_from_rows
from repro.server import make_backend, make_sharded_backend
from repro.server.backend import ServerBackend
from repro.sql import parse
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    build_sales_db,
    canonical,
    extra_threads,
)

PARALLEL_WORKLOAD = [
    "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
    "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC",
    "SELECT o_orderkey, o_price, o_qty FROM orders WHERE o_price > 2500",
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
]


def ledger_bytes(ledger) -> tuple:
    return (ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips)


# ---------------------------------------------------------------------------
# Streaming scan paths
# ---------------------------------------------------------------------------


def _load_big(backend):
    backend.create_table(
        schema("big", ("a", "int"), ("b", "int"), ("c", "int"))
    )
    backend.insert_rows("big", [(i, i * 7 % 1013, i % 97) for i in range(5000)])
    return backend


def _scan_backend(kind: str):
    return _load_big(make_backend(kind))


@pytest.fixture(
    params=["memory", "sqlite", "sqlite-view", "sharded-memory", "sharded-sqlite"]
)
def scan_path(request):
    """Every streaming scan path a server offers, over the same table:
    each backend's native stream, a SQLite worker view's own connection,
    and the sharded scatter-gather over either shard kind."""
    kind = request.param
    if kind.startswith("sharded-"):
        owner = _load_big(make_sharded_backend(kind.split("-")[1], 2))
        backend = owner
    elif kind == "sqlite-view":
        owner = _scan_backend("sqlite")
        backend = owner.worker_view()
    else:
        owner = backend = _scan_backend(kind)
    yield backend
    if backend is not owner:
        backend.close()
    if hasattr(owner, "close"):
        owner.close()


class TestScanPaths:
    """Each path must stream exactly what a serial in-memory scan returns:
    same rows in the same order, same scan accounting."""

    def test_rows_order_and_stats_match_serial(self, scan_path):
        reference = _scan_backend("memory")
        query = normalize_query(parse("SELECT a, b FROM big WHERE c < 80"))
        serial = reference.execute_stream(query, block_rows=256)
        serial_rows = serial.drain_rows()
        stream = scan_path.execute_stream(query, block_rows=256)
        assert stream.drain_rows() == serial_rows  # Order preserved exactly.
        assert stream.stats.bytes_scanned == serial.stats.bytes_scanned
        assert stream.stats.rows_output == serial.stats.rows_output

    def test_order_by_output_order_is_preserved(self, scan_path):
        """A blocking ORDER BY keeps the exact serial output order, run
        after run."""
        query = normalize_query(
            parse("SELECT a, b FROM big WHERE c < 30 ORDER BY b DESC, a LIMIT 40")
        )
        expected = _scan_backend("memory").execute_stream(query).drain_rows()
        for _ in range(3):
            assert scan_path.execute_stream(query).drain_rows() == expected

    def test_early_close_leaks_no_threads(self, scan_path):
        baseline = set(threading.enumerate())
        query = normalize_query(parse("SELECT a FROM big"))
        stream = scan_path.execute_stream(query, block_rows=64)
        blocks = iter(stream)
        assert len(next(blocks)) == 64
        stream.close()  # Must not deadlock or leave a producer running.
        leaked = extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_where_subquery_matches_serial(self, scan_path):
        """A streamable scan whose WHERE carries a subquery must see the
        whole inner table on every path."""
        query = normalize_query(
            parse(
                "SELECT a FROM big WHERE c < 40 AND "
                "a IN (SELECT b FROM big WHERE c = 3)"
            )
        )
        expected = _scan_backend("memory").execute_stream(query).drain_rows()
        assert scan_path.execute_stream(query).drain_rows() == expected


# ---------------------------------------------------------------------------
# ConfigError contract
# ---------------------------------------------------------------------------


class _MaterializingBackend(ServerBackend):
    """A third-party-style backend with no incremental cursor: its one read
    method runs the query to completion and re-blocks the rows."""

    kind = "thirdparty"

    def __init__(self, inner):
        self.inner = inner
        self.last_stats = None

    @property
    def ciphertext_store(self):
        return self.inner.ciphertext_store

    def create_table(self, table_schema):
        self.inner.create_table(table_schema)

    def insert_rows(self, table_name, rows):
        self.inner.insert_rows(table_name, rows)

    def table_names(self):
        return self.inner.table_names()

    def table_bytes(self, table_name):
        return self.inner.table_bytes(table_name)

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        result = self.inner.execute(query, params=params)
        self.last_stats = self.inner.last_stats
        blocks = blocks_from_rows(result.rows, len(result.columns), block_rows)
        return BlockStream(result.columns, blocks, self.last_stats)


class TestConfigErrors:
    def test_non_native_backend_streamable_scan_runs_serial(self):
        backend = _MaterializingBackend(_scan_backend("memory"))
        query = normalize_query(parse("SELECT a FROM big WHERE c < 5"))
        rows = backend.execute_stream(query).drain_rows()
        assert rows == backend.execute(query).rows

    def test_non_native_backend_blocking_root_materializes(self):
        """A backend whose one read method materializes and re-blocks
        streams every shape at the block size asked for, and the base
        ``execute`` drains those blocks back into the same rows."""
        backend = _MaterializingBackend(_scan_backend("memory"))
        blocking = normalize_query(
            parse("SELECT c, COUNT(*) FROM big GROUP BY c")
        )
        stream = backend.execute_stream(blocking, block_rows=10)
        blocks = list(stream)
        assert max(len(block) for block in blocks) == 10
        assert [row for block in blocks for row in block.rows()] == (
            backend.execute(blocking).rows
        )

    def test_narrow_signature_backend_streams_through_pexec(self, sales_client):
        """A backend overriding execute_stream with the seam's signature
        and a body that ignores the deadline runs through the plan
        executor, with and without a deadline."""
        from repro.core.plan import DecryptSpec, RemoteRelation, SplitPlan

        class _NarrowBackend(_MaterializingBackend):
            kind = "narrow"

            def execute_stream(
                self, query, params=None, block_rows=4096, deadline=None
            ):
                return super().execute_stream(
                    query, params=params, block_rows=block_rows
                )

        backend = _NarrowBackend(_scan_backend("memory"))
        executor = PlanExecutor(backend, sales_client.provider)
        query = normalize_query(parse("SELECT a FROM big WHERE c < 5"))
        plan = SplitPlan(
            relations=(
                RemoteRelation(
                    alias="r",
                    query=query,
                    specs=[DecryptSpec("plain", "a", "int")],
                ),
            ),
            residual=None,
        )
        expected = backend.execute(query).rows
        assert executor.execute_iter(plan).drain().rows == expected
        deadline = Deadline.after(30.0)
        assert executor.execute_iter(plan, deadline=deadline).drain().rows == expected

    @pytest.mark.parametrize("block_rows", [0, -1])
    def test_nonpositive_block_rows_raises(self, sales_client, block_rows):
        """A negative block size used to re-block a result into zero rows;
        the plan executor refuses it before any server call."""
        with pytest.raises(ConfigError, match="block_rows"):
            sales_client.execute_iter(SALES_WORKLOAD[0], block_rows=block_rows)


# ---------------------------------------------------------------------------
# Peer providers: same keys, same rows, ledgers, loads and plans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_client() -> MonomiClient:
    """The client every peer provider must match."""
    return MonomiClient.setup(
        build_sales_db(num_orders=600),
        PARALLEL_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=256,
        space_budget=2.5,
    )


def _drain_in_blocks(client: MonomiClient, sql: str, block_rows: int):
    """Rows and ledger bytes of ``sql`` streamed in ``block_rows`` blocks."""
    planned = client.plan(normalize_query(parse(sql)))
    executor = PlanExecutor(
        client.backend, client.provider, client.network, client.disk
    )
    stream = executor.execute_iter(planned.plan, block_rows=block_rows)
    return stream.drain().rows, ledger_bytes(stream.ledger)


class TestBlockSizes:
    """The stream pulls server blocks on its caller's thread; the block
    size changes how often it pulls, never what it returns."""

    @pytest.mark.parametrize("block_rows", [1, 16, 128])
    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_block_size_keeps_rows_and_ledger_bytes(
        self, reference_client, sql, block_rows
    ):
        expected = reference_client.execute(sql)
        rows, ledger = _drain_in_blocks(reference_client, sql, block_rows)
        assert rows == expected.rows
        assert ledger == ledger_bytes(expected.ledger)

    def test_early_close_starts_and_leaves_no_thread(self, reference_client):
        query = normalize_query(
            parse("SELECT o_orderkey, o_price FROM orders WHERE o_price > 0")
        )
        planned = reference_client.plan(query)
        executor = PlanExecutor(
            reference_client.backend,
            reference_client.provider,
            reference_client.network,
            reference_client.disk,
        )
        baseline = set(threading.enumerate())
        stream = executor.execute_iter(planned.plan, block_rows=32)
        assert next(iter(stream)) is not None
        assert not extra_threads(baseline, timeout=0)
        stream.close()
        assert not extra_threads(baseline)


@pytest.fixture(scope="module", params=["fresh", "pickled", "pinned"])
def peer_client(request, reference_client) -> MonomiClient:
    """A second client on the reference's design whose provider holds the
    same keys: built from the master key, a pickled clone of the
    reference's provider (how providers ship to subprocess clients), or
    pinned to the reference's decryption profile."""
    reference = reference_client.provider
    if request.param == "fresh":
        provider = CryptoProvider(MASTER_KEY, paillier_bits=256)
    elif request.param == "pickled":
        provider = pickle.loads(pickle.dumps(reference))
    else:
        provider = CryptoProvider(
            MASTER_KEY,
            paillier_bits=256,
            decryption_profile=DecryptionProfiler.profile(reference),
        )
    return MonomiClient.setup(
        build_sales_db(num_orders=600),
        PARALLEL_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=256,
        space_budget=2.5,
        provider=provider,
        design=reference_client.design,
    )


class TestPeerProviders:
    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_rows_and_ledger_bytes_match_reference(
        self, reference_client, peer_client, sql
    ):
        expected = reference_client.execute(sql)
        got = peer_client.execute(sql)
        assert canonical(got.rows) == canonical(expected.rows)
        assert ledger_bytes(got.ledger) == ledger_bytes(expected.ledger)

    def test_load_sizes_match_reference(self, reference_client, peer_client):
        reference = reference_client.backend
        for name in reference.table_names():
            assert peer_client.backend.table_bytes(name) == reference.table_bytes(name)
        assert peer_client.server_bytes() == reference_client.server_bytes()

    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_plan_choices_match_reference(self, reference_client, peer_client, sql):
        """The decryption-profile-driven plan choice does not depend on
        which provider object holds the keys."""
        query = normalize_query(parse(sql))
        expected = reference_client.plan(query).plan.explain()
        assert peer_client.plan(query).plan.explain() == expected
