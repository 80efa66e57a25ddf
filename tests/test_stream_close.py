"""Mid-stream close: abandoned query streams must release everything.

A consumer that stops pulling (residual LIMIT, application error, user
cancel) closes the :class:`~repro.core.client.QueryStream`.  That close
must propagate down the whole pipeline — shard merge, server cursors,
the wire — and leave no thread running, on every backend, sharded,
remote or neither, and leave the client fit for its next query.  A
stream never starts a thread at all, sharded or not: its server blocks,
and every shard's blocks the coordinator merges, are pulled on the
caller's thread.  The scan-byte accounting contract from
the streaming PR also holds: the full scan footprint is charged whether
or not the stream was drained.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.common.errors import ExecutionError
from repro.common.ledger import CostLedger
from repro.core import normalize_query
from repro.core.client import MonomiClient
from repro.core.pexec import PlanExecutor
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream, RowBlock
from repro.net import MonomiServer, RemoteBackend
from repro.server.backend import DelegatingView
from repro.sql import parse
from repro.testkit import MASTER_KEY, SALES_WORKLOAD
from repro.testkit import extra_threads as _extra_threads

STREAM_SQL = "SELECT o_orderkey, o_price FROM orders"


@pytest.fixture(scope="module")
def sharded_clients(sales_db, provider, sales_client):
    """Two-shard twins of the conftest sales client, one per shard kind,
    so the scatter-gather merge is closed mid-stream too."""
    clients = {
        kind: MonomiClient.setup(
            sales_db,
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=384,
            space_budget=2.5,
            provider=provider,
            design=sales_client.design,
            backend=kind,
            shards=2,
        )
        for kind in ("memory", "sqlite")
    }
    yield clients
    for client in clients.values():
        client.close()


@pytest.fixture(
    params=["memory", "sqlite", "remote", "sharded-memory", "sharded-sqlite"]
)
def backend_client(request, sales_client, sales_client_sqlite):
    """Both backends, alone, across the wire and as the shards of a
    sharded server."""
    if request.param == "memory":
        client = sales_client
    elif request.param == "sqlite":
        client = sales_client_sqlite
    elif request.param == "remote":
        client = request.getfixturevalue("sales_client_remote")
    else:
        shard_kind = request.param.split("-")[1]
        client = request.getfixturevalue("sharded_clients")[shard_kind]
    # Warm up pools and caches with one fully drained query, so the
    # thread baseline each test snapshots includes long-lived pool
    # machinery but no per-query workers.
    client.execute(STREAM_SQL)
    return client


class TestMidStreamClose:
    def test_stream_runs_on_callers_thread(self, backend_client):
        baseline = set(threading.enumerate())
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        blocks = iter(stream)
        next(blocks)
        next(blocks)
        try:
            extra = _extra_threads(baseline)
            assert not extra, f"threads running mid-stream: {extra}"
        finally:
            stream.close()

    def test_close_after_two_blocks_leaks_no_threads(self, backend_client):
        baseline = set(threading.enumerate())
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        blocks = iter(stream)
        first = next(blocks)
        next(blocks)
        assert len(first) == 16
        stream.close()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_close_still_charges_full_scan(self, backend_client):
        reference = backend_client.execute(STREAM_SQL)
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        stream.close()
        assert (
            stream.ledger.server_bytes_scanned
            == reference.ledger.server_bytes_scanned
        )

    def test_close_is_idempotent(self, backend_client):
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        stream.close()
        stream.close()

    def test_close_before_first_pull(self, backend_client):
        baseline = set(threading.enumerate())
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        stream.close()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_dropped_stream_is_collectable(self, backend_client):
        baseline = set(threading.enumerate())
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        del stream
        gc.collect()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after GC: {leaked}"

    def test_client_serves_next_query_after_close(self, backend_client):
        """An abandoned stream's server cursor is released, so the same
        client's next query sees the whole table."""
        reference = backend_client.execute(STREAM_SQL)
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        stream.close()
        again = backend_client.execute(STREAM_SQL)
        assert again.rows == reference.rows
        assert again.ledger.transfer_bytes == reference.ledger.transfer_bytes

    def test_interleaved_streams_are_independent(self, backend_client):
        """Two open streams on one client, pulled in turn, each return the
        rows of a lone query: pulling on the caller's thread shares no
        cursor between them."""
        reference = backend_client.execute(STREAM_SQL)
        first = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        second = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        rows: tuple[list, list] = ([], [])
        pending = [iter(first), iter(second)]
        while any(pending):
            for i, blocks in enumerate(pending):
                if blocks is None:
                    continue
                block = next(blocks, None)
                if block is None:
                    pending[i] = None
                else:
                    rows[i].extend(block.rows())
        assert rows[0] == reference.rows
        assert rows[1] == reference.rows

    def test_drain_after_partial_pull_matches_execute(self, backend_client):
        reference = backend_client.execute(STREAM_SQL)
        stream = backend_client.execute_iter(STREAM_SQL, block_rows=16)
        outcome = stream.drain()
        assert outcome.rows == reference.rows
        assert outcome.ledger.transfer_bytes == reference.ledger.transfer_bytes


# ---------------------------------------------------------------------------
# A server result the plan cannot decrypt still closes its stream
# ---------------------------------------------------------------------------


class _ClosedStream(BlockStream):
    """A stream that tells its view when it is closed."""

    def __init__(self, view, inner: BlockStream, columns, blocks) -> None:
        super().__init__(columns, blocks, inner.stats)
        self._view = view
        self._inner = inner

    def close(self) -> None:
        self._view.closed += 1
        self._inner.close()


class _ExtraColumn(DelegatingView):
    """Answers every query with one column more than it asked for, and
    counts the streams it opens and the ones closed."""

    def __init__(self, parent) -> None:
        super().__init__(parent)
        self.opened = 0
        self.closed = 0

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        inner = self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )
        self.opened += 1
        blocks = (RowBlock([*b.columns, [0] * len(b)], len(b)) for b in inner)
        return _ClosedStream(self, inner, [*inner.columns, "extra"], blocks)

    def worker_view(self):
        return _ExtraColumn(self._parent.worker_view())


#: The two ways a plan reads a remote relation.
READS = {
    "streamed": lambda executor, plan: executor.execute_iter(plan).drain(),
    "materialized": lambda executor, plan: executor._run(plan, CostLedger()),
}


class TestColumnCountMismatch:
    """A server result with a column the plan has no decrypt spec for is
    refused, and the refused stream is closed: the server's cursor and,
    over TCP, the connection are released before the error surfaces."""

    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    def test_inner_stream_is_closed(self, sales_client, read):
        plan = sales_client.plan(normalize_query(parse(STREAM_SQL))).plan
        view = _ExtraColumn(sales_client.backend)
        executor = PlanExecutor(view, sales_client.provider)
        with pytest.raises(ExecutionError, match="decrypt spec count"):
            read(executor, plan)
        assert view.opened == 1
        assert view.closed == 1

    @pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
    def test_connection_returns_to_the_pool(self, sales_client, read):
        plan = sales_client.plan(normalize_query(parse(STREAM_SQL))).plan
        with MonomiServer(_ExtraColumn(sales_client.backend)) as server:
            remote = RemoteBackend(server.address, pool_size=1)
            try:
                executor = PlanExecutor(remote, sales_client.provider)
                with pytest.raises(ExecutionError, match="decrypt spec count"):
                    read(executor, plan)
                assert remote.open_connections() == 1
            finally:
                remote.close()
