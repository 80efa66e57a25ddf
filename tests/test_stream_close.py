"""Mid-stream close: abandoned query streams must release everything.

A consumer that stops pulling (residual LIMIT, application error, user
cancel) closes the :class:`~repro.core.client.QueryStream`.  That close
must propagate down the whole pipeline — prefetch producer thread,
shard merge, server cursors — and leave no thread running, on every
backend, sharded or not, with and without prefetch.  The scan-byte
accounting contract from the streaming PR also holds: the full scan
footprint is charged whether or not the stream was drained.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.core.client import MonomiClient
from repro.testkit import MASTER_KEY, SALES_WORKLOAD
from repro.testkit import extra_threads as _extra_threads

STREAM_SQL = "SELECT o_orderkey, o_price FROM orders"


def _client_with(base: MonomiClient, prefetch_blocks: int) -> MonomiClient:
    """A streaming client over ``base``'s backend with an explicit
    prefetch depth."""
    return MonomiClient(
        base.plain_db,
        base.design,
        base.provider,
        base.backend,
        base.flags,
        base.network,
        base.disk,
        prefetch_blocks=prefetch_blocks,
    )


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


@pytest.fixture(params=["memory", "sqlite", "sharded-memory", "sharded-sqlite"])
def backend_client(request, sales_client, sales_client_sqlite):
    """Both backends, alone and as the shards of a sharded server."""
    if request.param == "memory":
        return sales_client
    if request.param == "sqlite":
        return sales_client_sqlite
    shard_kind = request.param.split("-")[1]
    return request.getfixturevalue("sharded_clients")[shard_kind]


@pytest.fixture(
    params=[
        pytest.param(0, id="serial"),
        pytest.param(2, id="prefetch"),
    ]
)
def stream_client(request, backend_client):
    """Every backend, with and without the prefetch producer."""
    client = _client_with(backend_client, request.param)
    # Warm up pools and caches with one fully drained query, so the
    # thread baseline each test snapshots includes long-lived pool
    # machinery but no per-query workers.
    client.execute(STREAM_SQL)
    return client


class TestMidStreamClose:
    def test_close_after_two_blocks_leaks_no_threads(self, stream_client):
        baseline = set(threading.enumerate())
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        blocks = iter(stream)
        first = next(blocks)
        next(blocks)
        assert len(first) == 16
        stream.close()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_close_still_charges_full_scan(self, stream_client):
        reference = stream_client.execute(STREAM_SQL)
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        stream.close()
        assert (
            stream.ledger.server_bytes_scanned
            == reference.ledger.server_bytes_scanned
        )

    def test_close_is_idempotent(self, stream_client):
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        stream.close()
        stream.close()

    def test_close_before_first_pull(self, stream_client):
        baseline = set(threading.enumerate())
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        stream.close()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_dropped_stream_is_collectable(self, stream_client):
        baseline = set(threading.enumerate())
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        next(iter(stream))
        del stream
        gc.collect()
        leaked = _extra_threads(baseline)
        assert not leaked, f"leaked threads after GC: {leaked}"

    def test_drain_after_partial_pull_matches_execute(self, stream_client):
        reference = stream_client.execute(STREAM_SQL)
        stream = stream_client.execute_iter(STREAM_SQL, block_rows=16)
        outcome = stream.drain()
        assert outcome.rows == reference.rows
        assert (
            outcome.ledger.transfer_bytes == reference.ledger.transfer_bytes
        )
