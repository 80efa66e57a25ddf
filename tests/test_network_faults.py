"""Network chaos: faults on the real socket, byte-identical recovery.

The server side injects the failure modes only a network deployment has —
typed faults from the PR 6 chaos proxy wrapped around the *hosted*
backend, and whole connections severed mid-stream — and every query must
still produce rows and primary ledger byte counts identical to fault-free
execution, with the redone work visible only in ``ledger.retries`` /
``retry_bytes``.  Three fixed seeds replay three deterministic fault
schedules; deadlines must fire across the wire; a permanently failing
server must surface the same typed exception the in-process stack raises.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    DeadlineExceededError,
    InjectedFaultError,
    TransientError,
)
from repro.core import MonomiClient
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream
from repro.net import MonomiServer, RemoteBackend
from repro.server.backend import DelegatingView
from repro.testkit import SALES_WORKLOAD, canonical

CHAOS_SEEDS = (3, 11, 42)
CHAOS_RATE = 0.08


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


def remote_client(sales_client, server: MonomiServer, **backend_opts) -> MonomiClient:
    """A dedicated client over its own RemoteBackend to ``server``."""
    backend = RemoteBackend(server.address, **backend_opts)
    return MonomiClient(
        sales_client.plain_db,
        sales_client.design,
        sales_client.provider,
        backend,
        sales_client.flags,
        sales_client.network,
        sales_client.disk,
    )


@pytest.fixture(scope="module")
def references(sales_client):
    """Fault-free outcomes per workload query (rows + primary ledger)."""
    return {
        sql: (canonical(outcome.rows), ledger_bytes(outcome.ledger))
        for sql, outcome in (
            (sql, sales_client.execute(sql)) for sql in SALES_WORKLOAD
        )
    }


# ---------------------------------------------------------------------------
# Server-side chaos: typed faults crossing the wire
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_server_chaos_is_byte_identical(seed, sales_client, references, chaos_spec):
    with MonomiServer(
        sales_client.backend, chaos=(seed, CHAOS_RATE)
    ) as server:
        client = remote_client(sales_client, server, pool_size=1)
        total_retries = 0
        for sql in SALES_WORKLOAD:
            outcome = client.execute(sql)
            want_rows, want_ledger = references[sql]
            assert canonical(outcome.rows) == want_rows, (seed, sql)
            assert ledger_bytes(outcome.ledger) == want_ledger, (seed, sql)
            total_retries += outcome.ledger.retries
        stats = server.stats()
        client.close()
    chaos = stats["chaos"]
    faults = chaos["injected_errors"] + chaos["truncations"]
    assert chaos["draws"] > 0
    if chaos_spec is None:
        # Every server-injected fault was retried exactly once, by one
        # hop: the server retries a fault at a request's open itself, and
        # a fault mid-stream crosses the wire as one typed transient the
        # client resumes — no faults lost, none invented, none retried
        # twice.  (Pre-call injections abandon attempts that charged
        # nothing, so retry_bytes is asserted on the deterministic drop
        # test instead.)
        assert total_retries + stats["retries"] == faults, (seed, stats)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_server_chaos_streaming_iter_is_byte_identical(
    seed, sales_client, references
):
    sql = SALES_WORKLOAD[4]  # ORDER BY + LIMIT: the resumable stream shape.
    with MonomiServer(
        sales_client.backend, chaos=(seed, CHAOS_RATE)
    ) as server:
        client = remote_client(sales_client, server, pool_size=1)
        for _ in range(4):
            outcome = client.execute_iter(sql, block_rows=4).drain()
            want_rows, want_ledger = references[sql]
            assert canonical(outcome.rows) == want_rows, seed
            assert ledger_bytes(outcome.ledger) == want_ledger, seed
        client.close()


def test_permanent_faults_surface_the_in_process_type(sales_client):
    # rate=1.0: every attempt faults, the retry budget exhausts, and the
    # client must see the *same* exception class the in-process chaos
    # stack raises — the taxonomy survived the socket.
    with MonomiServer(sales_client.backend, chaos=(5, 1.0)) as server:
        client = remote_client(sales_client, server, pool_size=1)
        with pytest.raises(TransientError) as excinfo:
            client.execute(SALES_WORKLOAD[0])
        assert isinstance(excinfo.value, InjectedFaultError)
        client.close()


class _FaultAfterFirstBlock(DelegatingView):
    """A hosted store whose streams fault right after their first block."""

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        stream = self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )

        def blocks():
            try:
                yield next(iter(stream))
                raise InjectedFaultError("injected fault after the first block")
            finally:
                stream.close()

        return BlockStream(stream.columns, blocks(), stream.stats)

    def worker_view(self):
        return _FaultAfterFirstBlock(self._parent.worker_view())


def test_close_charges_the_scan_when_the_server_faulted_first(sales_client):
    # When the server hits the fault before it reads the client's CANCEL,
    # the close drains an ERROR frame instead of LEDGER: the stream must
    # still charge the full scan, as an undisturbed close does.  Which
    # frame comes first is a race, so the close runs five times.
    sql = "SELECT o_orderkey, o_price FROM orders"
    want = sales_client.execute(sql).ledger.server_bytes_scanned
    with MonomiServer(_FaultAfterFirstBlock(sales_client.backend)) as server:
        client = remote_client(sales_client, server, pool_size=1)
        for _ in range(5):
            stream = client.execute_iter(sql, block_rows=16)
            next(iter(stream))
            stream.close()
            assert stream.ledger.server_bytes_scanned == want
        errors_sent = server.stats()["errors_sent"]
        client.close()
    assert errors_sent > 0


# ---------------------------------------------------------------------------
# Severed connections: the failure mode only a real socket has
# ---------------------------------------------------------------------------


def test_dropped_connections_are_byte_identical(sales_client, references, chaos_spec):
    with MonomiServer(
        sales_client.backend, drop_rate=0.25, drop_seed=7
    ) as server:
        client = remote_client(sales_client, server)
        total_retries = total_retry_bytes = 0
        for _round in range(3):
            for sql in SALES_WORKLOAD:
                outcome = client.execute(sql)
                want_rows, want_ledger = references[sql]
                assert canonical(outcome.rows) == want_rows, sql
                assert ledger_bytes(outcome.ledger) == want_ledger, sql
                total_retries += outcome.ledger.retries
                total_retry_bytes += outcome.ledger.retry_bytes
        drops = server.stats()["drops_injected"]
        client.close()
    assert drops > 0  # The schedule actually severed connections.
    if chaos_spec is None:
        assert total_retries == drops
        # A severed stream abandons a started attempt: its redone bytes
        # land in retry accounting, never in primary totals.
        assert total_retry_bytes > 0


def test_drop_storm_with_concurrent_sessions(sales_client, references):
    # Drops under the service layer: worker views each dial their own
    # connections; severing them must never corrupt another session.
    with MonomiServer(
        sales_client.backend, drop_rate=0.15, drop_seed=23
    ) as server:
        client = remote_client(sales_client, server)
        with client.service(workers=3) as service:
            sessions = [service.open_session() for _ in range(3)]
            futures = [
                (sql, session.submit(sql))
                for session in sessions
                for sql in SALES_WORKLOAD
            ]
            for sql, future in futures:
                outcome = future.result()
                want_rows, want_ledger = references[sql]
                assert canonical(outcome.rows) == want_rows, sql
                assert ledger_bytes(outcome.ledger) == want_ledger, sql
        client.close()


# ---------------------------------------------------------------------------
# Deadlines across the wire
# ---------------------------------------------------------------------------


class TestWireDeadlines:
    def test_expired_deadline_fires_on_execute(self, sales_client_remote):
        with pytest.raises(DeadlineExceededError):
            sales_client_remote.execute(SALES_WORKLOAD[0], timeout=1e-6)

    def test_expired_deadline_fires_on_execute_iter(self, sales_client_remote):
        with pytest.raises(DeadlineExceededError):
            stream = sales_client_remote.execute_iter(
                SALES_WORKLOAD[4], timeout=1e-6
            )
            stream.drain()

    def test_client_still_works_after_a_deadline(self, sales_client_remote):
        with pytest.raises(DeadlineExceededError):
            sales_client_remote.execute(SALES_WORKLOAD[0], timeout=1e-6)
        outcome = sales_client_remote.execute(SALES_WORKLOAD[0])
        assert outcome.rows

    def test_generous_deadline_does_not_perturb_results(
        self, sales_client, sales_client_remote
    ):
        want = sales_client.execute(SALES_WORKLOAD[1])
        got = sales_client_remote.execute(SALES_WORKLOAD[1], timeout=120.0)
        assert canonical(got.rows) == canonical(want.rows)
        assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)

    def test_deadline_is_not_retried(self, sales_client):
        # Fatal taxonomy: an expired deadline must fail fast, not burn
        # the retry budget on an error retrying cannot fix.
        with MonomiServer(sales_client.backend) as server:
            client = remote_client(sales_client, server, pool_size=1)
            try:
                client.execute(SALES_WORKLOAD[0], timeout=1e-6)
            except DeadlineExceededError:
                pass
            stats = server.stats()
            client.close()
        assert stats["drops_injected"] == 0
        assert stats["queries"] <= 1  # No whole-query retry happened.
