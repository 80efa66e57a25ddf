"""Cross-transport equivalence: the socket must be invisible.

A :class:`~repro.net.MonomiServer` hosting the in-process backend over
TCP loopback, queried through :meth:`MonomiClient.connect`, must produce
plaintext rows *and* primary ledger byte counts identical to the
in-process client sharing the same encrypted database — for the sales
workload, the TPC-H and SSB suites, ``execute_iter()`` streaming, the
concurrent service layer, and prepared statements.  The ledger is the
paper's measurement instrument; a transport that perturbs it by one byte
invalidates every figure, so equality here is exact, not approximate.
"""

from __future__ import annotations

import socket

import pytest

from repro.common.errors import (
    ConfigError,
    EngineError,
    RemoteError,
    WireError,
)
from repro.core import CryptoProvider, MonomiClient, normalize_query
from repro.engine import schema
from repro.net import MonomiServer, RemoteBackend, parse_address, wire
from repro.server import make_backend
from repro.sql import parse
from repro.ssb import generate as ssb_generate, ssb_queries
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, canonical
from repro.tpch import generate as tpch_generate, tpch_queries

TPCH_SCALE = 0.0003
TPCH_NUMBERS = (1, 3, 4, 6, 11, 12, 18, 19)
SSB_SCALE = 0.0002
SSB_NUMBERS = ("1.1", "2.1", "3.1", "4.1")

EXTRA_QUERIES = [
    # Multi-round-trip plan: the IN-subquery's DET set crosses the wire
    # as a frozenset parameter — the codec's trickiest customer.
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT o_custkey FROM orders GROUP BY o_custkey "
    "HAVING SUM(o_qty) > 140)",
    "SELECT o_status, SUM(o_qty), MIN(o_price) FROM orders GROUP BY o_status",
]


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


# ---------------------------------------------------------------------------
# Sales workload: rows and ledgers byte-identical across the socket
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql", SALES_WORKLOAD + EXTRA_QUERIES)
def test_remote_matches_in_process(sql, sales_client, sales_client_remote):
    local = sales_client.execute(sql)
    remote = sales_client_remote.execute(sql)
    assert canonical(remote.rows) == canonical(local.rows), sql
    assert remote.columns == local.columns, sql
    assert ledger_bytes(remote.ledger) == ledger_bytes(local.ledger), sql


@pytest.mark.parametrize("sql", SALES_WORKLOAD)
def test_remote_execute_iter_matches_in_process(
    sql, sales_client, sales_client_remote
):
    local = sales_client.execute(sql)
    stream = sales_client_remote.execute_iter(sql, block_rows=16)
    remote = stream.drain()
    assert canonical(remote.rows) == canonical(local.rows), sql
    assert ledger_bytes(remote.ledger) == ledger_bytes(local.ledger), sql


def test_remote_params_match_in_process(sales_client, sales_client_remote):
    template = (
        "SELECT o_custkey, SUM(o_price) AS rev FROM orders "
        "WHERE o_price > :p GROUP BY o_custkey"
    )
    for value in (400, 2200):
        local = sales_client.execute(template, {"p": value})
        remote = sales_client_remote.execute(template, {"p": value})
        assert canonical(remote.rows) == canonical(local.rows)
        assert ledger_bytes(remote.ledger) == ledger_bytes(local.ledger)


def test_early_stream_close_reuses_the_connection(sales_client_remote):
    backend = sales_client_remote.backend
    if not isinstance(backend, RemoteBackend):
        pytest.skip("client backend is chaos-wrapped; pool not reachable")
    stream = sales_client_remote.execute_iter(SALES_WORKLOAD[4], block_rows=4)
    for _block in stream:
        break  # Abandon mid-stream: CANCEL + drain, not a dead socket.
    stream.close()
    repeat = sales_client_remote.execute(SALES_WORKLOAD[4])
    assert repeat.rows  # The pooled connection still serves queries.


def test_remote_catalog_matches_in_process(sales_client, sales_client_remote):
    local = sales_client.backend
    remote = sales_client_remote.backend
    assert remote.table_names() == local.table_names()
    for name in local.table_names():
        assert remote.table_bytes(name) == local.table_bytes(name)
    assert remote.total_bytes == local.total_bytes
    assert (
        sales_client_remote.space_overhead() == sales_client.space_overhead()
    )
    store_local, store_remote = local.ciphertext_store, remote.ciphertext_store
    assert store_remote.names() == store_local.names()
    for name in store_local.names():
        assert (
            store_remote.get(name).total_bytes
            == store_local.get(name).total_bytes
        )


# ---------------------------------------------------------------------------
# Server-side ledger: the session's byte counts equal the client's
# ---------------------------------------------------------------------------


def test_server_session_ledger_matches_client(sales_client, chaos_spec):
    if chaos_spec is not None:
        pytest.skip("aborted chaos attempts land in the server session ledger")
    # A dedicated single-connection client so exactly one server session
    # accumulates the whole run.
    with MonomiServer(sales_client.backend) as server:
        backend = RemoteBackend(server.address, pool_size=1)
        client = MonomiClient(
            sales_client.plain_db,
            sales_client.design,
            sales_client.provider,
            backend,
            sales_client.flags,
            sales_client.network,
            sales_client.disk,
        )
        want_transfer = want_scanned = 0
        for sql in SALES_WORKLOAD:
            outcome = client.execute(sql)
            assert outcome.ledger.retries == 0
            want_transfer += outcome.ledger.transfer_bytes
            want_scanned += outcome.ledger.server_bytes_scanned
        ledgers = server.session_ledgers()
        client.close()
        assert len(ledgers) == 1
        assert ledgers[0].transfer_bytes == want_transfer
        assert ledgers[0].server_bytes_scanned == want_scanned
        stats = server.stats()
        assert stats["transfer_bytes"] == want_transfer
        assert stats["server_bytes_scanned"] == want_scanned
        assert stats["queries"] >= len(SALES_WORKLOAD)
        assert stats["errors_sent"] == 0


# ---------------------------------------------------------------------------
# Service layer and prepared statements over the wire
# ---------------------------------------------------------------------------


def test_service_over_remote_matches_in_process(
    sales_client, sales_client_remote
):
    references = {
        sql: sales_client.execute(sql) for sql in SALES_WORKLOAD
    }
    with sales_client_remote.service(workers=3) as service:
        sessions = [service.open_session() for _ in range(3)]
        futures = [
            (sql, session.submit(sql))
            for session in sessions
            for sql in SALES_WORKLOAD
        ]
        for sql, future in futures:
            outcome = future.result()
            want = references[sql]
            assert canonical(outcome.rows) == canonical(want.rows), sql
            assert ledger_bytes(outcome.ledger) == ledger_bytes(
                want.ledger
            ), sql


def test_prepared_statements_over_remote(sales_client, sales_client_remote):
    template = (
        "SELECT o_custkey, SUM(o_price) AS rev FROM orders "
        "WHERE o_price > :p GROUP BY o_custkey"
    )
    values = (300, 900, 2500)
    references = {
        value: sales_client.execute(template, {"p": value}) for value in values
    }
    with sales_client_remote.service(workers=2) as service:
        statement = service.prepare(template)
        for value in values:
            want = references[value]
            got = service.execute_prepared(statement, {"p": value})
            assert canonical(got.rows) == canonical(want.rows)
            assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)


def test_repeated_queries_prepare_server_side(sales_client):
    # The connection-level prepare memo: the third identical EXECUTE must
    # reference a server-side statement id instead of re-shipping the AST.
    with MonomiServer(sales_client.backend) as server:
        backend = RemoteBackend(
            server.address, pool_size=1, prepare_threshold=2
        )
        client = MonomiClient(
            sales_client.plain_db,
            sales_client.design,
            sales_client.provider,
            backend,
            sales_client.flags,
            sales_client.network,
            sales_client.disk,
        )
        baseline = [client.execute(SALES_WORKLOAD[0]) for _ in range(3)]
        assert len({canonical(o.rows) == canonical(baseline[0].rows) for o in baseline}) == 1
        assert backend._pool and backend._pool[0].prepared
        client.close()


# ---------------------------------------------------------------------------
# TPC-H and SSB across the wire
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_remote_pair():
    db = tpch_generate(scale=TPCH_SCALE, seed=5)
    queries = tpch_queries(TPCH_SCALE)
    workload = [queries[n].sql for n in TPCH_NUMBERS]
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    local = MonomiClient.setup(
        db,
        workload,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.0,
        provider=provider,
    )
    with MonomiServer(local.backend) as server:
        remote = MonomiClient.connect(
            server.address, db, design=local.design, provider=provider
        )
        yield queries, local, remote
        remote.close()


@pytest.mark.parametrize("number", TPCH_NUMBERS)
def test_tpch_remote_agrees(tpch_remote_pair, number):
    queries, local, remote = tpch_remote_pair
    want = local.execute(queries[number].sql)
    got = remote.execute(queries[number].sql)
    assert canonical(got.rows) == canonical(want.rows)
    assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)


@pytest.fixture(scope="module")
def ssb_remote_pair():
    db = ssb_generate(scale=SSB_SCALE, seed=13)
    queries = ssb_queries()
    workload = [queries[n].sql for n in SSB_NUMBERS]
    provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
    local = MonomiClient.setup(
        db,
        workload,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.0,
        provider=provider,
    )
    with MonomiServer(local.backend) as server:
        remote = MonomiClient.connect(
            server.address, db, design=local.design, provider=provider
        )
        yield queries, local, remote
        remote.close()


@pytest.mark.parametrize("number", SSB_NUMBERS)
def test_ssb_remote_agrees(ssb_remote_pair, number):
    queries, local, remote = ssb_remote_pair
    want = local.execute(queries[number].sql)
    got = remote.execute(queries[number].sql)
    assert canonical(got.rows) == canonical(want.rows)
    assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)


# ---------------------------------------------------------------------------
# Protocol edges: addressing, read-only surface, hostile peers
# ---------------------------------------------------------------------------


class TestAddressing:
    def test_parse_address_round_trips(self):
        assert parse_address("127.0.0.1:5432") == ("127.0.0.1", 5432)

    @pytest.mark.parametrize("bad", ["nocolon", ":123", "host:", "host:abc"])
    def test_bad_addresses_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_address(bad)

    def test_connect_to_closed_port_is_transient(self):
        from repro.common.errors import ConnectionLostError

        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        port = sink.getsockname()[1]
        sink.close()  # Nothing listens here now.
        with pytest.raises(ConnectionLostError):
            RemoteBackend(f"127.0.0.1:{port}", connect_timeout=0.5)


class TestReadOnlySurface:
    def test_remote_backend_rejects_loads(self, sales_client_remote):
        # Bulk loading stays server-side: schema creation and ciphertext
        # file installation are rejected.  (Incremental writes — DML and
        # hom maintenance — go through the WRITE frame since PR 10 and
        # are covered by the DML suites.)
        backend = sales_client_remote.backend
        with pytest.raises(ConfigError):
            backend.create_table(object())
        with pytest.raises(ConfigError):
            backend.ciphertext_store.add(object())

    def test_unknown_table_raises_engine_error(self, sales_client_remote):
        with pytest.raises(EngineError):
            sales_client_remote.backend.table_bytes("no_such_table")


class TestHostilePeers:
    def _raw_connection(self, server: MonomiServer) -> socket.socket:
        sock = socket.create_connection((server.host, server.port), timeout=5)
        sock.settimeout(5)
        return sock

    def _read_reply(self, sock: socket.socket):
        decoder = wire.FrameDecoder()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                return None
            decoder.feed(data)
            frame = decoder.next_frame()
            if frame is not None:
                return frame

    def test_execute_before_hello_gets_typed_error(self, sales_server):
        sock = self._raw_connection(sales_server)
        try:
            sock.sendall(wire.encode_message(wire.EXECUTE, {"block_rows": 64}))
            frame = self._read_reply(sock)
            assert frame is not None
            ftype, payload = frame
            assert ftype == wire.ERROR
            decoded = wire.decode_error(wire.decode_message(payload))
            assert isinstance(decoded, (WireError, RemoteError))
        finally:
            sock.close()

    def test_nonpositive_block_rows_gets_config_error(self):
        # block_rows arrives from the peer: a negative value used to
        # re-block the result into zero rows instead of failing.
        backend = make_backend("memory")
        backend.create_table(schema("t", ("c", "int")))
        backend.insert_rows("t", [(i % 3,) for i in range(9)])
        query = normalize_query(parse("SELECT c, COUNT(*) FROM t GROUP BY c"))
        with MonomiServer(backend) as server:
            remote = RemoteBackend(server.address, pool_size=1)
            try:
                for bad in (0, -1):
                    with pytest.raises(ConfigError, match="block_rows"):
                        remote.execute_stream(query, block_rows=bad)
            finally:
                remote.close()

    def test_garbage_bytes_close_the_connection(self, sales_server):
        sock = self._raw_connection(sales_server)
        try:
            sock.sendall(b"\xde\xad\xbe\xef" * 16)
            # Best-effort ERROR frame, then EOF; never a hang.
            while True:
                frame = self._read_reply(sock)
                if frame is None:
                    break
        finally:
            sock.close()

    def test_stale_cancel_between_requests_is_ignored(self, sales_client):
        with MonomiServer(sales_client.backend) as server:
            backend = RemoteBackend(server.address, pool_size=1)
            conn = backend._checkout()
            conn.send(wire.CANCEL, {})
            backend._checkin(conn)
            client = MonomiClient(
                sales_client.plain_db,
                sales_client.design,
                sales_client.provider,
                backend,
                sales_client.flags,
                sales_client.network,
                sales_client.disk,
            )
            outcome = client.execute(SALES_WORKLOAD[0])
            want = sales_client.execute(SALES_WORKLOAD[0])
            assert canonical(outcome.rows) == canonical(want.rows)
            client.close()

    def test_double_close_is_idempotent(self, sales_client):
        server = MonomiServer(sales_client.backend).start()
        backend = RemoteBackend(server.address)
        backend.close()
        backend.close()
        server.close()
        server.close()
        with pytest.raises(ConfigError):
            backend._checkout()
