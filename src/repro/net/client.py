"""RemoteBackend: a ServerBackend whose engine is across the network.

The trusted client's entire server interface —
:class:`~repro.server.backend.ServerBackend` — re-implemented over the
wire protocol, so the plan executor, cost model, service layer, and
chaos wrapper all work unchanged against a
:class:`~repro.net.server.MonomiServer` on the far side of a socket.

Design points:

* **Connection pool.**  One connection carries one in-flight request at
  a time (frames of concurrent streams would interleave); the pool hands
  an idle connection to each request and dials a fresh one when none is
  free, so `worker_view()` sessions and overlapping `execute_iter()`
  streams each get their own socket without the caller managing any of
  it.
* **Typed transience.**  Socket death at any point maps to
  :class:`~repro.common.errors.ConnectionLostError` (transient) and
  ERROR frames decode to their in-process exception types, so the
  client hop's one retry loop — ``retry_call`` around a write,
  :class:`~repro.engine.rowblock.ResilientStream` resume around every
  read — drives reconnects with no network-specific code.  Faults of the
  hosted store are retried by the server before they reach the wire,
  except in the middle of a stream.
* **Catalog from HELLO.**  Table heap sizes and packed-ciphertext file
  metadata arrive in the handshake; the cost model and planner read them
  through the normal ``table_bytes()`` / ``ciphertext_store`` surface.
  The store is metadata-only — ciphertext payloads stay server-side,
  which is the paper's whole point.
* **Prepared statements.**  A query AST seen ``prepare_threshold`` times
  on one connection is PREPAREd server-side and referenced by id from
  then on, so a repeated statement (its plan from the client's plan
  cache) stops re-shipping identical (large) encrypted ASTs.  The
  statement's key is its wire encoding, memoized per query object, so a
  repeat finds its id without re-encoding the AST.
"""

from __future__ import annotations

import socket
import threading

from repro.common.errors import (
    ConfigError,
    ConnectionLostError,
    DeadlineExceededError,
    EngineError,
    FramingError,
    ReproError,
)
from repro.common.lru import LRUCache
from repro.common.retry import Deadline
from repro.engine.executor import ExecStats
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream, RowBlock
from repro.net import wire
from repro.server.backend import ServerBackend
from repro.sql import ast

#: Idle connections kept per backend; extras dialed under load are closed
#: on check-in instead of pooled.
DEFAULT_POOL_SIZE = 8

#: Executions of one query AST on one connection before it is PREPAREd.
DEFAULT_PREPARE_THRESHOLD = 2

#: Per connection: distinct query ASTs counted or PREPAREd, and query
#: objects whose encoded key is kept.
_PREPARE_MEMO_LIMIT = 512


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"``; :class:`ConfigError` on anything else."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"server address must look like 'host:port', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"server address port must be an integer, got {port_text!r}"
        ) from None
    return host, port


class _RemoteCiphertextFile:
    """Metadata stand-in for one server-side packed-ciphertext file."""

    __slots__ = ("name", "rows_per_ciphertext", "ciphertext_bytes", "total_bytes")

    def __init__(self, info: dict) -> None:
        self.name = info["name"]
        self.rows_per_ciphertext = info["rows_per_ciphertext"]
        self.ciphertext_bytes = info["ciphertext_bytes"]
        self.total_bytes = info["total_bytes"]


class _RemoteCiphertextStore:
    """The ciphertext store's read surface, backed by HELLO metadata."""

    def __init__(self, files: list[dict]) -> None:
        self._files = {info["name"]: _RemoteCiphertextFile(info) for info in files}

    def names(self) -> list[str]:
        return sorted(self._files)

    def get(self, name: str) -> _RemoteCiphertextFile:
        try:
            return self._files[name]
        except KeyError:
            raise EngineError(f"unknown ciphertext file {name!r}") from None

    @property
    def total_bytes(self) -> int:
        return sum(f.total_bytes for f in self._files.values())

    def add(self, file: object) -> None:
        raise ConfigError(
            "remote backend is read-only: load ciphertext files on the "
            "server side"
        )


class _Connection:
    """One TCP connection: framing state plus its prepare memo."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float,
        socket_timeout: float,
        max_frame_bytes: int,
    ) -> None:
        self.socket_timeout = socket_timeout
        try:
            self.sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(socket_timeout)
        self.decoder = wire.FrameDecoder(max_frame_bytes)
        self.alive = True
        self.hello: dict = {}
        # id(query) -> (query, encoded-query-bytes): the entry holds the
        # query, so its id cannot be reused while the entry lives.
        self.query_keys = LRUCache(_PREPARE_MEMO_LIMIT)
        # encoded-query-bytes -> times seen / statement id
        self.prepare_counts: dict[bytes, int] = {}
        self.prepared: dict[bytes, int] = {}

    def handshake(self) -> None:
        self.send(wire.HELLO, {"client": "monomi", "version": wire.VERSION})
        ftype, body = self.recv()
        if ftype == wire.ERROR:
            raise wire.decode_error(body)
        if ftype != wire.HELLO:
            raise FramingError(
                f"expected HELLO response, got {wire.FRAME_NAMES[ftype]}"
            )
        self.hello = body

    def send(self, ftype: int, body: dict) -> None:
        try:
            wire.send_message(self.sock, ftype, body)
        except ReproError:
            self.alive = False
            raise

    def recv(self, deadline: Deadline | None = None) -> tuple[int, dict]:
        """One frame; socket timeouts are capped by the deadline so an
        expiry surfaces as :class:`DeadlineExceededError` even when the
        server stalls mid-response."""
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                self.destroy()
                raise DeadlineExceededError(
                    "query deadline expired while awaiting a server frame"
                )
            self.sock.settimeout(min(remaining, self.socket_timeout))
        else:
            self.sock.settimeout(self.socket_timeout)
        try:
            message = wire.recv_message(self.sock, self.decoder)
        except ConnectionLostError as exc:
            self.alive = False
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "query deadline expired while awaiting a server frame"
                ) from exc
            raise
        except ReproError:
            self.alive = False
            raise
        assert message is not None  # eof_ok=False: EOF raised above.
        return message

    def destroy(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class _RemoteBlockIterator:
    """Block iterator for one in-flight streamed EXECUTE.

    Yields decoded RowBlocks until the LEDGER frame, folding the server's
    final scan statistics into ``stats`` and returning the connection to
    the pool.  ``close()`` before exhaustion sends CANCEL and drains to
    the LEDGER so the connection stays reusable; any transport death
    instead discards the connection and (on the iteration path) raises
    transient :class:`ConnectionLostError` for the resume layer.
    """

    def __init__(
        self,
        backend: "RemoteBackend",
        conn: _Connection,
        stats: ExecStats,
        width: int,
        deadline: Deadline | None,
    ) -> None:
        self._backend = backend
        self._conn = conn
        self._stats = stats
        self._width = width
        self._deadline = deadline
        self._finished = False

    def __iter__(self) -> "_RemoteBlockIterator":
        return self

    def __next__(self) -> RowBlock:
        if self._finished:
            raise StopIteration
        try:
            ftype, body = self._conn.recv(self._deadline)
        except ReproError:
            self._finished = True  # Connection already destroyed/marked.
            raise
        if ftype == wire.BLOCK and "data" in body:
            try:
                return _decode_block(body, self._width)
            except ReproError:
                self._finished = True
                self._conn.destroy()
                raise
        if ftype == wire.LEDGER:
            self._finished = True
            self._stats.bytes_scanned = body.get("bytes_scanned", 0)
            self._stats.rows_output = body.get("rows_output", 0)
            self._backend._checkin(self._conn)
            raise StopIteration
        if ftype == wire.ERROR:
            # A typed server-side failure: the connection itself is fine
            # (the server sent the frame and kept the session).  Record
            # the aborted attempt's scan bytes so the resume layer can
            # charge the redone work to retry_bytes.
            self._finished = True
            scanned = body.get("bytes_scanned")
            if isinstance(scanned, int):
                self._stats.bytes_scanned = scanned
            self._backend._checkin(self._conn)
            raise wire.decode_error(body)
        self._finished = True
        self._conn.destroy()
        raise FramingError(
            f"unexpected {wire.FRAME_NAMES[ftype]} frame in a result stream"
        )

    def close(self) -> None:
        if self._finished:
            return
        self._finished = True
        try:
            self._conn.send(wire.CANCEL, {})
            while True:
                # Drain without the query deadline: cancellation is
                # cooperative cleanup, bounded by the socket timeout.
                ftype, body = self._conn.recv()
                if ftype in (wire.LEDGER, wire.ERROR):
                    # A fault the server hit before it saw the CANCEL ends
                    # the stream with ERROR, which carries the scan too.
                    self._stats.bytes_scanned = body.get("bytes_scanned") or 0
                    self._stats.rows_output = body.get("rows_output", 0)
                    self._backend._checkin(self._conn)
                    return
                if ftype != wire.BLOCK:
                    self._conn.destroy()
                    return
        except ReproError:
            self._conn.destroy()


def _decode_block(body: dict, width: int) -> RowBlock:
    columns = body.get("data")
    num_rows = body.get("rows")
    if (
        type(columns) is not list
        or type(num_rows) is not int
        or len(columns) != width
        or any(type(c) is not list or len(c) != num_rows for c in columns)
    ):
        raise wire.CodecError("malformed BLOCK frame body")
    return RowBlock(columns, num_rows)


class RemoteBackend(ServerBackend):
    """The client half of the wire protocol, as a ServerBackend."""

    kind = "remote"

    def __init__(
        self,
        address: str,
        connect_timeout: float = 10.0,
        socket_timeout: float = 120.0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        pool_size: int = DEFAULT_POOL_SIZE,
        prepare_threshold: int = DEFAULT_PREPARE_THRESHOLD,
    ) -> None:
        self.address = address
        self._host, self._port = parse_address(address)
        self._connect_timeout = connect_timeout
        self._socket_timeout = socket_timeout
        self._max_frame_bytes = max_frame_bytes
        self._pool_size = pool_size
        self._prepare_threshold = prepare_threshold
        self._lock = threading.Lock()
        self._pool: list[_Connection] = []
        self._closed = False
        self.last_stats = ExecStats()
        # Eager handshake: the planner and cost model read the catalog at
        # client construction time, before any query runs.
        conn = self._dial()
        self.server_kind = conn.hello.get("kind", "unknown")
        self._table_bytes = dict(conn.hello.get("tables", {}))
        self.ciphertext_store = _RemoteCiphertextStore(
            conn.hello.get("ciphertext_files", [])
        )
        self._checkin(conn)

    # -- pool ----------------------------------------------------------------

    def _dial(self) -> _Connection:
        conn = _Connection(
            self._host,
            self._port,
            self._connect_timeout,
            self._socket_timeout,
            self._max_frame_bytes,
        )
        try:
            conn.handshake()
        except BaseException:
            conn.destroy()
            raise
        return conn

    def _checkout(self) -> _Connection:
        with self._lock:
            if self._closed:
                raise ConfigError("remote backend is closed")
            while self._pool:
                conn = self._pool.pop()
                if conn.alive:
                    return conn
                conn.destroy()
        return self._dial()

    def _checkin(self, conn: _Connection) -> None:
        if not conn.alive:
            conn.destroy()
            return
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(conn)
                return
        conn.destroy()

    def close(self) -> None:
        """Close every pooled connection; in-flight ones close on check-in."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.destroy()

    def open_connections(self) -> int:
        """Idle pooled connections (observability for leak tests)."""
        with self._lock:
            return len(self._pool)

    # -- ServerBackend: loading (unsupported — the server loads locally) -----

    def create_table(self, schema: object) -> None:
        raise ConfigError(
            "remote backend cannot create tables: run the encrypted load "
            "on the server side, then connect"
        )

    def create_indexes(self, table_name: str, columns: object) -> None:
        raise ConfigError(
            "remote backend cannot create indexes: they are built by the "
            "server-side load, then connect"
        )

    # -- ServerBackend: writes (the WRITE frame) ------------------------------
    #
    # Incremental DML and hom maintenance cross the wire as WRITE frames;
    # the bulk load still happens server-side (``create_table`` above).
    # Every WRITE_RESULT carries a fresh catalog (table heap sizes and
    # ciphertext-file metadata), so the cost model keeps planning against
    # the server's post-write state without a reconnect.

    def _write(self, body: dict) -> dict:
        conn = self._checkout()
        try:
            conn.send(wire.WRITE, body)
            ftype, reply = conn.recv()
            if ftype == wire.ERROR:
                raise wire.decode_error(reply)
            if ftype != wire.WRITE_RESULT:
                conn.destroy()
                raise FramingError(
                    f"expected WRITE_RESULT, got {wire.FRAME_NAMES[ftype]}"
                )
        except BaseException:
            self._discard_or_checkin(conn)
            raise
        self._checkin(conn)
        tables = reply.get("tables")
        if type(tables) is dict:
            self._table_bytes = dict(tables)
        files = reply.get("ciphertext_files")
        if type(files) is list:
            self.ciphertext_store = _RemoteCiphertextStore(files)
        return reply

    def insert_rows(self, table_name: str, rows: object) -> None:
        self._write(
            {
                "op": "insert",
                "table": table_name,
                "rows": [tuple(r) for r in rows],
            }
        )

    def delete_rows(self, table_name: str, rows: object) -> int:
        reply = self._write(
            {
                "op": "delete",
                "table": table_name,
                "rows": [tuple(r) for r in rows],
            }
        )
        return int(reply.get("count", 0))

    def replace_rows(self, table_name: str, pairs: object) -> int:
        reply = self._write(
            {
                "op": "replace",
                "table": table_name,
                "pairs": [(tuple(old), tuple(new)) for old, new in pairs],
            }
        )
        return int(reply.get("count", 0))

    def hom_apply(
        self,
        file_name: str,
        updates: object = (),
        appended: object = (),
        num_rows: int | None = None,
        token: str | None = None,
    ) -> None:
        self._write(
            {
                "op": "hom_apply",
                "file": file_name,
                "updates": [tuple(u) for u in updates],
                "appended": list(appended),
                "num_rows": num_rows,
                "token": token,
            }
        )

    def hom_file_info(self, file_name: str) -> dict:
        reply = self._write({"op": "hom_info", "file": file_name})
        info = reply.get("info")
        if type(info) is not dict:
            raise wire.CodecError("WRITE_RESULT carries no hom file info")
        return info

    def hom_read(self, file_name: str, indices: object) -> list[int]:
        reply = self._write(
            {
                "op": "hom_read",
                "file": file_name,
                "indices": [int(i) for i in indices],
            }
        )
        cts = reply.get("ciphertexts")
        if type(cts) is not list:
            raise wire.CodecError("WRITE_RESULT carries no ciphertexts")
        return cts

    def row_count(self, table_name: str) -> int:
        reply = self._write({"op": "row_count", "table": table_name})
        return int(reply.get("count", 0))

    # -- ServerBackend: introspection (HELLO catalog) ------------------------

    def table_names(self) -> list[str]:
        return sorted(self._table_bytes)

    def table_bytes(self, table_name: str) -> int:
        try:
            return self._table_bytes[table_name]
        except KeyError:
            raise EngineError(f"unknown table {table_name!r}") from None

    # -- ServerBackend: execution --------------------------------------------

    def _query_body(
        self, conn: _Connection, query: ast.Select, body: dict
    ) -> dict:
        """Attach ``query`` to a request — by prepared-statement id when
        this connection has seen it enough times, inline otherwise.

        The statement key is the query's wire encoding, so equal
        statements share one server statement id while ``Literal(1)`` and
        ``Literal(1.0)`` (equal as AST values) do not.  It is encoded once
        per query object: a repeated statement from the plan cache is the
        same object and finds its key by identity.
        """
        memo = conn.query_keys.get(id(query))
        if memo is None:
            memo = (query, wire.encode_value(query))
            conn.query_keys.put(id(query), memo)
        key = memo[1]
        statement = conn.prepared.get(key)
        if statement is not None:
            body["statement"] = statement
            return body
        seen = conn.prepare_counts.get(key, 0) + 1
        if (
            seen >= self._prepare_threshold
            and len(conn.prepared) < _PREPARE_MEMO_LIMIT
        ):
            conn.send(wire.PREPARE, {"query": query})
            ftype, reply = conn.recv()
            if ftype == wire.ERROR:
                raise wire.decode_error(reply)
            if ftype != wire.PREPARE:
                conn.destroy()
                raise FramingError(
                    f"expected PREPARE response, "
                    f"got {wire.FRAME_NAMES[ftype]}"
                )
            statement = reply.get("statement")
            if type(statement) is not int:
                conn.destroy()
                raise wire.CodecError("PREPARE response carries no statement id")
            conn.prepared[key] = statement
            conn.prepare_counts.pop(key, None)
            body["statement"] = statement
            return body
        if len(conn.prepare_counts) < _PREPARE_MEMO_LIMIT:
            conn.prepare_counts[key] = seen
        body["query"] = query
        return body

    def _discard_or_checkin(self, conn: _Connection) -> None:
        """After a failed request: a dead connection is destroyed; a live
        one (typed ERROR response — the protocol state is clean) pools."""
        if conn.alive:
            # ERROR frames end the exchange; framing/codec failures mark
            # the connection dead before reaching here, via recv/send.
            self._checkin(conn)
        else:
            conn.destroy()

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        conn = self._checkout()
        try:
            request: dict = {"block_rows": block_rows}
            if params:
                request["params"] = params
            if deadline is not None:
                deadline.check("query")
                request["timeout"] = deadline.remaining()
            self._query_body(conn, query, request)
            conn.send(wire.EXECUTE, request)
            ftype, body = conn.recv(deadline)
            if ftype == wire.ERROR:
                raise wire.decode_error(body)
            if ftype != wire.BLOCK or "columns" not in body:
                conn.destroy()
                raise FramingError(
                    "expected a result header BLOCK, "
                    f"got {wire.FRAME_NAMES[ftype]}"
                )
            columns = body["columns"]
            if type(columns) is not list or any(
                type(c) is not str for c in columns
            ):
                conn.destroy()
                raise wire.CodecError("malformed header BLOCK")
        except BaseException:
            self._discard_or_checkin(conn)
            raise
        stats = ExecStats()
        blocks = _RemoteBlockIterator(self, conn, stats, len(columns), deadline)
        self.last_stats = stats
        return BlockStream(columns, blocks, stats)

    # -- concurrent service access -------------------------------------------

    def worker_view(self) -> "RemoteBackend":
        """A service worker's view: its own connections to the same server
        (each connection is its own server-side session)."""
        return RemoteBackend(
            self.address,
            connect_timeout=self._connect_timeout,
            socket_timeout=self._socket_timeout,
            max_frame_bytes=self._max_frame_bytes,
            pool_size=self._pool_size,
            prepare_threshold=self._prepare_threshold,
        )
