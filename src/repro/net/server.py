"""MonomiServer: the untrusted server actually behind a socket.

Hosts any :class:`~repro.server.backend.ServerBackend` over TCP,
thread-per-connection.  Each connection is one *session*: it gets its
own ``worker_view()`` of the backend (the same isolation the in-process
service layer gives each worker thread) and a cumulative server-side
:class:`~repro.common.ledger.CostLedger` whose transfer/scan byte counts
are computed with exactly the client's accounting rules — on a
fault-free run the server's ledger for a session matches the client's
ledger for the same queries byte-for-byte.

Backpressure is the transport: blocks are pushed with ``sendall``, so a
consumer that stops pulling parks the producer on a full TCP window with
O(1) blocks of server memory — the PR 3 bounded-queue contract, enforced
by the kernel's socket buffers instead of a queue.  Between blocks the
server polls the connection for a CANCEL frame, so a client closing its
stream early releases the server cursor promptly.

Retries: the server is the one retry loop on the server ↔ hosted-store
hop.  It retries the store's transient faults itself, under the
constant :data:`HOST_RETRY` policy: every WRITE (inside the write lock)
and the open of every EXECUTE (before the first frame is sent, under the
request's deadline).  A client then retries only faults on the wire and
at its own end.  A fault in the middle of a stream is relayed typed,
since blocks already sent cannot be taken back; the client's stream
resume handles it.  ``stats()["retries"]`` counts the server's retries.

Fault injection: pass ``chaos=(seed, rate)`` to wrap the hosted backend
in a :class:`~repro.server.chaos.FaultInjectingBackend` (or host one
that is wrapped already), and ``drop_rate``/``drop_seed`` to sever
connections abruptly after a block send — the failure mode only a real
socket has, which the client maps to a transient
:class:`ConnectionLostError` and resumes across a reconnect.
"""

from __future__ import annotations

import random
import select
import socket
import threading

from repro.common.errors import (
    ConfigError,
    ConnectionLostError,
    ReproError,
    WireError,
)
from repro.common.ledger import CostLedger, NetworkModel
from repro.common.retry import Deadline, RetryPolicy, retry_call
from repro.engine.rowblock import (
    DEFAULT_BLOCK_ROWS,
    BlockStream,
    result_header_bytes,
)
from repro.net import wire
from repro.server.backend import ServerBackend, as_backend, insert_rows_idempotent
from repro.server.chaos import FaultInjectingBackend
from repro.sql import ast

#: Cap on prepared statements one session may hold.
MAX_PREPARED_PER_SESSION = 4096

#: Retry policy for the hosted store's transient faults.
HOST_RETRY = RetryPolicy()


class _DropConnection(Exception):
    """Internal: the drop injector decided to sever this connection."""


class _Session:
    """One connection's server-side state."""

    def __init__(self, session_id: int, view: ServerBackend) -> None:
        self.id = session_id
        self.view = view
        self.ledger = CostLedger()
        self.prepared: dict[int, ast.Select] = {}
        self.next_statement = 1
        self.queries = 0
        self.blocks_sent = 0
        self.errors_sent = 0
        self.cancels = 0


class MonomiServer:
    """Serve one backend's encrypted tables over a TCP wire protocol."""

    def __init__(
        self,
        backend: object,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: tuple[int, float] | None = None,
        drop_rate: float = 0.0,
        drop_seed: int = 0,
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
        network: NetworkModel | None = None,
        backlog: int = 64,
    ) -> None:
        base = as_backend(backend)
        if chaos is not None:
            base = FaultInjectingBackend(base, *chaos)
        self.backend = base
        self._host = host
        self._port = port
        self._backlog = backlog
        self._max_frame_bytes = max_frame_bytes
        self._network = network if network is not None else NetworkModel()
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigError(f"drop_rate must be in [0, 1], got {drop_rate}")
        self._drop_rate = drop_rate
        self._drop_rng = random.Random(drop_seed)
        self._lock = threading.Lock()
        # One server-wide write lock: DML and hom maintenance from
        # concurrent sessions serialize here (worker views delegate
        # writes to the one parent backend, which has a single write
        # connection/state; reads keep their per-view concurrency).
        self._write_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        self._next_session = 1
        self._sessions: dict[int, _Session] = {}
        self._connections: dict[int, tuple[socket.socket, threading.Thread]] = {}
        self._connections_total = 0
        self._drops_injected = 0
        self._retries = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MonomiServer":
        if self._listener is not None:
            raise ConfigError("server already started")
        self._listener = socket.create_server(
            (self._host, self._port), backlog=self._backlog
        )
        self._host, self._port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="monomi-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            listener = self._listener
            open_connections = list(self._connections.values())
        if listener is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept() on Linux; shutdown() does.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        for sock, _thread in open_connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for _sock, thread in open_connections:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MonomiServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ConfigError("server not started")
        return self._port

    @property
    def address(self) -> str:
        """``host:port``, the string :meth:`MonomiClient.connect` takes."""
        return f"{self.host}:{self.port}"

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Server-wide counters (plus chaos counters when armed)."""
        with self._lock:
            sessions = list(self._sessions.values())
            body: dict = {
                "connections_total": self._connections_total,
                "connections_open": len(self._connections),
                "sessions": len(sessions),
                "drops_injected": self._drops_injected,
                "retries": self._retries,
            }
        body["queries"] = sum(s.queries for s in sessions)
        body["blocks_sent"] = sum(s.blocks_sent for s in sessions)
        body["errors_sent"] = sum(s.errors_sent for s in sessions)
        body["cancels"] = sum(s.cancels for s in sessions)
        body["transfer_bytes"] = sum(s.ledger.transfer_bytes for s in sessions)
        body["server_bytes_scanned"] = sum(
            s.ledger.server_bytes_scanned for s in sessions
        )
        if isinstance(self.backend, FaultInjectingBackend):
            body["chaos"] = self.backend.stats()
        return body

    def session_ledgers(self) -> list[CostLedger]:
        """Per-session cumulative ledgers (every session ever opened)."""
        with self._lock:
            return [s.ledger for s in self._sessions.values()]

    # -- accept/serve --------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # Listener closed: shutting down.
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                self._connections_total += 1
                conn_id = self._connections_total
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn_id, sock),
                name=f"monomi-server-conn-{conn_id}",
                daemon=True,
            )
            with self._lock:
                self._connections[conn_id] = (sock, thread)
            thread.start()

    def _serve_connection(self, conn_id: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = wire.FrameDecoder(self._max_frame_bytes)
        session: _Session | None = None
        try:
            while True:
                incoming = wire.recv_message(sock, decoder, eof_ok=True)
                if incoming is None:
                    return  # Client hung up cleanly between requests.
                ftype, body = incoming
                if ftype == wire.HELLO:
                    session = self._open_session()
                    wire.send_message(sock, wire.HELLO, self._hello_body(session))
                elif session is None:
                    raise wire.FramingError(
                        f"first frame must be HELLO, "
                        f"got {wire.FRAME_NAMES[ftype]}"
                    )
                elif ftype == wire.PREPARE:
                    self._handle_prepare(sock, session, body)
                elif ftype == wire.EXECUTE:
                    self._handle_execute(sock, decoder, session, body)
                elif ftype == wire.WRITE:
                    self._handle_write(sock, session, body)
                elif ftype == wire.CANCEL:
                    pass  # Stale cancel for a stream that already ended.
                else:
                    raise wire.FramingError(
                        f"unexpected {wire.FRAME_NAMES[ftype]} frame"
                    )
        except _DropConnection:
            with self._lock:
                self._drops_injected += 1
        except WireError as exc:
            # Protocol violation: tell the peer (best effort), then close.
            try:
                wire.send_message(sock, wire.ERROR, wire.encode_error(exc))
            except ReproError:
                pass
        except ConnectionLostError:
            pass  # Peer vanished; nothing to report to.
        finally:
            if session is not None:
                session.view.close()
            try:
                sock.close()
            except OSError:
                pass
            with self._lock:
                self._connections.pop(conn_id, None)

    # -- request handlers ----------------------------------------------------

    def _open_session(self) -> _Session:
        with self._lock:
            session_id = self._next_session
            self._next_session += 1
        view = self.backend.worker_view()
        session = _Session(session_id, view)
        with self._lock:
            self._sessions[session_id] = session
        return session

    def _catalog_body(self) -> dict:
        """Table heap sizes + ciphertext-file metadata: shipped in HELLO
        and refreshed in every WRITE_RESULT (writes change both)."""
        backend = self.backend
        store = backend.ciphertext_store
        files = []
        for name in store.names():
            file = store.get(name)
            files.append(
                {
                    "name": name,
                    "rows_per_ciphertext": file.rows_per_ciphertext,
                    "ciphertext_bytes": file.ciphertext_bytes,
                    "total_bytes": file.total_bytes,
                }
            )
        return {
            "tables": {
                name: backend.table_bytes(name)
                for name in backend.table_names()
            },
            "ciphertext_files": files,
        }

    def _hello_body(self, session: _Session) -> dict:
        body = {
            "server": "monomi",
            "kind": self.backend.kind,
            "session": session.id,
        }
        body.update(self._catalog_body())
        return body

    def _handle_prepare(
        self, sock: socket.socket, session: _Session, body: dict
    ) -> None:
        query = body.get("query")
        if not isinstance(query, ast.Select):
            session.errors_sent += 1
            wire.send_message(
                sock,
                wire.ERROR,
                wire.encode_error(
                    wire.CodecError("PREPARE payload carries no Select query")
                ),
            )
            return
        if len(session.prepared) >= MAX_PREPARED_PER_SESSION:
            session.errors_sent += 1
            wire.send_message(
                sock,
                wire.ERROR,
                wire.encode_error(
                    ConfigError(
                        f"session holds {len(session.prepared)} prepared "
                        "statements; limit reached"
                    )
                ),
            )
            return
        statement_id = session.next_statement
        session.next_statement += 1
        session.prepared[statement_id] = query
        wire.send_message(sock, wire.PREPARE, {"statement": statement_id})

    def _retrying(self, call, deadline: Deadline | None = None):
        """Run one call on the hosted store, retrying its transient faults."""
        return retry_call(
            call, HOST_RETRY, deadline=deadline, on_retry=self._count_retry
        )

    def _count_retry(self, _attempt: int, _exc: BaseException) -> None:
        with self._lock:
            self._retries += 1

    def _apply_write(self, view: ServerBackend, body: dict) -> dict:
        """Apply one WRITE body, retrying the hosted store's transient faults.

        Runs under the write lock, so no other write lands between two
        attempts.  An insert goes through the row-count watermark, so a
        lost ack does not store the rows twice.  Every other op is retried
        as it is: deletes and replaces match exact stored tuples, a hom
        patch carries the frame's token, and the rest only read.
        """
        if body.get("op") == "insert":
            rows = [tuple(r) for r in body.get("rows") or []]
            insert_rows_idempotent(
                view,
                body.get("table"),
                rows,
                HOST_RETRY,
                None,
                on_retry=self._count_retry,
            )
            return {"count": len(rows)}
        return self._retrying(lambda: self._write_once(view, body))

    def _write_once(self, view: ServerBackend, body: dict) -> dict:
        """Dispatch one non-insert WRITE body to the backend write surface."""
        op = body.get("op")
        table = body.get("table")
        file_name = body.get("file")
        if op == "delete":
            rows = [tuple(r) for r in body.get("rows") or []]
            return {"count": view.delete_rows(table, rows)}
        if op == "replace":
            pairs = [
                (tuple(old), tuple(new))
                for old, new in body.get("pairs") or []
            ]
            return {"count": view.replace_rows(table, pairs)}
        if op == "hom_apply":
            view.hom_apply(
                file_name,
                updates=[
                    (int(i), int(f)) for i, f in body.get("updates") or []
                ],
                appended=[int(c) for c in body.get("appended") or []],
                num_rows=body.get("num_rows"),
                token=body.get("token"),
            )
            return {"count": 0}
        if op == "hom_info":
            return {"count": 0, "info": view.hom_file_info(file_name)}
        if op == "hom_read":
            indices = [int(i) for i in body.get("indices") or []]
            return {
                "count": 0,
                "ciphertexts": view.hom_read(file_name, indices),
            }
        if op == "row_count":
            return {"count": view.row_count(table)}
        raise ConfigError(f"unknown write op {op!r}")

    def _handle_write(
        self, sock: socket.socket, session: _Session, body: dict
    ) -> None:
        session.queries += 1
        try:
            with self._write_lock:
                result = self._apply_write(session.view, body)
        except (ReproError, TypeError, ValueError, KeyError) as exc:
            session.errors_sent += 1
            wire.send_message(sock, wire.ERROR, wire.encode_error(exc))
            return
        result.update(self._catalog_body())
        # Drop *before* acking: the write applied but the client never
        # hears so — the lost-ack fault a real network makes possible,
        # which the client-side idempotent retry must absorb.
        self._maybe_drop()
        wire.send_message(sock, wire.WRITE_RESULT, result)

    def _resolve_query(self, session: _Session, body: dict) -> ast.Select:
        query = body.get("query")
        if query is None:
            statement = body.get("statement")
            query = session.prepared.get(statement)
            if query is None:
                raise ConfigError(f"unknown prepared statement {statement!r}")
        if not isinstance(query, ast.Select):
            raise wire.CodecError("EXECUTE payload carries no Select query")
        return query

    def _open_stream(
        self, view: ServerBackend, query: ast.Select, body: dict
    ) -> BlockStream:
        """The backend call for one EXECUTE.

        ``block_rows`` comes from the peer: anything but a positive
        integer is refused (a negative one would re-block the result into
        zero rows).
        """
        block_rows = body.get("block_rows")
        if block_rows is None:
            block_rows = DEFAULT_BLOCK_ROWS
        if type(block_rows) is not int or block_rows < 1:
            raise ConfigError(
                f"block_rows must be a positive integer, got {block_rows!r}"
            )
        return view.execute_stream(
            query, params=body.get("params"), block_rows=block_rows
        )

    def _handle_execute(
        self,
        sock: socket.socket,
        decoder: wire.FrameDecoder,
        session: _Session,
        body: dict,
    ) -> None:
        session.queries += 1
        timeout = body.get("timeout")
        deadline = Deadline.after(timeout) if timeout else None
        try:
            query = self._resolve_query(session, body)
            if deadline is not None:
                deadline.check("query")
            stream = self._retrying(
                lambda: self._open_stream(session.view, query, body), deadline
            )
        except ReproError as exc:
            session.errors_sent += 1
            wire.send_message(sock, wire.ERROR, wire.encode_error(exc))
            return

        ledger = session.ledger
        cancelled = False
        try:
            wire.send_message(sock, wire.BLOCK, {"columns": stream.columns})
            # The client's accounting rules exactly: one round trip, then
            # header + per-block payload bytes.
            ledger.begin_round_trip(self._network)
            ledger.add_block_transfer(
                result_header_bytes(stream.columns), self._network
            )
            iterator = iter(stream)
            while True:
                if deadline is not None:
                    deadline.check("query stream")
                if self._poll_cancel(sock, decoder):
                    cancelled = True
                    session.cancels += 1
                    break
                block = next(iterator, None)
                if block is None:
                    break
                wire.send_message(
                    sock,
                    wire.BLOCK,
                    {"data": block.columns, "rows": block.num_rows},
                )
                session.blocks_sent += 1
                ledger.add_block_transfer(block.payload_bytes(), self._network)
                self._maybe_drop()
        except ReproError as exc:
            # Typed failure mid-stream (injected chaos, engine error,
            # deadline): close the producer so its scan accounting is
            # final, then relay the typed error — with the scan bytes the
            # attempt charged, so the client can ledger the redone work.
            stream.close()
            stats = stream.stats
            scanned = stats.bytes_scanned if stats is not None else None
            session.errors_sent += 1
            wire.send_message(
                sock, wire.ERROR, wire.encode_error(exc, bytes_scanned=scanned)
            )
            return
        finally:
            stream.close()
        stats = stream.stats
        scanned = stats.bytes_scanned if stats is not None else 0
        rows_output = stats.rows_output if stats is not None else 0
        ledger.server_bytes_scanned += scanned
        wire.send_message(
            sock,
            wire.LEDGER,
            {
                "bytes_scanned": scanned,
                "rows_output": rows_output,
                "cancelled": cancelled,
                "session_queries": session.queries,
                "session_transfer_bytes": ledger.transfer_bytes,
                "session_bytes_scanned": ledger.server_bytes_scanned,
            },
        )

    def _poll_cancel(
        self, sock: socket.socket, decoder: wire.FrameDecoder
    ) -> bool:
        """Between block sends: has the client sent a CANCEL frame?"""
        if decoder.pending == 0:
            readable, _, _ = select.select([sock], [], [], 0)
            if not readable:
                return False
            try:
                data = sock.recv(1 << 16)
            except OSError as exc:
                raise ConnectionLostError(f"connection lost: {exc}") from exc
            if not data:
                raise ConnectionLostError("client closed connection mid-stream")
            decoder.feed(data)
        frame = decoder.next_frame()
        if frame is None:
            return False
        ftype, _payload = frame
        if ftype == wire.CANCEL:
            return True
        raise wire.FramingError(
            f"unexpected {wire.FRAME_NAMES[ftype]} frame while a stream "
            "is in flight"
        )

    def _maybe_drop(self) -> None:
        if self._drop_rate <= 0.0:
            return
        with self._lock:
            fire = self._drop_rng.random() < self._drop_rate
        if fire:
            raise _DropConnection()
