"""The untrusted-server seam: anything that can store ciphertexts and run SQL.

MONOMI's central architectural claim (§1, §7) is that the untrusted server
is an *unmodified relational engine* extended only with a handful of UDFs
(packed homomorphic aggregation, searchable-encryption matching).  A
:class:`ServerBackend` is that seam made explicit: the client library —
loader, plan executor, cost model — talks to the server exclusively through
this interface, so the same split plans run against

* :class:`~repro.server.inmemory.InMemoryBackend` — the in-process
  relational engine (`engine.Executor` over list-of-tuples), the default
  and the reference for equivalence testing;
* :class:`~repro.server.sqlite.SQLiteBackend` — a real SQLite database
  with `hom_agg` / `grp` / `searchswp` registered as Python UDFs, proving
  the "unmodified DBMS" claim on an actual engine.

Every backend reports the two quantities the cost ledger needs: bytes
scanned per query (fed to the disk model) and the per-table heap sizes
(fed to the planner's scan-cost estimates).  Byte accounting is *logical*
— `storage.rowcodec.row_bytes` over the values a row carries — so the two
backends charge identical scan bytes for identical data, keeping ledger
output backend-independent.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.common.errors import ConfigError
from repro.common.retry import Deadline, RetryPolicy, retry_call
from repro.engine.executor import ExecStats, ResultSet
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream
from repro.engine.schema import TableSchema
from repro.sql import ast
from repro.storage.ciphertext_store import CiphertextFile, CiphertextStore


class ServerBackend(ABC):
    """Abstract untrusted server: encrypted tables + ciphertext files + SQL."""

    #: Short backend identifier ("memory", "sqlite", ...) used by reports.
    kind: str = "abstract"

    # -- state the client library reads ------------------------------------

    ciphertext_store: CiphertextStore
    last_stats: ExecStats

    # -- loading ------------------------------------------------------------

    @abstractmethod
    def create_table(self, schema: TableSchema) -> None:
        """Create an (empty) encrypted table."""

    @abstractmethod
    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        """Bulk-insert encrypted rows (the loader's one write path)."""

    #: Whether a partially applied ``insert_rows`` batch is always a
    #: *prefix* of the requested rows.  True for single-store backends
    #: (their batch insert is transactional, so the committed count is 0
    #: or everything); the sharded backend commits per routed bucket and
    #: sets this False, telling :func:`insert_rows_idempotent` that a
    #: row-count delta cannot be resumed by slicing the batch.
    supports_prefix_resume: bool = True

    def add_ciphertext_file(self, file: CiphertextFile) -> None:
        """Install a packed-Paillier file for the ``hom_agg`` UDF."""
        self.ciphertext_store.add(file)

    def create_indexes(self, table_name: str, columns: Iterable[str]) -> None:
        """Build ordinary indexes on stored columns of a loaded table.

        Called once after the load with the DET join keys of the workload
        the designer saw (``core.loader.join_key_indexes``).  An index
        orders ciphertexts the server already stores: it changes access
        paths, never rows or scan accounting.  This default is a no-op —
        the in-memory engine hash-joins every key it is given and keeps no
        index.
        """

    # -- encrypted DML (PR 10) ----------------------------------------------
    #
    # The write surface the client-side DML executor drives.  Rows are
    # addressed by their *stored* encrypted tuples (the exact values a
    # prior fetch returned — RND ciphertexts are not reproducible, so
    # re-encryption can never be used as a match key).  Both operations
    # consume at most one stored match per requested tuple and are
    # state-idempotent: re-applying the same request after a partial
    # apply converges on the same final state (already-deleted tuples
    # match nothing; already-replaced tuples match nothing) — the
    # property the fault-model's retry discipline relies on.

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        """Delete one stored match per encrypted tuple; return the count
        actually removed."""
        raise ConfigError(
            f"backend {self.kind!r} does not support encrypted DML "
            "(delete_rows is not implemented)"
        )

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        """For each ``(old, new)`` pair replace one stored match of
        ``old`` with ``new`` in place; return the count replaced."""
        raise ConfigError(
            f"backend {self.kind!r} does not support encrypted DML "
            "(replace_rows is not implemented)"
        )

    # -- incremental hom maintenance (PR 10) --------------------------------
    #
    # Packed-Paillier files are maintained *in place* by ciphertext
    # multiplication: the client ships E(delta << slot_offset) factors
    # and the server multiplies them into the stored ciphertexts (it
    # only ever needs the public key).  ``token`` deduplicates retries:
    # hom multiplication is not idempotent, so the server remembers the
    # last applied token per file and silently skips a re-send — the
    # lost-ack-after-commit fault the chaos harness injects.

    def hom_apply(
        self,
        file_name: str,
        updates: Iterable[tuple[int, int]] = (),
        appended: Iterable[int] = (),
        num_rows: int | None = None,
        token: str | None = None,
    ) -> None:
        """Multiply ``updates`` ``(ciphertext_index, factor)`` pairs into
        the file, append whole new ciphertexts, and advance the logical
        row count.  Applied atomically with respect to readers of the
        store's file object (list mutation under the GIL)."""
        applied = getattr(self, "_hom_applied_tokens", None)
        if applied is None:
            applied = {}
            self._hom_applied_tokens = applied
        if token is not None and applied.get(file_name) == token:
            return
        file = self.ciphertext_store.get(file_name)
        public = file.public_key
        for index, factor in updates:
            if not 0 <= index < len(file.ciphertexts):
                raise ConfigError(f"hom_apply index {index} outside file {file_name!r}")
            file.ciphertexts[index] = public.add(file.ciphertexts[index], factor)
        appended = list(appended)
        if appended:
            file.ciphertexts.extend(appended)
        if num_rows is not None:
            file.num_rows = num_rows
        if token is not None:
            applied[file_name] = token

    def hom_file_info(self, file_name: str) -> dict:
        """Public packing metadata of one ciphertext file (widths and
        counts, never contents): what the DML executor needs to compute
        slot offsets and append positions client-side."""
        file = self.ciphertext_store.get(file_name)
        layout = file.layout
        return {
            "num_rows": file.num_rows,
            "num_ciphertexts": len(file.ciphertexts),
            "column_bits": tuple(layout.column_bits),
            "pad_bits": layout.pad_bits,
            "plaintext_bits": layout.plaintext_bits,
            "column_names": tuple(file.column_names),
        }

    def hom_read(self, file_name: str, indices: Iterable[int]) -> list[int]:
        """Read individual stored ciphertexts (charged to the scan
        ledger like any ``hom_agg`` read); the maintained-aggregate
        reader decrypts them client-side."""
        file = self.ciphertext_store.get(file_name)
        return [file.read(i) for i in indices]

    # -- introspection -------------------------------------------------------

    @abstractmethod
    def table_names(self) -> list[str]:
        """Names of the encrypted tables, sorted."""

    @abstractmethod
    def table_bytes(self, table_name: str) -> int:
        """Logical heap size of one table (rowcodec accounting)."""

    @property
    def total_bytes(self) -> int:
        """Total server-side footprint: table heaps + ciphertext files."""
        tables = sum(self.table_bytes(n) for n in self.table_names())
        return tables + self.ciphertext_store.total_bytes

    def has_table(self, table_name: str) -> bool:
        """True when the table already exists on this server."""
        return table_name in self.table_names()

    # -- resumable load support ----------------------------------------------
    #
    # The crash-safe loader (journal-driven resume) needs two extra
    # capabilities: counting the rows a half-finished load already
    # committed, and re-registering a table's schema against data that
    # survived a crash.  They are optional — backends that do not
    # implement them simply cannot resume (the loader falls back to a
    # fresh load), so third-party backends written against the older
    # contract keep working.

    def row_count(self, table_name: str) -> int:
        """Rows currently stored in one table."""
        raise ConfigError(
            f"backend {self.kind!r} does not support resumable loads "
            "(row_count is not implemented)"
        )

    def adopt_table(self, schema: TableSchema) -> None:
        """Re-register ``schema`` for a table whose data already exists.

        Used when resuming a crashed bulk load against durable storage:
        a fresh backend object must recover the schema registration and
        logical byte accounting for rows a previous process committed.
        """
        raise ConfigError(
            f"backend {self.kind!r} does not support resumable loads "
            "(adopt_table is not implemented)"
        )

    # -- query execution ------------------------------------------------------

    @abstractmethod
    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        """Run one server query, yielding column-major RowBlocks.

        This is the one read call of the seam.  ``params`` carries
        DET-encrypted IN sets for the multi-round-trip plans (consumed by
        ``in_set``).  Blocks hold *logical* values — big OPE/DET integers
        as Python ints, ``grp()`` results as tuples, ``hom_agg`` results
        as :class:`~repro.engine.aggregates.HomAggResult` — regardless of
        how the backend represents them at rest.  The stream's ``stats``
        carries the scan bytes (final once the stream is exhausted or
        closed), and the result header plus the sum of block payloads is
        the result's ``ResultSet.byte_size()``.  Engines with incremental
        cursors keep peak memory bounded by the block size; a blocking
        result may materialize and re-block.

        ``deadline`` is the query's.  A backend that can enforce it
        inside the request does: the network client caps its socket
        waits and the server checks it per block, and the sharded
        coordinator hands it to each shard.  An in-process store ignores
        it; the caller's :class:`~repro.engine.rowblock.ResilientStream`
        checks it between blocks.

        Contract: ciphertext-file reads (``hom_agg``) accrue on a
        backend-global counter windowed per stream, so streams of
        hom-reading queries must be consumed one at a time for exact
        scan-byte accounting; interleaving plain scans is fine.
        """

    def execute(
        self, query: ast.Select, params: dict[str, object] | None = None
    ) -> ResultSet:
        """:meth:`execute_stream` drained into one :class:`ResultSet`;
        :attr:`last_stats` is the finished stream's."""
        stream = self.execute_stream(query, params=params)
        try:
            rows = stream.drain_rows()
        finally:
            stream.close()
        self.last_stats = stream.stats
        return ResultSet(stream.columns, rows)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release what this backend or view holds (connections, sockets).

        A no-op here: an in-process store holds nothing to release.
        Owners (the client, the service, the network server, the shard
        coordinator) call it unconditionally.
        """

    # -- concurrent service access -------------------------------------------

    def worker_view(self) -> "ServerBackend":
        """A view of this backend one service worker thread may own.

        The service layer (:mod:`repro.service`) runs N sessions'
        queries on a thread pool over one shared backend; per-query state
        (``last_stats``, cursors) must not be shared between workers.
        This base implementation returns a :class:`LockScopedView`: every
        query runs under one backend-wide lock, so execution over the
        shared engine is serialized while each view keeps its own stats —
        correct for *any* backend, at the price of no server-side
        overlap.  Backends with per-connection isolation (SQLite over a
        shared-cache database) override this to return views that execute
        genuinely concurrently.

        Views share the parent's storage: tables loaded through any view
        or through the parent are visible to all.
        """
        with _VIEW_LOCK_GUARD:
            lock = getattr(self, "_worker_view_lock", None)
            if lock is None:
                lock = threading.Lock()
                self._worker_view_lock = lock
        return LockScopedView(self, lock)


#: Guards lazy creation of a backend's shared worker-view lock (the lock
#: attribute itself must not be racily created twice).
_VIEW_LOCK_GUARD = threading.Lock()


class DelegatingView(ServerBackend):
    """Shared worker-view plumbing: everything but execution delegates.

    Loading and introspection pass through to the parent backend (views
    share its storage; the loader runs before the service serves), and
    each view owns its ``last_stats``.  Subclasses define
    ``execute_stream`` — how queries execute is the only thing worker
    views differ in.
    """

    def __init__(self, parent: ServerBackend) -> None:
        self._parent = parent
        self.last_stats = ExecStats()

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self._parent.kind

    @property
    def ciphertext_store(self) -> CiphertextStore:  # type: ignore[override]
        return self._parent.ciphertext_store

    def worker_view(self) -> ServerBackend:
        return self._parent.worker_view()

    def create_table(self, schema: TableSchema) -> None:
        self._parent.create_table(schema)

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        self._parent.insert_rows(table_name, rows)

    def add_ciphertext_file(self, file: CiphertextFile) -> None:
        self._parent.add_ciphertext_file(file)

    def create_indexes(self, table_name: str, columns: Iterable[str]) -> None:
        self._parent.create_indexes(table_name, columns)

    @property
    def supports_prefix_resume(self) -> bool:  # type: ignore[override]
        return self._parent.supports_prefix_resume

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        return self._parent.delete_rows(table_name, rows)

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        return self._parent.replace_rows(table_name, pairs)

    def hom_apply(
        self,
        file_name: str,
        updates: Iterable[tuple[int, int]] = (),
        appended: Iterable[int] = (),
        num_rows: int | None = None,
        token: str | None = None,
    ) -> None:
        self._parent.hom_apply(
            file_name,
            updates=updates,
            appended=appended,
            num_rows=num_rows,
            token=token,
        )

    def hom_file_info(self, file_name: str) -> dict:
        return self._parent.hom_file_info(file_name)

    def hom_read(self, file_name: str, indices: Iterable[int]) -> list[int]:
        return self._parent.hom_read(file_name, indices)

    def table_names(self) -> list[str]:
        return self._parent.table_names()

    def table_bytes(self, table_name: str) -> int:
        return self._parent.table_bytes(table_name)

    def has_table(self, table_name: str) -> bool:
        return self._parent.has_table(table_name)

    def row_count(self, table_name: str) -> int:
        return self._parent.row_count(table_name)

    def adopt_table(self, schema: TableSchema) -> None:
        self._parent.adopt_table(schema)


class LockScopedView(DelegatingView):
    """Serializing worker view: one lock scopes every query on the parent.

    Each view carries its own ``last_stats`` (the parent's per-query
    mutable state is captured under the lock before another worker can
    overwrite it), so concurrent sessions read back exactly the stats of
    their own queries.  A query's parent stream is drained under the
    lock and its blocks handed on — holding the backend lock for as long
    as a consumer cares to keep a cursor open would let one slow session
    starve every other.
    """

    def __init__(self, parent: ServerBackend, lock: threading.Lock) -> None:
        super().__init__(parent)
        self._lock = lock

    # Writes lock too: the in-memory engine mutates shared row lists, so
    # a load overlapping an in-flight view query must serialize.

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            self._parent.create_table(schema)

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        with self._lock:
            self._parent.insert_rows(table_name, rows)

    def add_ciphertext_file(self, file: CiphertextFile) -> None:
        with self._lock:
            self._parent.add_ciphertext_file(file)

    def create_indexes(self, table_name: str, columns: Iterable[str]) -> None:
        with self._lock:
            self._parent.create_indexes(table_name, columns)

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        with self._lock:
            return self._parent.delete_rows(table_name, rows)

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        with self._lock:
            return self._parent.replace_rows(table_name, pairs)

    def hom_apply(
        self,
        file_name: str,
        updates: Iterable[tuple[int, int]] = (),
        appended: Iterable[int] = (),
        num_rows: int | None = None,
        token: str | None = None,
    ) -> None:
        with self._lock:
            self._parent.hom_apply(
                file_name,
                updates=updates,
                appended=appended,
                num_rows=num_rows,
                token=token,
            )

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        with self._lock:
            stream = self._parent.execute_stream(
                query, params=params, block_rows=block_rows, deadline=deadline
            )
            try:
                blocks = list(stream)
            finally:
                stream.close()
        self.last_stats = stream.stats
        return BlockStream(stream.columns, blocks, stream.stats)


def insert_rows_idempotent(
    backend: ServerBackend,
    table_name: str,
    rows: list[tuple],
    policy: RetryPolicy,
    rng: random.Random | None,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> None:
    """Insert ``rows`` exactly once, surviving faults on *either* side of
    the apply.

    A transient error can strike before the server applied anything — a
    plain retry is then safe — or **after** it committed (the lost-ack
    fault): a plain retry would double-insert the whole batch.  Each
    attempt therefore re-reads the backend's row count against the
    watermark captured before the first attempt and sends only what is
    actually missing:

    * delta == len(rows): the previous attempt fully applied; done.
    * delta == 0: nothing landed; send the full batch.
    * 0 < delta < len(rows): a partial apply.  Backends whose batch
      commit is a prefix of the request (``supports_prefix_resume``)
      resume from ``rows[delta:]``; for non-prefix backends (sharded:
      per-bucket commits) the committed subset is unknowable from a
      count, so this raises a fatal :class:`ConfigError` instead of
      silently corrupting the table — the caller must rebuild.

    The watermark assumes no other writer inserts into the table between
    attempts: the loader and the DML executor write alone, the server
    holds its write lock, and the sharded coordinator sends each bucket
    to one shard.  Backends without ``row_count`` fall back to the plain
    retry (their transactional insert makes delta-tracking unnecessary
    only if no fault can strike after commit).
    """
    rows = list(rows)
    if not rows:
        return
    try:
        watermark = backend.row_count(table_name)
    except ConfigError:
        watermark = None

    def attempt() -> None:
        to_send = rows
        if watermark is not None:
            delta = backend.row_count(table_name) - watermark
            if delta == len(rows):
                return  # Fully applied; only the ack was lost.
            if delta:
                if not getattr(backend, "supports_prefix_resume", True):
                    raise ConfigError(
                        f"insert into {table_name!r} partially applied "
                        f"({delta} of {len(rows)} rows) on a backend "
                        "without prefix commits; cannot resume safely"
                    )
                if not 0 < delta < len(rows):
                    raise ConfigError(
                        f"table {table_name!r} shrank or overshot during "
                        f"a retried insert (delta {delta} of {len(rows)})"
                    )
                to_send = rows[delta:]
        backend.insert_rows(table_name, to_send)

    retry_call(attempt, policy, rng=rng, on_retry=on_retry)


def as_backend(server: object) -> ServerBackend:
    """Adapt a raw :class:`~repro.engine.catalog.Database` (the pre-backend
    calling convention) or pass a backend through unchanged."""
    from repro.engine.catalog import Database
    from repro.server.inmemory import InMemoryBackend

    if isinstance(server, ServerBackend):
        return server
    if isinstance(server, Database):
        return InMemoryBackend(server)
    raise TypeError(f"cannot use {type(server).__name__} as a server backend")
