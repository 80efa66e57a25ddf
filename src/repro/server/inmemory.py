"""The default backend: the in-process relational engine over Python rows.

Wraps one :class:`~repro.engine.catalog.Database` plus an
:class:`~repro.engine.executor.Executor` behind the
:class:`~repro.server.backend.ServerBackend` interface.  Behavior is
identical to the pre-backend code path — same executor, same scan
accounting — which makes this backend the reference side of the
cross-backend equivalence harness.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.retry import Deadline
from repro.engine.catalog import Database
from repro.engine.executor import ExecStats, Executor
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream
from repro.engine.schema import TableSchema
from repro.server.backend import ServerBackend
from repro.sql import ast


class InMemoryBackend(ServerBackend):
    """`engine.Executor` over list-of-tuples tables, as a backend."""

    kind = "memory"

    def __init__(self, database: Database | None = None, name: str = "server") -> None:
        self.database = database if database is not None else Database(name)
        self.executor = Executor(self.database)
        self.last_stats = ExecStats()

    # -- loading ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.database.create_table(schema)

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        self.database.table(table_name).insert_many(rows)

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        return self.database.table(table_name).delete_exact(rows)

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        return self.database.table(table_name).replace_exact(pairs)

    # -- introspection -------------------------------------------------------

    @property
    def ciphertext_store(self):
        return self.database.ciphertext_store

    def table_names(self) -> list[str]:
        return sorted(self.database.tables)

    def table_bytes(self, table_name: str) -> int:
        return self.database.table(table_name).total_bytes

    # -- resumable load support ----------------------------------------------
    #
    # In-memory tables die with the process, so cross-process resume never
    # finds data here; these exist for *same-process* resume (a load that
    # failed transiently partway and is re-driven over the same backend
    # object), where the catalog still holds everything.

    def row_count(self, table_name: str) -> int:
        return len(self.database.table(table_name).rows)

    def adopt_table(self, schema: TableSchema) -> None:
        # The catalog registration *is* the table: nothing to rebuild.
        self.database.table(schema.name)

    # -- query execution ------------------------------------------------------

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        stream = self.executor.execute_stream(
            query, params=params, block_rows=block_rows
        )
        self.last_stats = stream.stats
        return stream

    # -- concurrent service access ---------------------------------------------

    def worker_view(self) -> ServerBackend:
        """Lock-scoped executor access (the base :class:`LockScopedView`).

        The in-process engine is single-threaded state — ``Executor``
        mutates ``last_stats`` and walks shared list-of-tuples tables —
        so service workers serialize on one backend-wide lock, each view
        keeping its own per-query stats.  This is the documented
        in-memory concurrency mode: correct under any interleaving, no
        intra-server overlap (use the SQLite backend when concurrent
        sessions should overlap inside the server itself).
        """
        return super().worker_view()
