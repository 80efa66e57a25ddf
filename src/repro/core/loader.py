"""Database loader: encrypt a plaintext database under a physical design.

Produces the untrusted server's state (Figure 1's "Encrypted database"):

* one encrypted table per plaintext table, holding every encrypted column
  copy the design calls for (§7: "one or more copies of every column ...
  based on the number of encryption schemes chosen");
* a plain ``row_id`` column on tables that participate in homomorphic
  groups (§7), pointing into packed Paillier ciphertext files kept outside
  the tables.

Before loading, :func:`complete_design` guarantees every base column has at
least one client-decryptable representation (RND if nothing stronger was
requested) — MONOMI never stores plaintext on the server (§3).
"""

from __future__ import annotations

import os
import random
from typing import Iterable

from repro.common.errors import DesignError, LoadJournalError, PlanningError
from repro.common.retry import RetryPolicy
from repro.core.design import EncEntry, HomGroup, PhysicalDesign, normalize_expr
from repro.core.encset import _flatten
from repro.core.loadjournal import LoadJournal
from repro.core.encdata import CryptoProvider
from repro.core.rewrite import BindingContext
from repro.core.schemes import Scheme
from repro.core.typing import infer_type
from repro.crypto.packing import PackedLayout
from repro.engine.catalog import Database
from repro.engine.eval import EvalContext, Scope, compile_expr
from repro.engine.schema import ColumnDef, TableSchema
from repro.server.backend import insert_rows_idempotent
from repro.sql import ast, parse_expression

ROW_ID_COLUMN = "row_id"

#: Rows per committed insert on the journaled (crash-safe) load path.
DEFAULT_LOAD_BATCH_ROWS = 256


def complete_design(design: PhysicalDesign, plain_db: Database) -> PhysicalDesign:
    """Guarantee every base column has a cheap client-decryptable copy.

    The paper's prototype stores every column "with at most deterministic
    encryption" (§7): DET is the space-efficient fallback (FFX keeps
    integers integer-sized), which is what makes a space budget of S = 1
    equivalent to an all-DET database (§6.5).  Floats cannot go through
    FFX, so they fall back to RND.
    """
    completed = design.copy()
    for name, table in plain_db.tables.items():
        for col in table.schema.columns:
            expr_sql = normalize_expr(ast.Column(col.name))
            fetchable = {
                e.scheme
                for e in completed.entries
                if e.table == name
                and e.expr_sql == expr_sql
                and e.scheme in (Scheme.RND, Scheme.DET)
            }
            if not fetchable:
                scheme = Scheme.RND if col.type == "float" else Scheme.DET
                completed.add(name, ast.Column(col.name), scheme)
    return completed


def join_key_indexes(
    design: PhysicalDesign,
    workload: Iterable[ast.Select],
    schemas: dict[str, TableSchema],
) -> dict[str, tuple[str, ...]]:
    """The stored DET columns worth an index: every equi-join key.

    Walks each normalized statement — WHERE conjuncts, JOIN ON conditions,
    FROM and expression subqueries (a correlated column resolves to the
    outer query) — and maps both sides of every ``Column = Column``
    conjunct to its DET entry in ``design``, the completed design the
    loader stored.  A side without a DET copy, or one that resolves to no
    base table, adds nothing.  Returns ``{table: DET column names}``.
    """
    keys: dict[str, set[str]] = {}

    def add_key(column: ast.Column, bindings: BindingContext) -> None:
        try:
            resolved = bindings.resolve_column(column)
        except PlanningError:  # Ambiguous: the planner refuses it too.
            return
        if resolved is None:
            return
        table = resolved[1]
        entry = design.entry_for(table, ast.Column(column.name), Scheme.DET)
        if entry is not None:
            keys.setdefault(table, set()).add(entry.column_name)

    def visit(query: ast.Select, outer: BindingContext | None) -> None:
        conditions: list[ast.Expr] = []
        tables: dict[str, str] = {}
        bound: dict[str, TableSchema] = {}
        for ref in _flatten(query.from_items, conditions):
            if isinstance(ref, ast.SubqueryRef):
                visit(ref.query, None)
            elif ref.name in schemas:
                tables[ref.binding] = ref.name
                bound[ref.binding] = schemas[ref.name]
        bindings = BindingContext(tables, bound, parent=outer, registry=schemas)
        for conjunct in conditions + ast.conjuncts(query.where):
            if (
                isinstance(conjunct, ast.BinOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.Column)
                and isinstance(conjunct.right, ast.Column)
            ):
                add_key(conjunct.left, bindings)
                add_key(conjunct.right, bindings)
        exprs = [item.expr for item in query.items] + conditions
        exprs += [query.where, query.having, *query.group_by]
        exprs += [order.expr for order in query.order_by]
        for expr in exprs:
            if expr is not None:
                for sub in ast.find_subqueries(expr):
                    visit(sub, bindings)

    for query in workload:
        visit(query, None)
    return {table: tuple(sorted(names)) for table, names in sorted(keys.items())}


def server_column_type(entry: EncEntry, plain_type: str) -> str:
    """Engine column type for an encrypted column copy."""
    if entry.scheme is Scheme.RND:
        return "bytes"
    if entry.scheme is Scheme.OPE:
        return "int"
    if entry.scheme is Scheme.SEARCH:
        return "tagset"
    if entry.scheme is Scheme.DET:
        if plain_type in ("int", "bool", "date"):
            return "int"  # FFX keeps integers integers (zero expansion).
        # Text: short values FFX to integers, long values CMC to bytes.
        return "any"
    raise DesignError(f"no server column for scheme {entry.scheme}")


class EncryptedLoader:
    """Builds the encrypted server state behind a :class:`ServerBackend`."""

    def __init__(self, plain_db: Database, provider: CryptoProvider) -> None:
        self.plain_db = plain_db
        self.provider = provider
        # Transient insert faults (SQLITE_BUSY, injected chaos) retry here.
        # A fault can also strike *after* the batch committed (lost ack),
        # so retries go through `insert_rows_idempotent`: each attempt
        # checks the backend's row count against a pre-insert watermark
        # and re-sends only rows that actually went missing.
        self.retry_policy = RetryPolicy()
        self._retry_rng = random.Random(0x5EED)

    def load(self, design: PhysicalDesign) -> Database:
        """Encrypt into a fresh in-memory server (pre-backend convention)."""
        from repro.server.inmemory import InMemoryBackend

        backend = InMemoryBackend(Database(name=f"{self.plain_db.name}_enc"))
        self.load_into(backend, design)
        return backend.database

    def load_into(
        self,
        backend,
        design: PhysicalDesign,
        journal: LoadJournal | str | os.PathLike | None = None,
        batch_rows: int = DEFAULT_LOAD_BATCH_ROWS,
    ):
        """Encrypt the database under ``design`` into any backend.

        Without a ``journal``, each table materializes as one bulk insert
        (the backend's one write path — ``executemany`` for SQLite,
        ``insert_many`` in memory) and packed homomorphic groups install
        as ciphertext files.

        With a ``journal`` (a :class:`~repro.core.loadjournal.LoadJournal`
        or a directory path for one), the load becomes **crash-safe and
        resumable**: rows commit in ``batch_rows`` batches, progress is
        journaled after every commit, and packed Paillier files persist to
        the journal directory the moment they are encrypted.  Re-running
        the same call over the same journal after a crash encrypts only
        the rows the backend does not already hold — committed work is
        never re-encrypted and never double-inserted — and re-installs
        saved ciphertext files without repeating the Paillier packing.
        """
        design = complete_design(design, self.plain_db)
        if journal is None:
            for table_name in sorted(self.plain_db.tables):
                self._load_table(backend, table_name, design)
            return backend
        if not isinstance(journal, LoadJournal):
            journal = LoadJournal(journal)
        fingerprint = f"{self.plain_db.name}:{design.fingerprint()}"
        journal.begin(fingerprint)
        for table_name in sorted(self.plain_db.tables):
            self._load_table_journaled(backend, table_name, design, journal, batch_rows)
        journal.note_load_done()
        return backend

    # -- per-table -----------------------------------------------------------

    def _table_layout(self, table_name: str, design: PhysicalDesign):
        """Everything the load of one table derives from the design:
        (plain table, non-HOM entries, parsed exprs, hom groups,
        encrypted schema, evaluation scope)."""
        plain = self.plain_db.table(table_name)
        schemas = {table_name: plain.schema}
        entries = [
            e for e in design.table_entries(table_name) if e.scheme is not Scheme.HOM
        ]
        hom_groups = [g for g in design.hom_groups if g.table == table_name]

        columns: list[ColumnDef] = []
        exprs: list[ast.Expr] = []
        for entry in entries:
            expr = parse_expression(entry.expr_sql)
            plain_type = infer_type(expr, schemas)
            columns.append(
                ColumnDef(entry.column_name, server_column_type(entry, plain_type))
            )
            exprs.append(expr)
        if hom_groups:
            columns.append(ColumnDef(ROW_ID_COLUMN, "int"))

        enc_schema = TableSchema(name=table_name, columns=tuple(columns))
        scope = Scope([(table_name, c) for c in plain.schema.column_names])
        return plain, entries, exprs, hom_groups, enc_schema, scope

    def _encrypt_span(
        self,
        plain,
        entries,
        exprs,
        scope: Scope,
        start: int,
        stop: int,
        with_row_id: bool,
    ) -> list[tuple]:
        """Encrypt rows ``[start, stop)`` of ``plain`` into server tuples.

        Columnar within the span: evaluate each design expression over the
        span (compiled once), encrypt the resulting plaintext column
        through the batch crypto APIs (one scheme dispatch per column),
        then transpose back to rows.
        """
        ctx = EvalContext()
        span = plain.rows[start:stop]
        enc_columns: list[list] = []
        for entry, expr in zip(entries, exprs):
            fn = compile_expr(expr, scope, ctx)
            plain_column = [fn(row) for row in span]
            enc_columns.append(self._encrypt_column(plain_column, entry.scheme))
        if with_row_id:
            enc_columns.append(list(range(start, stop)))
        if enc_columns:
            return list(zip(*enc_columns))
        return [() for _ in span]

    def _insert_with_retry(self, backend, table_name: str, rows: list[tuple]) -> None:
        insert_rows_idempotent(
            backend, table_name, rows, self.retry_policy, self._retry_rng
        )

    def _load_table(self, backend, table_name: str, design: PhysicalDesign) -> None:
        plain, entries, exprs, hom_groups, enc_schema, scope = self._table_layout(
            table_name, design
        )
        backend.create_table(enc_schema)
        rows = self._encrypt_span(
            plain, entries, exprs, scope, 0, plain.num_rows, bool(hom_groups)
        )
        self._insert_with_retry(backend, table_name, rows)
        for group in hom_groups:
            file = self._build_hom_file(group, plain, scope)
            backend.add_ciphertext_file(file)

    def _load_table_journaled(
        self,
        backend,
        table_name: str,
        design: PhysicalDesign,
        journal: LoadJournal,
        batch_rows: int,
    ) -> None:
        plain, entries, exprs, hom_groups, enc_schema, scope = self._table_layout(
            table_name, design
        )
        # The backend is the source of truth for what survived a crash:
        # its committed row count, not the journal's watermark, decides
        # where encryption resumes (the journal may trail by one batch if
        # the crash hit between commit and journal append — resuming from
        # the backend count neither re-encrypts nor double-inserts).
        if backend.has_table(table_name):
            backend.adopt_table(enc_schema)
        else:
            backend.create_table(enc_schema)
        journal.note_table_created(table_name)

        done = backend.row_count(table_name)
        if done > plain.num_rows:
            raise LoadJournalError(
                f"table {table_name!r} holds {done} rows but the plaintext "
                f"has only {plain.num_rows} — journal/backend mismatch"
            )
        with_row_id = bool(hom_groups)
        for start in range(done, plain.num_rows, batch_rows):
            stop = min(start + batch_rows, plain.num_rows)
            rows = self._encrypt_span(
                plain, entries, exprs, scope, start, stop, with_row_id
            )
            self._insert_with_retry(backend, table_name, rows)
            journal.note_batch(table_name, stop)
        journal.note_table_done(table_name)

        # Homomorphic files re-install even for already-done tables: some
        # backends keep the ciphertext store in process memory, so a fresh
        # process resuming the load must put the saved files back.
        store = backend.ciphertext_store
        for group in hom_groups:
            if group.file_name in store.names():
                continue
            file = journal.load_hom(group.file_name)
            if file is None:
                file = self._build_hom_file(group, plain, scope)
                journal.save_hom(file)
            backend.add_ciphertext_file(file)

    def _encrypt_column(self, values: list, scheme: Scheme) -> list:
        if scheme is Scheme.SEARCH:
            for value in values:
                if value is not None and not isinstance(value, str):
                    raise DesignError("SEARCH applies to text columns only")
            return self.provider.search_encrypt_batch(values)
        return self.provider.encrypt_batch(values, scheme.value)

    # -- homomorphic groups ------------------------------------------------------

    def _build_hom_file(self, group: HomGroup, plain, scope: Scope):
        from repro.storage.ciphertext_store import CiphertextFile

        ctx = EvalContext()
        exprs = [parse_expression(sql) for sql in group.expr_sqls]
        fns = [compile_expr(expr, scope, ctx) for expr in exprs]
        # Gather plaintext values (None -> 0: additive identity).
        matrix: list[list[int]] = [[] for _ in plain.rows]
        for expr, fn in zip(exprs, fns):
            for values, row in zip(matrix, plain.rows):
                value = fn(row)
                if value is None:
                    value = 0
                elif not isinstance(value, int) or isinstance(value, bool):
                    raise DesignError(
                        f"homomorphic column {group.table}:{expr!r} must be "
                        f"integer-valued, got {value!r}"
                    )
                elif value < 0:
                    raise DesignError(
                        "homomorphic packing requires non-negative values "
                        f"(got {value} in {group.table})"
                    )
                values.append(value)

        column_bits = tuple(
            max(1, max((row[i] for row in matrix), default=0).bit_length())
            for i in range(len(exprs))
        )
        pad_bits = max(4, plain.num_rows.bit_length())
        public = self.provider.paillier_public
        layout = PackedLayout(
            column_bits=column_bits,
            pad_bits=pad_bits,
            plaintext_bits=public.plaintext_bits,
        )
        rows_per_ct = min(group.rows_per_ciphertext, layout.rows_per_ciphertext)
        layout = PackedLayout(
            column_bits=column_bits,
            pad_bits=pad_bits,
            plaintext_bits=min(public.plaintext_bits, layout.row_bits * rows_per_ct),
        )
        file = CiphertextFile(
            name=group.file_name,
            public_key=public,
            layout=layout,
            column_names=group.expr_sqls,
            num_rows=plain.num_rows,
        )
        plaintexts = [
            layout.encode_rows(matrix[start : start + rows_per_ct])
            for start in range(0, len(matrix), rows_per_ct)
        ]
        # Bulk Paillier: fixed-base randomness pool instead of a full-width
        # r^n exponentiation per ciphertext (~15x at 2,048-bit keys).
        file.ciphertexts.extend(self.provider.paillier_encrypt_batch(plaintexts))
        return file
