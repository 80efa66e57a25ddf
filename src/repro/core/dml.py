"""Client-side encrypted DML: INSERT / UPDATE / DELETE over ciphertexts.

The paper's prototype is read-only after the bulk load; this module extends
the split client/server model to incremental writes while preserving its
trust boundary: the server never sees plaintext, and every write it receives
went through the same batch-encrypt pipeline as the loader.

Three states stay in lockstep per statement:

* the **encrypted tables** — new rows encrypted columnar through the
  provider's batch APIs and shipped via the backend's state-idempotent
  write surface (``insert_rows`` behind the row-count watermark,
  ``delete_rows``/``replace_rows`` keyed by exact stored tuples);
* the **packed Paillier files** — patched *in place* by ciphertext
  multiplication: a slot delta ``d`` becomes one multiply by
  ``E(d · 2^slot_offset mod n)``; negative deltas ride the modular
  complement, exact because the packed plaintext always stays below ``n``.
  Deleted rows' slots are zeroed so the maintained file is byte-equivalent
  to re-encrypting from scratch (``hom_agg`` never reads dead slots, but
  the equivalence is what the maintenance tests pin);
* the **plaintext mirror** — the client's ``plain_db`` copy that feeds
  the planner's statistics.

UPDATE/DELETE cannot re-derive stored ciphertexts client-side (RND is
randomized), so they address rows by the exact tuples the server stores —
and fetch only the ones the statement can touch.  Each conjunct of the
WHERE that ``ServerRewriter.rewrite_predicate`` accepts over the client's
design *and* that ciphertexts decide exactly (DET equality, OPE order on
integers and dates — not SEARCH's word containment, not OPE's 10-byte text
prefix) becomes a filter on stored columns with encrypted constants and
runs on the server, the way a SELECT's would.  That filter only narrows
the fetch: the whole WHERE is evaluated here, on plaintext, over the
candidates that came back, so a write touches exactly the rows the
plaintext statement touches.  A column of a candidate is decrypted only if
the WHERE reads it or the row turns out to be affected (one fetchable copy
per column: DET preferred, then RND, then OPE — ``complete_design``
guarantees one exists); affected rows are decrypted whole, because the
mirror, the listeners and the hom deltas need them whole.  A statement
without a WHERE, or with one the design cannot serve, is the same path
with an empty server predicate.  A write reveals what a SELECT with the
pushed conjuncts reveals, plus the write itself
(``docs/security-model.md``).

An UPDATE then re-encrypts only the design entries whose expression reads
an assigned column and echoes every other fetched ciphertext — the hom row
id included — back verbatim.  All writes retry under the transient-fault
policy: inserts resume from the watermark, deletes and replaces are
state-idempotent, and homomorphic patches carry a dedup token so a lost
ack never applies a delta twice.
"""

from __future__ import annotations

import itertools
import os
import random

from repro.common.errors import ConfigError, DesignError, UnsupportedQueryError
from repro.common.ledger import CostLedger
from repro.common.retry import RetryPolicy, retry_call
from repro.core.loader import EncryptedLoader, complete_design
from repro.core.rewrite import BindingContext, ServerRewriter
from repro.core.schemes import Scheme
from repro.core.typing import infer_type
from repro.crypto.packing import PackedLayout
from repro.engine.eval import EvalContext, Scope, compile_expr
from repro.engine.executor import ResultSet
from repro.server.backend import insert_rows_idempotent
from repro.sql import ast, parse_expression
from repro.storage.rowcodec import row_bytes

#: Scheme preference when decrypting a fetched column copy: DET is
#: integer-sized and cheap, RND is the universal fallback, OPE works but
#: is the most expensive to have materialized.
_FETCH_RANK = {Scheme.DET: 0, Scheme.RND: 1, Scheme.OPE: 2}


class DmlExecutor:
    """Runs normalized DML statements for one :class:`MonomiClient`.

    Holds no state beyond retry plumbing and the completed design; safe to
    rebuild at any time.  ``listeners`` (e.g. maintained aggregates, see
    :mod:`repro.core.incagg`) receive ``on_change(table, inserted,
    deleted)`` with plaintext rows after each successful statement.
    """

    def __init__(self, client, backend=None) -> None:
        self.client = client
        self.plain_db = client.plain_db
        self.provider = client.provider
        # ``backend`` override: the service layer binds DML to a worker
        # view so each backend call serializes against concurrent readers.
        self.backend = backend if backend is not None else client.backend
        self.network = client.network
        # The loader completed the design before encrypting (every base
        # column got a fetchable copy); DML must see those same columns.
        self.design = complete_design(client.design, client.plain_db)
        self._loader = EncryptedLoader(client.plain_db, client.provider)
        self.retry_policy = RetryPolicy()
        self._retry_rng = random.Random(0xD331)
        self._token_prefix = os.urandom(6).hex()
        self._token_seq = itertools.count()
        self.listeners: list = []

    # -- entry point -----------------------------------------------------------

    def execute(self, statement) -> tuple[ResultSet, CostLedger]:
        ledger = CostLedger()
        if isinstance(statement, ast.Insert):
            count = self._insert(statement, ledger)
        elif isinstance(statement, ast.Update):
            count = self._update(statement, ledger)
        elif isinstance(statement, ast.Delete):
            count = self._delete(statement, ledger)
        else:
            raise UnsupportedQueryError(f"not a DML statement: {statement!r}")
        return ResultSet(["rows_affected"], [(count,)]), ledger

    # -- INSERT ----------------------------------------------------------------

    def _insert(self, stmt: ast.Insert, ledger: CostLedger) -> int:
        plain, entries, exprs, hom_groups, _, scope = self._layout(stmt.table)
        new_rows = self._literal_rows(stmt, plain.schema)
        if not new_rows:
            return 0
        for row in new_rows:
            plain._validate(row)  # Reject bad types before anything ships.
        with ledger.timing_client():
            enc_rows = self._encrypt_rows(new_rows, entries, exprs, scope)
            patches = []
            if hom_groups:
                # row_ids continue from the hom files' row space, which
                # never shrinks under DELETE (slots are zeroed, not
                # compacted) — the table's row count is NOT the base.
                base = self.backend.hom_file_info(hom_groups[0].file_name)["num_rows"]
                enc_rows = [
                    row + (rid,)
                    for row, rid in zip(enc_rows, range(base, base + len(new_rows)))
                ]
                patches = [
                    self._hom_insert_patch(group, new_rows, base, scope)
                    for group in hom_groups
                ]
        self._charge_rows(ledger, enc_rows)
        insert_rows_idempotent(
            self.backend,
            stmt.table,
            enc_rows,
            self.retry_policy,
            self._retry_rng,
            on_retry=lambda _attempt, _exc: self._count_retry(ledger),
        )
        for group, patch in zip(hom_groups, patches):
            self._apply_hom(group, patch, ledger)
        plain.insert_many(new_rows)
        self._notify(stmt.table, inserted=new_rows, deleted=[])
        return len(new_rows)

    def _literal_rows(self, stmt: ast.Insert, schema) -> list[tuple]:
        names = list(schema.column_names)
        if stmt.columns:
            positions = []
            for col in stmt.columns:
                if col not in names:
                    raise ConfigError(
                        f"unknown column {col!r} in INSERT into {stmt.table!r}"
                    )
                positions.append(names.index(col))
            if len(set(positions)) != len(positions):
                raise ConfigError(f"duplicate column in INSERT into {stmt.table!r}")
        else:
            positions = list(range(len(names)))
        ctx = EvalContext()
        empty = Scope([])
        rows: list[tuple] = []
        for value_row in stmt.rows:
            if len(value_row) != len(positions):
                raise ConfigError(
                    f"INSERT into {stmt.table!r}: {len(value_row)} values "
                    f"for {len(positions)} columns"
                )
            filled: list = [None] * len(names)
            for pos, expr in zip(positions, value_row):
                filled[pos] = compile_expr(expr, empty, ctx)(())
            rows.append(tuple(filled))
        return rows

    # -- UPDATE ----------------------------------------------------------------

    def _update(self, stmt: ast.Update, ledger: CostLedger) -> int:
        plain, entries, exprs, hom_groups, enc_schema, scope = self._layout(stmt.table)
        names = list(plain.schema.column_names)
        for a in stmt.assignments:
            if a.column not in names:
                raise ConfigError(
                    f"unknown column {a.column!r} in UPDATE {stmt.table!r}"
                )
        stored, plain_rows = self._fetch_decrypted(
            stmt.table, plain, entries, exprs, enc_schema, ledger, stmt.where
        )
        matched = [i for i, row in enumerate(plain_rows) if row is not None]
        if not matched:
            return 0
        ctx = EvalContext()
        assign_fns = [
            (names.index(a.column), compile_expr(a.value, scope, ctx))
            for a in stmt.assignments
        ]
        old_plain = [plain_rows[i] for i in matched]
        new_plain: list[tuple] = []
        for row in old_plain:
            out = list(row)
            for idx, fn in assign_fns:
                out[idx] = fn(row)  # SQL semantics: RHS sees the old row.
            candidate = tuple(out)
            plain._validate(candidate)
            new_plain.append(candidate)
        # Only the design entries that read an assigned column can change;
        # every other cell goes back as the ciphertext that was fetched
        # (the row id, last when the table has hom files, among them).
        assigned = {a.column for a in stmt.assignments}
        changed = [
            pos
            for pos, expr in enumerate(exprs)
            if assigned & {c.name for c in ast.find_columns(expr)}
        ]
        with ledger.timing_client():
            fresh = self._encrypt_rows(
                new_plain,
                [entries[pos] for pos in changed],
                [exprs[pos] for pos in changed],
                scope,
            )
            new_enc: list[tuple] = []
            for i, cells in zip(matched, fresh):
                row = list(stored[i])
                for pos, cell in zip(changed, cells):
                    row[pos] = cell
                new_enc.append(tuple(row))
            patches = []
            if hom_groups:
                row_ids = [stored[i][-1] for i in matched]
                patches = [
                    self._hom_delta_patch(group, old_plain, new_plain, row_ids, scope)
                    for group in hom_groups
                ]
        pairs = [(stored[i], new) for i, new in zip(matched, new_enc)]
        self._charge_rows(ledger, [new for _, new in pairs])
        self._retrying(ledger, lambda: self.backend.replace_rows(stmt.table, pairs))
        for group, patch in zip(hom_groups, patches):
            self._apply_hom(group, patch, ledger)
        plain.replace_exact(list(zip(old_plain, new_plain)))
        self._notify(stmt.table, inserted=new_plain, deleted=old_plain)
        return len(matched)

    # -- DELETE ----------------------------------------------------------------

    def _delete(self, stmt: ast.Delete, ledger: CostLedger) -> int:
        plain, entries, exprs, hom_groups, enc_schema, scope = self._layout(stmt.table)
        stored, plain_rows = self._fetch_decrypted(
            stmt.table, plain, entries, exprs, enc_schema, ledger, stmt.where
        )
        matched = [i for i, row in enumerate(plain_rows) if row is not None]
        if not matched:
            return 0
        old_enc = [stored[i] for i in matched]
        old_plain = [plain_rows[i] for i in matched]
        patches = []
        if hom_groups:
            with ledger.timing_client():
                row_ids = [stored[i][-1] for i in matched]
                patches = [
                    self._hom_delta_patch(group, old_plain, None, row_ids, scope)
                    for group in hom_groups
                ]
        self._charge_rows(ledger, old_enc)
        self._retrying(ledger, lambda: self.backend.delete_rows(stmt.table, old_enc))
        for group, patch in zip(hom_groups, patches):
            self._apply_hom(group, patch, ledger)
        plain.delete_exact(old_plain)
        self._notify(stmt.table, inserted=[], deleted=old_plain)
        return len(matched)

    # -- shared plumbing -------------------------------------------------------

    def _layout(self, table_name: str):
        if table_name not in self.plain_db.tables:
            raise ConfigError(f"unknown table {table_name!r}")
        return self._loader._table_layout(table_name, self.design)

    def _encrypt_rows(self, plain_rows, entries, exprs, scope) -> list[tuple]:
        """Columnar encrypt: one compiled expression + one batch-crypto
        dispatch per design entry, then transpose back to rows."""
        ctx = EvalContext()
        columns: list[list] = []
        for entry, expr in zip(entries, exprs):
            fn = compile_expr(expr, scope, ctx)
            values = [fn(row) for row in plain_rows]
            columns.append(self._loader._encrypt_column(values, entry.scheme))
        if columns:
            return list(zip(*columns))
        return [() for _ in plain_rows]

    def _fetch_decrypted(
        self, table_name, plain, entries, exprs, enc_schema, ledger, where=None
    ) -> tuple[list[tuple], list[tuple | None]]:
        """Fetch the stored rows that can satisfy ``where`` and decrypt the
        ones that do.

        Returns ``(stored, plain_rows)``, aligned: ``stored`` holds the
        candidates the server's share of the predicate let through, as
        the backend's exact tuples (RND is not reproducible client-side,
        so deletes/replaces echo these values back verbatim to identify
        rows); ``plain_rows[i]`` is the whole plaintext row when candidate
        ``i`` satisfies ``where``, else None.  The whole WHERE is
        evaluated here on plaintext, pushed conjuncts included — the
        server's share only narrows what is fetched, it never decides what
        is written.  A column is decrypted for every candidate only if the
        WHERE reads it, otherwise for the accepted rows only.  Without a
        WHERE every row comes back whole.
        """
        pushed = self._server_predicate(table_name, plain.schema, entries, exprs, where)
        query = ast.Select(
            items=tuple(ast.SelectItem(ast.Column(c.name)) for c in enc_schema.columns),
            from_items=(ast.TableName(table_name),),
            where=pushed,
        )
        result = self._retrying(ledger, lambda: self.backend.execute(query))
        stored = [tuple(row) for row in result.rows]
        ledger.server_bytes_scanned += self.backend.table_bytes(table_name)
        ledger.add_transfer(result.byte_size(), self.network)
        with ledger.timing_client():
            columns = plain.schema.columns

            def decrypt(col, rows) -> list:
                pos, entry = self._fetchable_entry(entries, exprs, col.name)
                return self.provider.decrypt_batch(
                    [row[pos] for row in rows], entry.scheme.value, col.type
                )

            accepted = list(range(len(stored)))
            probed: dict[int, list] = {}
            if where is not None:
                read = {c.name for c in ast.find_columns(where)}
                probed = {
                    index: decrypt(col, stored)
                    for index, col in enumerate(columns)
                    if col.name in read
                }
                scope = Scope([(table_name, c.name) for c in columns])
                fn = compile_expr(where, scope, EvalContext())
                partial: list = [None] * len(columns)
                accepted = []
                for i in range(len(stored)):
                    for index, values in probed.items():
                        partial[index] = values[i]
                    if fn(tuple(partial)):
                        accepted.append(i)
            kept = [stored[i] for i in accepted]
            whole: list[list] = []
            for index, col in enumerate(columns):
                if index in probed:
                    whole.append([probed[index][i] for i in accepted])
                else:
                    whole.append(decrypt(col, kept))
            plain_rows: list[tuple | None] = [None] * len(stored)
            for i, values in zip(accepted, zip(*whole)):
                plain_rows[i] = tuple(values)
        return stored, plain_rows

    def _server_predicate(
        self, table_name: str, schema, entries, exprs, where
    ) -> ast.Expr | None:
        """The conjuncts of a write's WHERE the server can decide exactly.

        A conjunct is pushed when the rewriter SELECT uses accepts it over
        the design the planner sees — ``client.design``, not the loader's
        completed one — so a write filters on exactly the ciphertext
        columns, with exactly the encrypted constants, that a SELECT with
        the same WHERE would.  Conjuncts that read no column of the table,
        or hold a subquery, stay on the client.  So does any conjunct the
        server would answer only approximately: SEARCH tags are word
        containment, and OPE over text orders a ``_STR_PREFIX_BYTES``
        prefix, so either can drop a row the plaintext WHERE matches —
        and a dropped candidate is one no client-side re-check brings back.
        """
        schemas = {table_name: schema}
        inexact = {
            entry.column_name
            for entry, expr in zip(entries, exprs)
            if entry.scheme is Scheme.SEARCH
            or (entry.scheme is Scheme.OPE and infer_type(expr, schemas) == "text")
        }
        bindings = BindingContext(
            {table_name: table_name}, schemas, registry=self.client.schemas
        )
        rewriter = ServerRewriter(self.client.design, self.provider, bindings)
        pushed: list[ast.Expr] = []
        for conjunct in ast.conjuncts(where):
            columns = ast.find_columns(conjunct)
            if (
                not columns
                or any(bindings.resolve_column(c) is None for c in columns)
                or ast.find_subqueries(conjunct)
            ):
                continue
            rewritten = rewriter.rewrite_predicate(conjunct)
            if rewritten is not None and not any(
                c.name in inexact for c in ast.find_columns(rewritten)
            ):
                pushed.append(rewritten)
        return ast.conjoin(pushed)

    def _fetchable_entry(self, entries, exprs, column_name: str):
        best = None
        for pos, (entry, expr) in enumerate(zip(entries, exprs)):
            if (
                isinstance(expr, ast.Column)
                and expr.name == column_name
                and entry.scheme in _FETCH_RANK
            ):
                rank = _FETCH_RANK[entry.scheme]
                if best is None or rank < _FETCH_RANK[best[1].scheme]:
                    best = (pos, entry)
        if best is None:
            raise DesignError(
                f"no decryptable copy of column {column_name!r} "
                "(complete_design should have added one)"
            )
        return best

    def _charge_rows(self, ledger: CostLedger, rows) -> None:
        ledger.add_transfer(sum(4 + row_bytes(row) for row in rows), self.network)

    @staticmethod
    def _count_retry(ledger: CostLedger) -> None:
        ledger.retries += 1

    def _retrying(self, ledger: CostLedger, call):
        """Run one backend call under the client hop's retry loop, counting
        each retry in ``ledger``."""
        return retry_call(
            call,
            self.retry_policy,
            rng=self._retry_rng,
            on_retry=lambda _attempt, _exc: self._count_retry(ledger),
        )

    def _notify(self, table: str, inserted, deleted) -> None:
        for listener in self.listeners:
            listener.on_change(table, inserted=inserted, deleted=deleted)

    # -- homomorphic maintenance ----------------------------------------------

    def _hom_facts(self, group):
        info = self.backend.hom_file_info(group.file_name)
        layout = PackedLayout(
            column_bits=tuple(info["column_bits"]),
            pad_bits=info["pad_bits"],
            plaintext_bits=info["plaintext_bits"],
        )
        return info, layout

    def _group_values(self, group, plain_rows, scope) -> list[list[int]]:
        """Packed-column plaintext matrix for rows (None -> 0, the
        additive identity — mirrors the loader's packing rules)."""
        ctx = EvalContext()
        matrix: list[list[int]] = [[] for _ in plain_rows]
        for sql in group.expr_sqls:
            fn = compile_expr(parse_expression(sql), scope, ctx)
            for values, row in zip(matrix, plain_rows):
                value = fn(row)
                if value is None:
                    value = 0
                if not isinstance(value, int) or isinstance(value, bool):
                    raise DesignError(
                        f"homomorphic column {group.table}:{sql!r} must be "
                        f"integer-valued, got {value!r}"
                    )
                if value < 0:
                    raise DesignError(
                        "homomorphic packing requires non-negative values "
                        f"(got {value} in {group.table})"
                    )
                values.append(value)
        return matrix

    def _check_widths(self, group, layout: PackedLayout, matrix) -> None:
        for row in matrix:
            for c, value in enumerate(row):
                if value.bit_length() > layout.column_bits[c]:
                    raise DesignError(
                        f"value {value} overflows packed column "
                        f"{group.expr_sqls[c]!r} ({layout.column_bits[c]} "
                        f"bits) in {group.file_name!r}; the layout is frozen "
                        "at load time — reload to widen it"
                    )

    def _hom_insert_patch(self, group, new_rows, base: int, scope) -> dict:
        """Slot patches + whole new ciphertexts for appended rows.

        Rows landing inside the existing partial last ciphertext become a
        multiply (empty slots encrypt zero by construction, so adding the
        value *sets* the slot); rows past its capacity pack into fresh
        ciphertexts, aligned at slot 0.
        """
        info, layout = self._hom_facts(group)
        if info["num_rows"] != base:
            raise DesignError(
                f"hom files of table {group.table!r} disagree on row count "
                f"({info['num_rows']} vs {base}) — store is corrupt"
            )
        matrix = self._group_values(group, new_rows, scope)
        self._check_widths(group, layout, matrix)
        rows_per_ct = layout.rows_per_ciphertext
        new_total = base + len(new_rows)
        if new_total > layout.max_safe_rows():
            raise DesignError(
                f"hom file {group.file_name!r} would exceed its overflow "
                f"headroom ({layout.max_safe_rows()} rows); reload with "
                "larger pad_bits"
            )
        capacity = info["num_ciphertexts"] * rows_per_ct
        boundary = min(len(matrix), max(0, capacity - base))
        update_plain: dict[int, int] = {}
        for offset in range(boundary):
            row_id = base + offset
            ct_index, slot = divmod(row_id, rows_per_ct)
            patch = 0
            for c, value in enumerate(matrix[offset]):
                patch += value << layout.slot_offset(slot, c)
            if patch:
                update_plain[ct_index] = update_plain.get(ct_index, 0) + patch
        tail = matrix[boundary:]
        appended_plain = [
            layout.encode_rows(tail[i : i + rows_per_ct])
            for i in range(0, len(tail), rows_per_ct)
        ]
        indices = sorted(update_plain)
        ciphertexts = self.provider.paillier_encrypt_batch(
            [update_plain[i] for i in indices] + appended_plain
        )
        updates = list(zip(indices, ciphertexts[: len(indices)]))
        return {
            "updates": updates,
            "appended": ciphertexts[len(indices) :],
            "num_rows": new_total,
        }

    def _hom_delta_patch(self, group, old_rows, new_rows, row_ids, scope) -> dict:
        """In-place slot deltas for UPDATE (new - old) or DELETE (zero out).

        One multiply per touched ciphertext: per-row deltas for the rows it
        covers are summed into a single patch plaintext.  Negative deltas
        use the modular complement — exact, because the packed plaintext
        after the patch is again a valid packing below ``n``.
        """
        _, layout = self._hom_facts(group)
        old_matrix = self._group_values(group, old_rows, scope)
        if new_rows is None:
            new_matrix = [[0] * len(group.expr_sqls) for _ in old_rows]
        else:
            new_matrix = self._group_values(group, new_rows, scope)
            self._check_widths(group, layout, new_matrix)
        n = self.provider.paillier_public.n
        deltas: dict[int, int] = {}
        for row_id, old, new in zip(row_ids, old_matrix, new_matrix):
            ct_index, slot = divmod(row_id, layout.rows_per_ciphertext)
            patch = 0
            for c, (old_value, new_value) in enumerate(zip(old, new)):
                patch += (new_value - old_value) << layout.slot_offset(slot, c)
            if patch:
                deltas[ct_index] = deltas.get(ct_index, 0) + patch
        update_plain = {i: p % n for i, p in deltas.items() if p % n}
        indices = sorted(update_plain)
        ciphertexts = self.provider.paillier_encrypt_batch(
            [update_plain[i] for i in indices]
        )
        return {
            "updates": list(zip(indices, ciphertexts)),
            "appended": [],
            "num_rows": None,
        }

    def _apply_hom(self, group, patch: dict, ledger: CostLedger) -> None:
        if not patch["updates"] and not patch["appended"] and patch["num_rows"] is None:
            return
        token = f"dml-{self._token_prefix}-{next(self._token_seq)}"
        ct_bytes = self.provider.paillier_public.ciphertext_bytes
        ledger.add_transfer(
            ct_bytes * (len(patch["updates"]) + len(patch["appended"])),
            self.network,
        )
        self._retrying(
            ledger,
            lambda: self.backend.hom_apply(
                group.file_name,
                updates=patch["updates"],
                appended=patch["appended"],
                num_rows=patch["num_rows"],
                token=token,
            ),
        )
