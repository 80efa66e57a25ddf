"""Design sizing: projected server-side bytes for a candidate design.

The ILP designer's space constraint (§6.5) needs ``encsize(k)`` — the bytes
each candidate encrypted column would occupy — *before* anything is loaded.
Sizes are derived from plaintext statistics (row counts, average widths),
matching how the loader will actually materialize the design:

* DET: integers/dates via FFX stay integer-sized (8 bytes); text gets CMC
  framing (±1 byte, minimum one AES block);
* OPE: 8-byte ciphertext integers (we size big-int OPE ciphertexts by the
  configured expansion);
* RND: value bytes + 16-byte nonce;
* SEARCH: ~8 bytes per indexed tag (words + affixes, capped);
* HOM groups: ciphertext-file bytes = ceil(rows / rows_per_ct) × ct bytes.
"""

from __future__ import annotations

from repro.core.design import EncEntry, HomGroup, PhysicalDesign, normalize_expr
from repro.core.encdata import CryptoProvider
from repro.core.loader import complete_design
from repro.core.schemes import Scheme
from repro.core.typing import infer_type
from repro.engine.catalog import Database
from repro.engine.cost import HomFileInfo
from repro.engine.eval import EvalContext, Scope, compile_expr
from repro.engine.table import Table
from repro.sql import ast, parse_expression
from repro.storage.rowcodec import value_bytes

_ROW_HEADER = 24


class DesignSizer:
    def __init__(self, plain_db: Database, provider: CryptoProvider) -> None:
        self.plain_db = plain_db
        self.provider = provider
        # Plaintext statistics, per (table, expr_sql), for the sizer's life.
        self._width_cache: dict[tuple[str, str], tuple[float, str]] = {}
        self._bits_cache: dict[tuple[str, str], int] = {}
        self._baseline_cache: dict[str, float] = {}

    # -- per-entry -----------------------------------------------------------------

    def entry_bytes(self, entry: EncEntry) -> float:
        """Projected total bytes for one encrypted column."""
        table = self.plain_db.table(entry.table)
        return table.num_rows * self.entry_row_bytes(entry)

    def entry_row_bytes(self, entry: EncEntry) -> float:
        plain_width, plain_type = self._plain_width(entry.table, entry.expr_sql)
        if entry.scheme is Scheme.DET:
            if plain_type in ("int", "bool", "date"):
                return 8.0  # FFX: zero expansion, stored as an int.
            if plain_width <= 13.0:
                return plain_width  # Short text FFX: format preserving.
            return plain_width + 1.0  # CMC framing.
        if entry.scheme is Scheme.OPE:
            return 9.0  # domain bits + expansion, stored as a big integer.
        if entry.scheme is Scheme.RND:
            return plain_width + 16.0  # CTR nonce.
        if entry.scheme is Scheme.SEARCH:
            # SearchCipher indexes every word (~len/6), every prefix and
            # suffix up to max_affix_len chars, and one exact tag; 8 bytes
            # per tag.
            from repro.crypto.search import DEFAULT_MAX_AFFIX

            affixes = 2.0 * min(plain_width, float(DEFAULT_MAX_AFFIX))
            words = plain_width / 6.0
            return (affixes + words + 1.0) * 8.0 + 2.0
        if entry.scheme is Scheme.HOM:
            return 0.0  # Accounted via the group's ciphertext file.
        raise ValueError(f"unknown scheme {entry.scheme}")

    def group_bytes(self, group: HomGroup) -> float:
        table = self.plain_db.table(group.table)
        info = self.group_info(group)
        num_cts = -(-table.num_rows // info.rows_per_ciphertext)
        return num_cts * info.ciphertext_bytes

    def group_info(self, group: HomGroup) -> HomFileInfo:
        """Predicted packing layout (rows/ct, ct bytes) for a group."""
        public = self.provider.paillier_public
        pad_bits = max(4, self.plain_db.table(group.table).num_rows.bit_length())
        row_bits = 0
        for expr_sql in group.expr_sqls:
            width_bits = self._value_bits(group.table, expr_sql)
            row_bits += width_bits + pad_bits
        fit = max(1, public.plaintext_bits // max(row_bits, 1))
        rows_per_ct = min(group.rows_per_ciphertext, fit)
        return HomFileInfo(rows_per_ct, public.ciphertext_bytes)

    # -- whole designs ---------------------------------------------------------------

    def design_bytes(self, design: PhysicalDesign) -> float:
        """Total projected server bytes (incl. RND fallbacks and row ids)."""
        completed = complete_design(design, self.plain_db)
        total = 0.0
        hom_tables = {g.table for g in completed.hom_groups}
        for table_name in self.plain_db.tables:
            table = self.plain_db.table(table_name)
            total += table.num_rows * _ROW_HEADER
            if table_name in hom_tables:
                total += table.num_rows * 8.0  # row_id column.
        for entry in completed.entries:
            if entry.scheme is not Scheme.HOM:
                total += self.entry_bytes(entry)
        for group in completed.hom_groups:
            total += self.group_bytes(group)
        return total

    def table_bytes(self, design: PhysicalDesign) -> dict[str, float]:
        """Projected heap size of each encrypted table (excl. hom files —
        those are charged when read, like the paper's separate files).

        Computed as the all-DET fallback baseline plus the marginal size of
        the design's extra entries, which avoids re-deriving the completed
        design for every candidate the designer prices.
        """
        totals = {
            name: self._baseline_table_bytes(name) for name in self.plain_db.tables
        }
        for name in {g.table for g in design.hom_groups}:
            if name in totals:
                totals[name] += self.plain_db.table(name).num_rows * 8.0  # row_id
        for entry in design.entries:
            if entry.table not in totals or entry.scheme is Scheme.HOM:
                continue
            if entry.scheme is Scheme.DET and not entry.is_precomputed:
                continue  # Coincides with the fallback copy.
            if entry.scheme is Scheme.RND and not entry.is_precomputed:
                continue  # Float columns: already in the baseline.
            totals[entry.table] += self.entry_bytes(entry)
        return totals

    def _baseline_table_bytes(self, table_name: str) -> float:
        cached = self._baseline_cache.get(table_name)
        if cached is not None:
            return cached
        table = self.plain_db.table(table_name)
        total = table.num_rows * float(_ROW_HEADER)
        for column in table.schema.columns:
            scheme = Scheme.RND if column.type == "float" else Scheme.DET
            entry = EncEntry(
                table_name, normalize_expr(ast.Column(column.name)), scheme
            )
            total += self.entry_bytes(entry)
        self._baseline_cache[table_name] = total
        return total

    def plaintext_bytes(self) -> float:
        return float(sum(t.total_bytes for t in self.plain_db.tables.values()))

    # -- plaintext statistics -----------------------------------------------------------

    def _plain_width(self, table_name: str, expr_sql: str) -> tuple[float, str]:
        """Average value bytes over a 200-row sample, and the inferred type."""
        key = (table_name, expr_sql)
        cached = self._width_cache.get(key)
        if cached is not None:
            return cached
        table = self.plain_db.table(table_name)
        expr = parse_expression(expr_sql)
        plain_type = infer_type(expr, {table_name: table.schema})
        sample = table.rows[: min(200, len(table.rows))]
        if sample:
            fn = row_function(table, expr)
            width = sum(value_bytes(fn(row)) for row in sample) / len(sample)
        else:
            width = 8.0
        cached = self._width_cache[key] = (width, plain_type)
        return cached

    def _value_bits(self, table_name: str, expr_sql: str) -> int:
        """Max bit width of an integer expression over the table (sampled)."""
        key = (table_name, expr_sql)
        cached = self._bits_cache.get(key)
        if cached is not None:
            return cached
        table = self.plain_db.table(table_name)
        fn = row_function(table, parse_expression(expr_sql))
        best = 1
        for row in table.rows[: min(500, len(table.rows))]:
            value = fn(row)
            if isinstance(value, int) and not isinstance(value, bool):
                best = max(best, abs(value).bit_length())
        # A safety margin of two bits over the sample.
        bits = self._bits_cache[key] = best + 2
        return bits


def row_function(table: Table, expr: ast.Expr):
    """``expr`` compiled to a function of one row of ``table``."""
    scope = Scope([(table.name, c) for c in table.schema.column_names])
    return compile_expr(expr, scope, EvalContext())
