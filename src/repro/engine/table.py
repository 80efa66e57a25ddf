"""In-memory tables with byte-accurate size accounting and statistics."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CatalogError
from repro.engine.schema import TableSchema
from repro.storage.rowcodec import column_bytes, row_bytes, rows_bytes, value_bytes


@dataclass
class ColumnStats:
    """Per-column statistics used by the cost estimator (ANALYZE output)."""

    num_distinct: int = 0
    num_nulls: int = 0
    min_value: object = None
    max_value: object = None
    avg_width: float = 0.0


#: Column types whose values hash and order totally, so a value counter
#: reproduces what a scan computes.  Tag sets order only partially (a scan's
#: min/max depends on row order) and ``any`` promises nothing: those
#: columns are rescanned by :meth:`Table.analyze`.
_COUNTED_TYPES = frozenset({"int", "float", "text", "date", "bool", "bytes"})


class ValueCounter:
    """The live value multiset of one column: what keeps its
    :class:`ColumnStats` exact under writes without rescanning the rows.
    (The designer keeps one per memoized expression maximum, too.)"""

    __slots__ = ("counts", "nulls", "size", "width", "low", "high")

    def __init__(self, values) -> None:
        self.counts: dict = {}
        self.nulls = 0
        self.size = 0  # Non-null values, duplicates included.
        self.width = 0  # Their summed value_bytes.
        self.low = self.high = None
        for value in values:
            self.add(value)

    def add(self, value) -> None:
        if value is None:
            self.nulls += 1
            return
        seen = self.counts.get(value, 0)
        self.counts[value] = seen + 1
        self.size += 1
        self.width += value_bytes(value)
        if not seen:
            if self.low is None or value < self.low:
                self.low = value
            if self.high is None or value > self.high:
                self.high = value

    def remove(self, value) -> None:
        if value is None:
            self.nulls -= 1
            return
        self.size -= 1
        self.width -= value_bytes(value)
        left = self.counts[value] - 1
        if left:
            self.counts[value] = left
            return
        del self.counts[value]
        # Only a departing extreme costs a pass, and only over the keys.
        if not self.counts:
            self.low = self.high = None
        elif value == self.low:
            self.low = min(self.counts)
        elif value == self.high:
            self.high = max(self.counts)

    def stats(self) -> ColumnStats:
        if not self.size:
            return ColumnStats(num_nulls=self.nulls)
        return ColumnStats(
            num_distinct=len(self.counts),
            num_nulls=self.nulls,
            min_value=self.low,
            max_value=self.high,
            avg_width=self.width / self.size,
        )


class Table:
    """A heap of rows plus maintained size statistics."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        self.total_bytes = 0
        self._stats: dict[str, ColumnStats] | None = None
        # One ValueCounter per countable column, built by the first write
        # after an analyze(): a table nobody analyzes, or nobody writes,
        # never pays for them.
        self._counters: list[ValueCounter | None] | None = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def insert(self, row: tuple) -> None:
        self._validate(row)
        counters = self._live_counters()
        self.rows.append(row)
        self.total_bytes += row_bytes(row)
        if counters is not None:
            self._count(counters, row)
        self._stats = None

    def insert_many(self, rows) -> None:
        """Insert a batch: every row is validated before the first one
        lands, so a bad row raises with the table untouched."""
        rows = list(rows)
        for row in rows:
            self._validate(row)
        if not rows:
            return
        counters = self._live_counters()
        self.rows.extend(rows)
        self.total_bytes += rows_bytes(rows)
        if counters is not None:
            for row in rows:
                self._count(counters, row)
        self._stats = None

    def _live_counters(self) -> list[ValueCounter | None] | None:
        """The counters a write must keep current (called before it touches
        ``rows``), or None while nobody has asked for statistics."""
        if self._counters is None and self._stats is not None:
            self._counters = [
                ValueCounter(row[i] for row in self.rows)
                if col.type in _COUNTED_TYPES
                else None
                for i, col in enumerate(self.schema.columns)
            ]
        return self._counters

    @staticmethod
    def _count(counters, row: tuple) -> None:
        for counter, value in zip(counters, row):
            if counter is not None:
                counter.add(value)

    @staticmethod
    def _uncount(counters, row: tuple) -> None:
        for counter, value in zip(counters, row):
            if counter is not None:
                counter.remove(value)

    def _validate(self, row: tuple) -> None:
        if len(row) != len(self.schema.columns):
            raise CatalogError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{len(self.schema.columns)} columns"
            )
        for value, col in zip(row, self.schema.columns):
            if not col.accepts(value):
                raise CatalogError(
                    f"value {value!r} not valid for column "
                    f"{self.name}.{col.name} ({col.type})"
                )

    def delete_exact(self, rows) -> int:
        """Remove one stored match per requested tuple; return the count
        removed.  Requests with no stored match are skipped, which is what
        makes a retried delete converge instead of over-deleting."""
        wanted: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row)
            wanted[key] = wanted.get(key, 0) + 1
        if not wanted:
            return 0
        counters = self._live_counters()
        kept: list[tuple] = []
        removed = 0
        for row in self.rows:
            count = wanted.get(row, 0)
            if count:
                wanted[row] = count - 1
                removed += 1
                self.total_bytes -= row_bytes(row)
                if counters is not None:
                    self._uncount(counters, row)
            else:
                kept.append(row)
        if removed:
            self.rows[:] = kept
            self._stats = None
        return removed

    def replace_exact(self, pairs) -> int:
        """Replace, in place, one stored match of ``old`` with ``new`` per
        ``(old, new)`` pair; return the count replaced.  Matching is by
        value, so the final row multiset is the same under any apply
        order — the property retried partial applies rely on.  Every
        ``new`` is validated before the first row moves: a bad pair raises
        with the table untouched."""
        pending: dict[tuple, list[tuple]] = {}
        total = 0
        for old, new in pairs:
            new = tuple(new)
            self._validate(new)
            pending.setdefault(tuple(old), []).append(new)
            total += 1
        if not total:
            return 0
        counters = self._live_counters()
        replaced = 0
        for i, row in enumerate(self.rows):
            queue = pending.get(row)
            if queue:
                new = queue.pop(0)
                self.rows[i] = new
                self.total_bytes += row_bytes(new) - row_bytes(row)
                if counters is not None:
                    self._uncount(counters, row)
                    self._count(counters, new)
                replaced += 1
        if replaced:
            self._stats = None
        return replaced

    def analyze(self) -> dict[str, ColumnStats]:
        """Compute (and cache) per-column statistics."""
        if self._stats is not None:
            return self._stats
        counters = self._counters
        stats: dict[str, ColumnStats] = {}
        for i, col in enumerate(self.schema.columns):
            if counters is not None and counters[i] is not None:
                stats[col.name] = counters[i].stats()
                continue
            values = [row[i] for row in self.rows]
            non_null = [v for v in values if v is not None]
            cs = ColumnStats(num_nulls=len(values) - len(non_null))
            if non_null:
                try:
                    cs.num_distinct = len(set(non_null))
                except TypeError:
                    cs.num_distinct = len(non_null)
                try:
                    cs.min_value = min(non_null)
                    cs.max_value = max(non_null)
                except TypeError:
                    pass  # Mixed/unorderable (e.g. tag sets): no min/max.
                cs.avg_width = column_bytes(non_null) / len(non_null)
            stats[col.name] = cs
        self._stats = stats
        return stats
