"""RowBlock: the streaming pipeline's unit of data movement.

MONOMI's split execution (§6) is a dataflow — server scan → network
transfer → client decrypt → residual query — and every hop in this
reproduction moves :class:`RowBlock` batches instead of whole
materialized tables.  A block is a **column-major** slice of at most
``capacity`` rows (default 4,096): column-major because every consumer
on the hot path wants columns, not rows — the SQLite cursor decodes per
column, the client decrypts each server output column through one
``*_decrypt_batch`` call per block, and byte accounting sizes each
column with one :func:`~repro.storage.rowcodec.column_bytes` call.  A
streamed scan stays column-major too: the engine's scan driver turns
its WHERE into a selection and builds each output column in one pass,
handing a picked column's list on as it is.  Row-major views
(:meth:`rows`) remain for what is row-at-a-time by nature: a computed
select item or a WHERE that is not one column-vs-literal comparison
(compiled row closures), and the materializing operators.

Byte accounting is designed so a stream of blocks charges **exactly**
what the materializing path charges: ``ResultSet.byte_size()`` equals
``result_header_bytes(columns)`` plus the sum of every block's
:meth:`payload_bytes` — the ledger equivalence tests assert this.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.storage.rowcodec import column_bytes

#: Default block capacity (rows) used everywhere a caller does not choose.
DEFAULT_BLOCK_ROWS = 4096


class RowBlock:
    """A fixed-capacity column-major batch of rows.

    ``columns[i]`` is the list of values for output column ``i``; every
    column holds ``num_rows`` values.  Capacity is nominal: producers
    emit blocks of at most their configured size, but consumers must not
    assume it (unnesting grp() lists can legally grow a block).  Blocks
    are read-only: a column list may be shared with the block it was
    picked from, or with another column of the same block.
    """

    __slots__ = ("columns", "num_rows")

    def __init__(self, columns: list[list], num_rows: int | None = None) -> None:
        self.columns = columns
        self.num_rows = (
            num_rows if num_rows is not None else (len(columns[0]) if columns else 0)
        )

    @classmethod
    def from_rows(cls, rows: list[tuple], width: int) -> "RowBlock":
        """Transpose row tuples into a block (``width`` covers the empty case)."""
        if not rows:
            return cls([[] for _ in range(width)], 0)
        return cls([list(column) for column in zip(*rows)], len(rows))

    def rows(self) -> list[tuple]:
        """Row-major view (transposes; use sparingly on hot paths)."""
        if not self.columns:
            return [()] * self.num_rows
        return list(zip(*self.columns))

    def payload_bytes(self) -> int:
        """Logical wire bytes of this block's rows (framing + values).

        Matches the per-row body of ``ResultSet.byte_size`` — 4 framing
        bytes per row plus the rowcodec size of every value — so block
        streams and materialized results charge identical transfer bytes.
        """
        return 4 * self.num_rows + sum(map(column_bytes, self.columns))

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowBlock({len(self.columns)} cols x {self.num_rows} rows)"


def result_header_bytes(columns: list[str]) -> int:
    """Wire bytes of the result-set header (column names + framing).

    The header half of ``ResultSet.byte_size``; a stream charges it once
    per result, before any block.
    """
    return sum(len(c) + 4 for c in columns)


def blocks_from_rows(
    rows: list[tuple], width: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> Iterator[RowBlock]:
    """Chunk a materialized row list into blocks (the blocking-operator
    boundary: whatever had to materialize re-enters the stream here)."""
    for start in range(0, len(rows), block_rows):
        yield RowBlock.from_rows(rows[start : start + block_rows], width)


def rechunk_rows(
    row_lists: Iterable[list],
    width: int,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    stats=None,
) -> Iterator[RowBlock]:
    """Merge ordered row-list chunks into blocks of exactly ``block_rows``
    (except the last) — the sharded stream's merge point.

    Chunks arrive in order and rows concatenate as-is, so the output row
    order and block boundaries match a serial scan of the same rows.
    When ``stats`` is given, ``rows_output`` accrues per emitted block.
    """
    buffer: list[tuple] = []
    for rows in row_lists:
        buffer.extend(rows)
        while len(buffer) >= block_rows:
            head = buffer[:block_rows]
            del buffer[:block_rows]
            if stats is not None:
                stats.rows_output += len(head)
            yield RowBlock.from_rows(head, width)
    if buffer:
        if stats is not None:
            stats.rows_output += len(buffer)
        yield RowBlock.from_rows(buffer, width)


class BlockStream:
    """An iterable of :class:`RowBlock` plus result metadata.

    ``columns`` is known up front; ``stats`` (when the producer supplies
    one) reaches its final totals only once the stream is exhausted or
    closed — producers fold per-block accounting into it as blocks flow.
    Single-shot: iterate it once.
    """

    def __init__(
        self, columns: list[str], blocks: Iterable[RowBlock], stats=None
    ) -> None:
        self.columns = list(columns)
        self.stats = stats
        self._blocks = iter(blocks)

    def __iter__(self) -> Iterator[RowBlock]:
        return self._blocks

    def close(self) -> None:
        """Release the producer early (runs its finalization/cleanup)."""
        close = getattr(self._blocks, "close", None)
        if close is not None:
            close()

    def drain_rows(self) -> list[tuple]:
        """Pull every block and return the concatenated rows."""
        rows: list[tuple] = []
        for block in self._blocks:
            rows.extend(block.rows())
        return rows
