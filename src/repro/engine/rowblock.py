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

:class:`ResilientStream` is the one stream-resume loop: the plan
executor reads every server stream through it, and the sharded
coordinator every shard stream.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from repro.common.errors import TransientError
from repro.common.retry import Deadline, RetryPolicy, backoff, retry_call
from repro.storage.rowcodec import column_bytes

#: Default block capacity (rows) used everywhere a caller does not choose.
DEFAULT_BLOCK_ROWS = 4096


class RowBlock:
    """A fixed-capacity column-major batch of rows.

    ``columns[i]`` is the list of values for output column ``i``; every
    column holds ``num_rows`` values.  Capacity is nominal: producers
    emit blocks of at most their configured size, but consumers must not
    assume it (a block may come from a producer configured with another
    size).  Blocks are read-only: a column list may be shared with the
    block it was picked from, or with another column of the same block.
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


class ResilientStream:
    """A re-openable view of one deterministic server block stream.

    Duck-types :class:`BlockStream` (``columns``, ``stats``, iteration,
    ``close``) so a block consumer is oblivious to faults.  When a pull
    raises a :class:`~repro.common.errors.TransientError`, the abandoned
    attempt is accounted (its scan bytes plus one result header go to
    ``retry_bytes``), the stream re-opens through the same factory, and
    iteration **fast-forwards** past the ``delivered`` rows the consumer
    already holds — re-pulled-and-skipped row payloads also go to
    ``retry_bytes``.  Server scans are deterministic (same query, same
    snapshot, same order), and block payload bytes are
    block-boundary-independent, so the blocks the consumer sees — and
    every primary ledger charge made from them — are byte-identical to a
    fault-free run.

    The retry budget counts *faults without progress*: any attempt that
    receives at least one block resets it, so a long stream under a
    constant fault rate still completes — permanent failure needs
    ``max_attempts`` consecutive faults with nothing received in between.

    Counters (``retries``, ``retry_bytes``) are for the consumer to fold
    into its own accounting; this class never touches a ledger.
    """

    def __init__(
        self,
        open_stream: Callable[[], BlockStream],
        policy: RetryPolicy,
        deadline: Deadline | None,
        rng: random.Random,
    ) -> None:
        self._open_stream = open_stream
        self._policy = policy
        self._deadline = deadline
        self._rng = rng
        self._stream: BlockStream | None = None
        self._gen: Iterator[RowBlock] | None = None
        self.columns: list[str] = []
        self.delivered = 0
        self.retries = 0
        self.retry_bytes = 0

    @property
    def stats(self):
        """The *final* attempt's stats (abandoned attempts went to
        ``retry_bytes``); scan accounting is static, so this matches the
        fault-free charge exactly."""
        return self._stream.stats if self._stream is not None else None

    def open(self) -> None:
        """Open the stream, retrying transient open failures.

        Failed opens charge no retry bytes: the server produced nothing
        (pre-call faults and statement errors happen before any scan
        output exists)."""

        def note(attempt: int, exc: BaseException) -> None:
            self.retries += 1

        self._stream = retry_call(
            self._open_stream,
            self._policy,
            deadline=self._deadline,
            rng=self._rng,
            on_retry=note,
        )
        self.columns = list(self._stream.columns)

    def __iter__(self) -> Iterator[RowBlock]:
        if self._gen is None:
            self._gen = self._blocks()
        return self._gen

    def close(self) -> None:
        if self._gen is not None:
            self._gen.close()
        elif self._stream is not None:
            self._stream.close()

    def _abandon(self) -> None:
        """Account and drop the current attempt after a mid-stream fault."""
        stream = self._stream
        if stream is None:
            return
        stream.close()
        stats = stream.stats
        if stats is not None:
            self.retry_bytes += stats.bytes_scanned
        self.retry_bytes += result_header_bytes(stream.columns)
        self._stream = None

    def _blocks(self) -> Iterator[RowBlock]:
        faults = 0  # Consecutive faults with zero blocks received in between.
        skip = 0  # Rows to fast-forward past on the current attempt.
        try:
            while True:
                # Any block received this attempt counts as progress — a
                # resume replays every delivered row through fresh fault
                # draws, so judging progress by *new* rows would compound
                # the failure probability with stream depth.  A block
                # means the server is alive; the budget guards against a
                # dead one (max_attempts faults with nothing received,
                # probability rate**max_attempts per point).
                received = 0
                try:
                    if self._stream is None:
                        # Every open gets the open's own retry budget: a
                        # pre-call fault on the reopen request must not
                        # burn a stream-resume attempt.
                        self.open()
                    for block in self._stream:
                        received += 1
                        if self._deadline is not None:
                            self._deadline.check("query stream")
                        if skip >= len(block) > 0:
                            skip -= len(block)
                            self.retry_bytes += block.payload_bytes()
                            continue
                        if skip:
                            dropped = RowBlock([c[:skip] for c in block.columns], skip)
                            self.retry_bytes += dropped.payload_bytes()
                            block = RowBlock(
                                [c[skip:] for c in block.columns],
                                len(block) - skip,
                            )
                            skip = 0
                        self.delivered += len(block)
                        yield block
                    return
                except TransientError as exc:
                    self._abandon()
                    if received > 0:
                        faults = 1  # Progress was made: budget resets.
                    else:
                        faults += 1
                    if faults >= self._policy.max_attempts:
                        raise
                    self.retries += 1
                    backoff(self._policy, faults, self._rng, self._deadline, exc)
                    skip = self.delivered
        finally:
            if self._stream is not None:
                self._stream.close()
