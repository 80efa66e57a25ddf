"""Split-plan execution: the MONOMI client library's runtime half.

Runs a :class:`~repro.core.plan.SplitPlan` against the untrusted server:

1. execute subplans (their results bind as DET-encrypted server-side IN
   sets or plaintext residual parameters — the multi-round-trip plans);
2. for each RemoteRelation: run the encrypted query on the server
   (charging measured server CPU + modeled disk time for bytes scanned),
   charge modeled network time for the intermediate result's exact bytes,
   then decrypt every output column on the client per its DecryptSpec
   (charging measured client CPU); a grp() output stays one list per
   server group, in a ``list`` column of the staged relation;
3. run the residual query over the decrypted virtual tables with the same
   relational engine, on the trusted side.  An ``[unnest]`` relation is
   never exploded into one row per list element: the engine's aggregation
   folds its list columns where they are (see
   :func:`~repro.engine.executor._nested_groups`), so each server row is
   one client group's worth of values.

:meth:`PlanExecutor.execute_iter` streams
:class:`~repro.engine.rowblock.RowBlock` batches end-to-end, and
:meth:`PlanExecutor.execute` drains it into one :class:`ResultSet`.  When
the plan is one RemoteRelation whose residual is stream-shaped (scan →
filter → project → limit over that relation, no subqueries), blocks flow
server scan → per-block decrypt (through the ``*_decrypt_batch`` APIs) →
residual operators without ever staging a full table; peak client memory
is O(block).  Any other plan shape runs the materializing path
(:meth:`PlanExecutor._run`), which stages each remote relation by
draining the same decrypted stream, and re-blocks its result (one
blocking operator at the root); an ``[unnest]`` plan always does,
because its residual aggregates.  A stream-shaped plan run through the
materializing path returns identical rows and identical ledger byte
counts — the streaming equivalence tests assert this.

A streamed plan runs on its caller's thread as one sequence per block:
pull the server block, charge its transfer, decrypt it, hand it to the
residual — the paper's three cost terms (§6.4) in order, with no second
thread to coordinate.

Resilient execution
-------------------
Server calls cross the failure boundary, and the executor is the
client hop's one retry loop for queries.  Every remote read, streamed or
staged for the materializing path, is one
:meth:`~repro.server.backend.ServerBackend.execute_stream` pulled by
:meth:`PlanExecutor._stream_remote`, which retries
:class:`~repro.common.errors.TransientError` under the executor's
:class:`~repro.common.retry.RetryPolicy` through
:class:`~repro.engine.rowblock.ResilientStream`: it re-opens the
(deterministic) server stream and fast-forwards past the rows it already
delivered — so delivered rows are never repeated and never lost.  The
invariant, pinned by the fault tests: under *any* fault schedule the
primary ledger totals (transfer bytes, scan bytes, round trips) are
byte-identical to a fault-free run; retried and abandoned work accrues
separately in ``ledger.retries`` / ``ledger.retry_bytes``.  A
:class:`~repro.common.retry.Deadline` passed to :meth:`execute` /
:meth:`execute_iter` is checked at every block boundary, turning runaway
queries into a typed :class:`~repro.common.errors.DeadlineExceededError`
with the server stream closed cleanly.

The returned :class:`~repro.common.ledger.CostLedger` carries the paper's
three cost components (§6.4) for every benchmark to aggregate.
"""

from __future__ import annotations

import random
import time
from typing import Iterator

from repro.common.errors import ConfigError, ExecutionError
from repro.common.ledger import CostLedger, DiskModel, NetworkModel
from repro.common.retry import Deadline, RetryPolicy
from repro.core.encdata import CryptoProvider
from repro.core.plan import ClientRelation, DecryptSpec, RemoteRelation, SplitPlan
from repro.engine.aggregates import HomAggResult
from repro.engine.catalog import Database
from repro.engine.executor import Executor, ResultSet, is_streamable
from repro.engine.rowblock import (
    DEFAULT_BLOCK_ROWS,
    BlockStream,
    ResilientStream,
    RowBlock,
    blocks_from_rows,
    result_header_bytes,
)
from repro.engine.schema import ColumnDef, TableSchema
from repro.server.backend import ServerBackend, as_backend
from repro.sql import ast

class PlanStream:
    """A streaming query result: RowBlocks plus the live cost ledger.

    The ledger accumulates as blocks are pulled; its totals are final
    only once the stream is exhausted (or closed).  Single-shot.
    """

    def __init__(
        self, columns: list[str], blocks: Iterator[RowBlock], ledger: CostLedger
    ) -> None:
        self.columns = columns
        self.ledger = ledger
        self._stream = BlockStream(columns, blocks)

    def __iter__(self) -> Iterator[RowBlock]:
        return iter(self._stream)

    def close(self) -> None:
        self._stream.close()

    def drain(self) -> ResultSet:
        return ResultSet(self.columns, self._stream.drain_rows())


def _deadline_checked(
    blocks: Iterator[RowBlock], deadline: Deadline
) -> Iterator[RowBlock]:
    """Re-yield ``blocks``, raising once ``deadline`` passes."""
    for block in blocks:
        deadline.check("query stream")
        yield block


class PlanExecutor:
    """Executes split plans for one (server backend, key chain) pair."""

    def __init__(
        self,
        server: Database | ServerBackend,
        provider: CryptoProvider,
        network: NetworkModel | None = None,
        disk: DiskModel | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.backend = as_backend(server)
        self.provider = provider
        self.network = network or NetworkModel()
        self.disk = disk or DiskModel()
        self.block_rows = block_rows
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        # Backoff jitter draws from a fixed-seed RNG so a given fault
        # schedule replays with identical retry timing (and never
        # perturbs any other randomness in the process).
        self._retry_rng = random.Random(0x5EED)

    # -- public ---------------------------------------------------------------

    def clone_with_backend(self, backend: ServerBackend) -> "PlanExecutor":
        """An executor with identical settings over a different backend.

        The service layer builds one executor per worker thread, each
        bound to that worker's backend view: provider, network/disk
        models, block size and retry policy carry over,
        while per-query server state stays worker-private.
        """
        return PlanExecutor(
            backend,
            self.provider,
            self.network,
            self.disk,
            block_rows=self.block_rows,
            retry_policy=self.retry_policy,
        )

    def execute(
        self, plan: SplitPlan, deadline: Deadline | None = None
    ) -> tuple[ResultSet, CostLedger]:
        stream = self.execute_iter(plan, deadline=deadline)
        return stream.drain(), stream.ledger

    def execute_iter(
        self,
        plan: SplitPlan,
        block_rows: int | None = None,
        deadline: Deadline | None = None,
    ) -> PlanStream:
        """Stream the plan's result as decrypted RowBlocks."""
        if block_rows is None:
            block_rows = self.block_rows
        if block_rows < 1:
            raise ConfigError(f"block_rows must be >= 1, got {block_rows}")
        ledger = CostLedger()
        if self._plan_streams(plan):
            relation = plan.relations[0]
            out_names = [n for spec in relation.specs for n in spec.output_names]
            if plan.residual is None:
                columns = list(out_names)
            else:
                columns = [
                    item.output_name(i) for i, item in enumerate(plan.residual.items)
                ]
            blocks = self._stream_plan(
                plan, relation, out_names, ledger, block_rows, deadline
            )
            return PlanStream(columns, blocks, ledger)
        result = self._run(plan, ledger, deadline)
        blocks = blocks_from_rows(result.rows, len(result.columns), block_rows)
        if deadline is not None:
            # Materialized fallback: blocks come from memory, but the
            # timeout contract covers the stream's whole lifetime — a
            # slow consumer still times out at block granularity.
            blocks = _deadline_checked(blocks, deadline)
        return PlanStream(list(result.columns), blocks, ledger)

    # -- streaming path ------------------------------------------------------

    def _plan_streams(self, plan: SplitPlan) -> bool:
        """Can this plan flow block-at-a-time without staging a table?

        One RemoteRelation (subplans are fine — they run in their own
        round trips first), and a residual that is either absent or a
        stream-shaped query over exactly that relation.  Residual
        subqueries would re-read the staged virtual table, which the
        streaming path never builds, so they force materialization.
        """
        if len(plan.relations) != 1:
            return False
        relation = plan.relations[0]
        if not isinstance(relation, RemoteRelation):
            return False
        residual = plan.residual
        if residual is None:
            return True
        if not is_streamable(residual):
            return False
        if residual.from_items[0].name != relation.alias:
            return False
        if residual.limit is not None:
            # A client-side LIMIT stops pulling the remote stream early,
            # transferring fewer bytes than the materializing path — a
            # real saving, but it would break the byte-identical ledger
            # contract between the two paths, so LIMIT residuals block.
            # (A LIMIT *pushed into the server query* still streams: the
            # server truncates before transfer on both paths.)
            return False
        exprs = [item.expr for item in residual.items]
        if residual.where is not None:
            exprs.append(residual.where)
        return not any(ast.find_subqueries(e) for e in exprs)

    def _stream_plan(
        self,
        plan: SplitPlan,
        relation: RemoteRelation,
        out_names: list[str],
        ledger: CostLedger,
        block_rows: int,
        deadline: Deadline | None,
    ) -> Iterator[RowBlock]:
        server_params, residual_params = self._bind_subplans(plan, ledger, deadline)
        source = self._stream_remote(
            relation, server_params, ledger, block_rows, deadline
        )
        if plan.residual is None:
            yield from source
            return
        # Residual operators pull decrypted blocks straight off the remote
        # stream (no staging table).  Engine time inside next() includes
        # the nested server fetch + decrypt, which the source already
        # booked on the ledger — charge only the remainder to client CPU.
        executor = Executor(Database("client_tmp"))
        residual_stream = executor.execute_stream(
            plan.residual,
            params=residual_params,
            sources={relation.alias: BlockStream(out_names, source)},
            block_rows=block_rows,
        )
        blocks = iter(residual_stream)
        try:
            while True:
                booked_before = ledger.server_seconds + ledger.client_seconds
                start = time.perf_counter()
                try:
                    block = next(blocks)
                except StopIteration:
                    block = None
                elapsed = time.perf_counter() - start
                nested = ledger.server_seconds + ledger.client_seconds - booked_before
                ledger.client_seconds += max(0.0, elapsed - nested)
                if block is None:
                    return
                yield block
        finally:
            residual_stream.close()

    def _stream_remote(
        self,
        relation: RemoteRelation,
        server_params: dict[str, object],
        ledger: CostLedger,
        block_rows: int,
        deadline: Deadline | None,
    ) -> Iterator[RowBlock]:
        """Server scan → network → per-block decrypt."""
        specs = relation.specs

        def open_stream() -> BlockStream:
            return self.backend.execute_stream(
                relation.query,
                params=server_params,
                block_rows=block_rows,
                deadline=deadline,
            )

        stream = ResilientStream(
            open_stream, self.retry_policy, deadline, self._retry_rng
        )
        with ledger.timing_server():
            stream.open()
        if len(specs) != len(stream.columns):
            stream.close()
            raise ExecutionError(
                f"decrypt spec count {len(specs)} != result columns "
                f"{len(stream.columns)}"
            )
        ledger.begin_round_trip(self.network)
        ledger.add_block_transfer(result_header_bytes(stream.columns), self.network)
        blocks = iter(stream)
        try:
            while True:
                with ledger.timing_server():
                    block = next(blocks, None)
                if block is None:
                    return
                ledger.add_block_transfer(block.payload_bytes(), self.network)
                with ledger.timing_client():
                    out = RowBlock(
                        self._decrypt_columns(specs, block.columns), len(block)
                    )
                yield out
        finally:
            # Runs on exhaustion AND on early termination (residual LIMIT):
            # scan accounting is static, so the full footprint is charged
            # either way — identical to the materializing path.  Closing
            # the resilient stream first finalizes its scan stats and retry
            # counters.
            stream.close()
            ledger.retries += stream.retries
            ledger.retry_bytes += stream.retry_bytes
            stats = stream.stats
            scanned = stats.bytes_scanned if stats is not None else 0
            ledger.server_bytes_scanned += scanned
            ledger.server_seconds += self.disk.read_seconds(scanned)

    # -- internals ----------------------------------------------------------------

    def _bind_subplans(
        self,
        plan: SplitPlan,
        ledger: CostLedger,
        deadline: Deadline | None = None,
    ) -> tuple[dict[str, object], dict[str, object]]:
        """Run subplans (their own round trips); bind their results."""
        server_params: dict[str, object] = {}
        residual_params: dict[str, object] = {}
        for subplan in plan.subplans:
            sub_result = self._run(subplan.plan, ledger, deadline)
            values = [row[0] for row in sub_result.rows]
            if subplan.mode == "in_set_server":
                with ledger.timing_client():
                    encrypted = frozenset(
                        self.provider.det_encrypt_batch(
                            [v for v in values if v is not None]
                        )
                    )
                server_params[subplan.param_name] = encrypted
            elif subplan.mode == "scalar_residual":
                if len(values) > 1:
                    raise ExecutionError("scalar subplan returned multiple rows")
                residual_params[subplan.param_name] = values[0] if values else None
            elif subplan.mode == "set_residual":
                residual_params[subplan.param_name] = frozenset(
                    v for v in values if v is not None
                )
            else:
                raise ExecutionError(f"unknown subplan mode {subplan.mode!r}")
        return server_params, residual_params

    def _run(
        self,
        plan: SplitPlan,
        ledger: CostLedger,
        deadline: Deadline | None = None,
    ) -> ResultSet:
        server_params, residual_params = self._bind_subplans(plan, ledger, deadline)

        client_db = Database("client_tmp")
        for relation in plan.relations:
            if deadline is not None:
                deadline.check()
            if isinstance(relation, RemoteRelation):
                columns, rows = self._materialize_remote(
                    relation, server_params, ledger, deadline
                )
            elif isinstance(relation, ClientRelation):
                inner = self._run(relation.plan, ledger, deadline)
                columns = [ColumnDef(c, "any") for c in inner.columns]
                rows = inner.rows
            else:
                raise ExecutionError(f"unknown relation {relation!r}")
            schema = TableSchema(name=relation.alias, columns=tuple(columns))
            table = client_db.create_table(schema)
            table.rows = rows  # Trusted side: skip re-validation for speed.

        if plan.residual is None:
            only = next(iter(client_db.tables.values()))
            return ResultSet(list(only.schema.column_names), list(only.rows))
        if deadline is not None:
            deadline.check()
        executor = Executor(client_db)
        with ledger.timing_client():
            return executor.execute(plan.residual, params=residual_params)

    # -- remote materialization ------------------------------------------------------

    def _materialize_remote(
        self,
        relation: RemoteRelation,
        server_params: dict[str, object],
        ledger: CostLedger,
        deadline: Deadline | None = None,
    ) -> tuple[list[ColumnDef], list[tuple]]:
        """The relation's decrypted server stream, drained: one row per
        server row, each grp() output a ``list`` column."""
        columns = [
            ColumnDef(name, "list" if spec.kind == "grp" else "any")
            for spec in relation.specs
            for name in spec.output_names
        ]
        values: list[list] = [[] for _ in columns]
        blocks = self._stream_remote(
            relation, server_params, ledger, self.block_rows, deadline
        )
        for block in blocks:
            for column, block_column in zip(values, block.columns):
                column.extend(block_column)
        return columns, list(zip(*values))

    def _decrypt_columns(self, specs: list[DecryptSpec], in_columns) -> list[list]:
        """Decrypt server output columns into client virtual columns (the
        Fig. 7 hot path): one scheme/type dispatch per :class:`DecryptSpec`
        and block, packed Paillier ciphertexts gathered column-wide into one
        CRT-batched decryption."""
        out_columns: list[list] = []
        for spec, in_column in zip(specs, in_columns):
            out_columns.extend(self._decrypt_column(spec, in_column))
        return out_columns

    def _decrypt_column(self, spec: DecryptSpec, values) -> list[list]:
        """Decrypt one server output column into its output column(s)."""
        if spec.kind == "plain":
            return [list(values)]
        if spec.kind in ("det", "ope", "rnd"):
            return [self.provider.decrypt_batch(values, spec.kind, spec.sql_type)]
        if spec.kind == "grp":
            # Flatten every group's list into one column-wide batch so the
            # crypto layer dedups and shares tree descents across groups,
            # then split back by the recorded group lengths.
            flat: list = []
            lengths: list[int | None] = []
            for value in values:
                if value is None:
                    lengths.append(None)
                else:
                    lengths.append(len(value))
                    flat.extend(value)
            decrypted = self.provider.decrypt_batch(flat, spec.elem_kind, spec.sql_type)
            out: list = []
            pos = 0
            for length in lengths:
                if length is None:
                    out.append([])
                else:
                    out.append(decrypted[pos : pos + length])
                    pos += length
            return [out]
        if spec.kind == "hom":
            return self._decrypt_hom_column(spec, values)
        raise ExecutionError(f"unknown decrypt spec kind {spec.kind!r}")

    def _decrypt_hom_column(self, spec: DecryptSpec, values) -> list[list]:
        width = len(spec.hom_output_names)
        # Gather every Paillier ciphertext the column carries (running
        # products first, then partials, per value) so the whole column
        # decrypts in one CRT batch.
        ciphertexts: list[int] = []
        for value in values:
            if value is None:
                continue
            if not isinstance(value, HomAggResult):
                raise ExecutionError("hom spec over a non-homomorphic value")
            if value.product is not None:
                ciphertexts.append(value.product)
            ciphertexts.extend(ct for ct, _ in value.partials)
        plaintexts = iter(self.provider.paillier_decrypt_batch(ciphertexts))
        out_rows: list[list] = []
        for value in values:
            if value is None:
                out_rows.append([None] * width)
                continue
            layout = value.layout
            totals = [0] * width
            saw_any = False
            if value.product is not None:
                sums = layout.decode_column_sums(next(plaintexts))
                totals = [t + s for t, s in zip(totals, sums)]
                saw_any = True
            for _, offsets in value.partials:
                plaintext = layout.decode_rows(
                    next(plaintexts), layout.rows_per_ciphertext
                )
                for offset in offsets:
                    if offset >= len(plaintext):
                        raise ExecutionError("hom partial offset out of range")
                    for c in range(width):
                        totals[c] += plaintext[offset][c]
                saw_any = True
            out_rows.append(totals if saw_any else [None] * width)
        return [list(column) for column in zip(*out_rows)]
