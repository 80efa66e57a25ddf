"""MONOMI client library: the only component holding decryption keys.

:class:`MonomiClient` is the public face of the system (Figure 1):

* :meth:`MonomiClient.setup` plays the setup phase — run the designer over
  a representative workload, encrypt and load the database onto the
  untrusted server, and profile decryption costs;
* :meth:`MonomiClient.execute` plays the runtime — normalize the incoming
  SQL, pick the best split plan with the planner (once per distinct
  normalized statement: :meth:`MonomiClient.plan` memoizes plans, and an
  exact repeat of a statement's text skips normalization too), execute it
  against the server, decrypt, finish locally, and return plaintext rows
  together with the cost ledger.

The server half (:attr:`backend` — in-memory engine or real SQLite, see
:mod:`repro.server`) holds only ciphertexts, the Paillier public key, and
packing metadata; every decryption happens in this class' provider.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.service import MonomiService

from repro.common.errors import ConfigError, UnsupportedQueryError
from repro.common.ledger import CostLedger, DiskModel, NetworkModel
from repro.common.retry import Deadline
from repro.core.cost import MonomiCostModel
from repro.core.design import PhysicalDesign, TechniqueFlags
from repro.core.designer import Designer, DesignResult
from repro.core.encdata import CryptoProvider
from repro.core.loader import EncryptedLoader, complete_design, join_key_indexes
from repro.core.normalize import (
    normalize_dml,
    normalize_for_execution,
    normalize_query,
)
from repro.core.pexec import PlanExecutor, PlanStream
from repro.core.plancache import PlanCache, TextKey, plan_cache_key, text_cache_key
from repro.core.planner import PlannedQuery, Planner
from repro.engine.catalog import Database
from repro.engine.executor import ResultSet
from repro.engine.rowblock import RowBlock
from repro.server import (
    ServerBackend,
    as_backend,
    make_backend,
    make_sharded_backend,
)
from repro.server.inmemory import InMemoryBackend
from repro.sql import ast, parse, parse_statement


@dataclass
class QueryOutcome:
    """Everything one encrypted query execution produced.

    ``planned`` is ``None`` for DML statements — they execute through the
    :class:`~repro.core.dml.DmlExecutor`, not the split-query planner.
    """

    result: ResultSet
    ledger: CostLedger
    planned: PlannedQuery | None

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    @property
    def columns(self) -> list[str]:
        return self.result.columns


class QueryStream:
    """A streaming query outcome: iterate decrypted RowBlocks.

    The ledger accumulates while blocks are pulled and is final once the
    stream is exhausted (or closed).  Single-shot, like a cursor.
    """

    def __init__(self, stream: PlanStream, planned: PlannedQuery) -> None:
        self._stream = stream
        self.planned = planned

    @property
    def columns(self) -> list[str]:
        return self._stream.columns

    @property
    def ledger(self) -> CostLedger:
        return self._stream.ledger

    def __iter__(self) -> Iterator[RowBlock]:
        return iter(self._stream)

    def close(self) -> None:
        self._stream.close()

    def drain(self) -> QueryOutcome:
        """Pull every block and return the materialized outcome."""
        result = self._stream.drain()
        return QueryOutcome(result, self._stream.ledger, self.planned)


class MonomiClient:
    def __init__(
        self,
        plain_db: Database,
        design: PhysicalDesign,
        provider: CryptoProvider,
        server_db: Database | ServerBackend,
        flags: TechniqueFlags,
        network: NetworkModel,
        disk: DiskModel,
        design_result: DesignResult | None = None,
    ) -> None:
        self.plain_db = plain_db
        self.design = design
        self.provider = provider
        self.backend = as_backend(server_db)
        self.flags = flags
        self.network = network
        self.disk = disk
        self.design_result = design_result
        self.schemas = {name: t.schema for name, t in plain_db.tables.items()}
        self._designer = Designer(plain_db, provider, flags, network)
        self._dml = None
        # One plan cache for execute, execute_iter, explain and every
        # service session.  The design is immutable once loaded, so it is
        # fingerprinted once; misses plan single-flight under the lock.
        self.plan_cache = PlanCache()
        self.design_fingerprint = design.fingerprint()
        self._plan_lock = threading.Lock()
        self._refresh_planner()
        self.executor = PlanExecutor(self.backend, provider, network, disk)

    def _refresh_planner(self) -> None:
        """(Re)build the runtime cost model and planner.

        Plaintext statistics come from the mirror, but scan sizes and
        packing facts from what is actually loaded on the server — so this
        re-runs after every DML statement, which changes table byte counts
        and hom-file row counts.  The new planner is swapped in under the
        plan lock, so a cache miss plans wholly on the old planner or
        wholly on the new one.  Cached plans stay in the cache: they
        re-scan live tables, and their one statistic-derived constant (the
        §5.4 pre-filter's column maximum) is sound for any positive value
        (see :meth:`plan`); only their cost *estimates* go stale.
        """
        from repro.engine.cost import HomFileInfo

        table_bytes = {
            name: float(self.backend.table_bytes(name))
            for name in self.backend.table_names()
            if name in self.schemas
        }
        store = self.backend.ciphertext_store
        hom_info = {
            name: HomFileInfo(
                store.get(name).rows_per_ciphertext,
                store.get(name).ciphertext_bytes,
            )
            for name in store.names()
        }
        cost_model = MonomiCostModel(
            self.plain_db,
            self.provider,
            network=self.network,
            table_bytes=table_bytes,
            hom_info=hom_info,
        )
        planner = Planner(
            self.design,
            self.schemas,
            self.provider,
            cost_model,
            self.flags,
            stats_max=self._designer.stats_max,
            plain_db=self.plain_db,
        )
        with self._plan_lock:
            self.planner = planner

    @property
    def dml(self):
        """The encrypted DML executor (built on first use)."""
        if self._dml is None:
            from repro.core.dml import DmlExecutor

            self._dml = DmlExecutor(self)
            # The planner's memoized column maxima follow the mirror.
            self._dml.listeners.append(self._designer)
        return self._dml

    @property
    def server_db(self) -> Database:
        """The in-memory server's catalog (pre-backend convention).

        Only the default :class:`InMemoryBackend` exposes a `Database`;
        external backends (SQLite, ...) hold their state inside the engine.
        """
        if isinstance(self.backend, InMemoryBackend):
            return self.backend.database
        raise AttributeError(
            f"backend {self.backend.kind!r} has no in-process Database; "
            "use client.backend instead"
        )

    # -- setup phase -----------------------------------------------------------

    @classmethod
    def setup(
        cls,
        plain_db: Database,
        workload: list[str | ast.Select],
        master_key: bytes = b"monomi-master-key",
        space_budget: float | None = 2.0,
        flags: TechniqueFlags = TechniqueFlags(),
        designer_mode: str = "ilp",
        paillier_bits: int = 512,
        network: NetworkModel | None = None,
        disk: DiskModel | None = None,
        design: PhysicalDesign | None = None,
        det_default: bool = True,
        backend: str | ServerBackend = "memory",
        provider: CryptoProvider | None = None,
        shards: int = 1,
        shard_keys: dict[str, str | None] | None = None,
    ) -> "MonomiClient":
        """Design (unless ``design`` is given), encrypt, load, and index.

        After the load the backend indexes the DET join keys of
        ``workload`` (:func:`~repro.core.loader.join_key_indexes`); SQLite
        stores build B-trees, the in-memory engine keeps no index.

        ``paillier_bits`` defaults to 512 for tractable pure-Python
        benchmarking; pass 2048 for the paper's key size.  ``backend``
        picks the untrusted server: ``"memory"`` (default), ``"sqlite"``,
        or a pre-built :class:`~repro.server.ServerBackend`.  Passing a
        shared ``provider`` keeps the launch-time decryption profile (and
        hence plan choice) identical across clients — the cross-backend
        equivalence harness relies on this.

        ``shards`` (default 1) partitions the encrypted tables across
        that many fresh backends of the chosen kind behind a
        :class:`~repro.server.ShardedBackend`; rows and ledger byte
        counts are shard-count-invariant.  ``shard_keys``
        overrides the per-table routing column (``None`` value =
        replicate that table to the coordinator).  Both are ignored when
        a pre-built backend instance is passed.
        """
        network = network or NetworkModel()
        disk = disk or DiskModel()
        if provider is None:
            provider = CryptoProvider(master_key, paillier_bits=paillier_bits)
        queries = [
            normalize_query(parse(q) if isinstance(q, str) else q) for q in workload
        ]
        design_result: DesignResult | None = None
        if design is None:
            designer = Designer(
                plain_db, provider, flags, network, det_default=det_default
            )
            design_result = designer.design(queries, designer_mode, space_budget)
            design = design_result.design
        loader = EncryptedLoader(plain_db, provider)
        if isinstance(backend, str):
            if shards != 1 or shard_keys:
                backend = make_sharded_backend(
                    backend,
                    shards,
                    name=f"{plain_db.name}_enc",
                    shard_keys=shard_keys,
                )
            else:
                backend = make_backend(backend, name=f"{plain_db.name}_enc")
        loader.load_into(backend, design)
        indexes = join_key_indexes(
            complete_design(design, plain_db),
            queries,
            {name: table.schema for name, table in plain_db.tables.items()},
        )
        for table_name, columns in indexes.items():
            backend.create_indexes(table_name, columns)
        return cls(
            plain_db,
            design,
            provider,
            backend,
            flags,
            network,
            disk,
            design_result,
        )

    @classmethod
    def connect(
        cls,
        address: str,
        plain_db: Database,
        workload: list[str | ast.Select] | None = None,
        design: PhysicalDesign | None = None,
        provider: CryptoProvider | None = None,
        master_key: bytes = b"monomi-master-key",
        space_budget: float | None = 2.0,
        flags: TechniqueFlags = TechniqueFlags(),
        designer_mode: str = "ilp",
        paillier_bits: int = 512,
        det_default: bool = True,
        network: NetworkModel | None = None,
        disk: DiskModel | None = None,
        connect_timeout: float = 10.0,
        socket_timeout: float = 120.0,
    ) -> "MonomiClient":
        """Attach to a running :class:`~repro.net.MonomiServer`.

        The network dual of :meth:`setup`: the server already holds the
        encrypted database (loaded in its process), so this side only
        needs the trusted state — the key-deriving ``provider`` and the
        :class:`PhysicalDesign` the data was encrypted under.  Pass them
        directly, or pass the ``workload`` (plus the same designer
        settings used at load time) and the design is re-derived: the
        designer is deterministic given the same plaintext statistics,
        provider profile, and budget.  Everything downstream —
        ``execute``/``execute_iter``/``service()``/prepared statements —
        works unchanged over the wire.
        """
        from repro.net.client import RemoteBackend

        backend = RemoteBackend(
            address,
            connect_timeout=connect_timeout,
            socket_timeout=socket_timeout,
        )
        network = network or NetworkModel()
        disk = disk or DiskModel()
        if provider is None:
            provider = CryptoProvider(master_key, paillier_bits=paillier_bits)
        if design is None:
            if workload is None:
                raise ConfigError(
                    "connect() needs design= (the design the server was "
                    "loaded with) or workload= to re-derive it"
                )
            queries = [
                normalize_query(parse(q) if isinstance(q, str) else q) for q in workload
            ]
            designer = Designer(
                plain_db, provider, flags, network, det_default=det_default
            )
            design = designer.design(queries, designer_mode, space_budget).design
        return cls(plain_db, design, provider, backend, flags, network, disk)

    def close(self) -> None:
        """Release client-held backend resources (network connections for
        remote backends; a no-op for in-process ones)."""
        self.backend.close()

    # -- runtime -----------------------------------------------------------------

    def execute(
        self,
        sql: str | ast.Select | ast.Insert | ast.Update | ast.Delete,
        params: dict[str, object] | None = None,
        timeout: float | None = None,
    ) -> QueryOutcome:
        """Execute one statement; ``timeout`` (seconds) arms a deadline that
        is checked at every block boundary and caps retry backoff — expiry
        raises :class:`~repro.common.errors.DeadlineExceededError`.

        INSERT/UPDATE/DELETE run through the encrypted DML path: the
        statement is evaluated on the trusted side, rows travel through the
        same batch-encrypt pipeline as the loader, and packed Paillier
        aggregates are patched in place.  The outcome's result set is one
        ``rows_affected`` row and ``planned`` is ``None``.

        A SELECT is planned through the plan cache, so repeating a
        statement (same normalized text) reuses its plan, across writes too.
        """
        planned, statement, text = self._resolve(sql, params)
        if ast.is_dml(statement):
            result, ledger = self.dml.execute(normalize_dml(statement, params))
            # DML moved table/hom sizes; re-snapshot them for cost estimates.
            self._refresh_planner()
            return QueryOutcome(result, ledger, None)
        if planned is None:
            planned, _ = self._plan(statement, text)
        deadline = Deadline.after(timeout) if timeout is not None else None
        result, ledger = self.executor.execute(planned.plan, deadline=deadline)
        return QueryOutcome(result, ledger, planned)

    def execute_iter(
        self,
        sql: str | ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int | None = None,
        timeout: float | None = None,
    ) -> QueryStream:
        """Execute, streaming decrypted RowBlocks instead of materializing.

        Stream-shaped plans (one RemoteSQL, scan/filter/project/limit
        residual) move block-at-a-time from the server scan through
        decryption to the caller — peak client memory stays O(block) and
        the first block arrives before the server finishes the scan.
        Other plans materialize internally and re-block.  ``execute()``
        remains the drain-everything wrapper around this path.  The
        ``timeout`` deadline covers the whole stream's lifetime, not just
        its creation — a slow consumer can also run out of time.
        """
        planned, _ = self._plan_statement(sql, params, "do not stream; use execute()")
        deadline = Deadline.after(timeout) if timeout is not None else None
        stream = self.executor.execute_iter(
            planned.plan, block_rows=block_rows, deadline=deadline
        )
        return QueryStream(stream, planned)

    def explain(
        self, sql: str | ast.Select, params: dict[str, object] | None = None
    ) -> str:
        """The plan :meth:`execute` would run, with its estimated cost.

        The statement passes the same gate as :meth:`execute` (so a shape
        ``execute`` rejects raises here too, and DML, which has no split
        plan, raises :class:`~repro.common.errors.UnsupportedQueryError`)
        and is planned through the plan cache; the header says whether the
        plan came from the cache.
        """
        planned, hit = self._plan_statement(sql, params, "have no plan to explain")
        header = (
            f"estimated cost: {planned.cost.total_seconds:.4f}s "
            f"(server {planned.cost.server_seconds:.4f}s, "
            f"net {planned.cost.transfer_seconds:.4f}s, "
            f"client {planned.cost.client_seconds:.4f}s); "
            f"{planned.candidates_tried} candidate plans priced "
            f"({planned.subsets_tried} unit subsets); "
            f"plan cache {'hit' if hit else 'miss'}"
        )
        return header + "\n" + planned.plan.explain()

    def plan(self, query: ast.Select) -> PlannedQuery:
        """The plan for a *normalized* query, from the plan cache if it is
        there.  The one way into :meth:`Planner.plan
        <repro.core.planner.Planner.plan>`.

        The key is ⟨normalized SQL text, design fingerprint⟩ (see
        :mod:`repro.core.plancache`).  A miss plans single-flight under
        the plan lock; concurrent misses on one key plan once.

        A cached plan survives DML.  It names no rows: every execution
        re-scans the live tables.  The one plan element built from
        mutable statistics is the §5.4 pre-filter ``MAX(x_ope) > E(m) OR
        COUNT(*) > c/m`` beside ``SUM(x) > c``, where ``m`` is the
        column maximum at plan time.  A group whose maximum is at most
        ``m`` and whose count is at most ``c/m`` sums to at most ``c``,
        so the pre-filter is a necessary condition for ``SUM(x) > c`` for
        *any* ``m > 0``; a stale ``m`` cannot drop a group.  The
        selectivity hint the splitter reads from the mirror only prices
        candidates.
        """
        return self._plan(query)[0]

    def _resolve(
        self, sql: str | ast.Statement, params: dict[str, object] | None
    ) -> tuple[PlannedQuery | None, ast.Statement | None, TextKey | None]:
        """The one way from a statement and its parameters into the plan
        cache: ``(planned, statement, text)``.

        An exact repeat of a planned statement string is a text-level hit,
        ``(planned, None, None)``: nothing is parsed or normalized.
        Otherwise the statement is parsed: DML comes back as parsed,
        ``(None, dml, None)``, for the caller to normalize and run; a
        SELECT comes back normalized with its text key, ``(None, query,
        text)``, for :meth:`_plan`, which makes the counted lookup.
        """
        text = text_cache_key(sql, params)
        if text is not None:
            planned = self.plan_cache.get_text(text)
            if planned is not None:
                return planned, None, None
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if ast.is_dml(statement):
            return None, statement, None
        return None, normalize_for_execution(statement, params), text

    def _plan_statement(
        self, sql: str | ast.Statement, params: dict[str, object] | None, dml: str
    ) -> tuple[PlannedQuery, bool]:
        """:meth:`_resolve` then :meth:`_plan` for a SELECT-only entry
        point; DML raises :class:`UnsupportedQueryError` with the reason
        ``dml``."""
        planned, statement, text = self._resolve(sql, params)
        if planned is not None:
            return planned, True
        if ast.is_dml(statement):
            kind = type(statement).__name__.upper()
            raise UnsupportedQueryError(f"{kind} statements {dml}")
        return self._plan(statement, text)

    def _plan(
        self, query: ast.Select, text: TextKey | None = None
    ) -> tuple[PlannedQuery, bool]:
        """:meth:`plan`, and whether its one counted lookup was a hit;
        the plan is filed under the statement's ``text`` key too."""
        key = plan_cache_key(query, self.design_fingerprint)
        planned = self.plan_cache.get(key, text)
        if planned is not None:
            return planned, True
        with self._plan_lock:
            planned = self.plan_cache.peek(key)
            if planned is None:
                planned = self.planner.plan(query)
            self.plan_cache.put(key, planned, text)
        return planned, False

    # -- concurrent service ------------------------------------------------------

    def service(self, workers: int = 4) -> "MonomiService":
        """A concurrent query service over this client's database.

        Serves N sessions at once on a worker thread pool: per-worker
        backend connections, per-session cost ledgers, and a
        prepared-statement API.  Sessions and prepared statements plan
        through :meth:`plan`, so the service and this client share one plan
        cache and run one plan per statement text.  Single-session code
        keeps using :meth:`execute` unchanged.  See
        :class:`repro.service.MonomiService`.
        """
        from repro.service import MonomiService

        return MonomiService(self, workers=workers)

    # -- reporting --------------------------------------------------------------------

    def server_bytes(self) -> int:
        return self.backend.total_bytes

    def plaintext_bytes(self) -> int:
        return sum(t.total_bytes for t in self.plain_db.tables.values())

    def space_overhead(self) -> float:
        return self.server_bytes() / max(1, self.plaintext_bytes())
