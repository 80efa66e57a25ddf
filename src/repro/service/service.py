"""MonomiService: N concurrent sessions over one shared encrypted database.

The paper's prototype executes one analyst's query at a time; a
production deployment serves many.  :class:`MonomiService` is the layer
that makes that safe and fast without touching the trust model — it runs
entirely on the trusted client side, wrapping one
:class:`~repro.core.client.MonomiClient`:

* **Thread-pooled execution** — queries submit to a worker pool;
  :meth:`MonomiService.submit` returns a future,
  :meth:`MonomiService.execute` blocks for the outcome.
* **Per-worker backend connections** — each worker thread owns a
  :meth:`~repro.server.backend.ServerBackend.worker_view`: a dedicated
  SQLite connection over the shared(-cache) database, or lock-scoped
  access to the in-memory engine.  Per-query server state (cursors,
  stats) is never shared between workers.
* **Per-session cost ledgers** — a :class:`ServiceSession` accumulates
  its own :class:`~repro.common.ledger.CostLedger`; every query also
  returns its private per-query ledger, so concurrent sessions never
  share mutable ledger state.
* **One plan cache** — sessions look statements up in the client's
  :class:`~repro.core.plancache.PlanCache` (keyed on the statement text,
  then on ⟨normalized SQL, design fingerprint⟩) exactly as ``execute``,
  ``execute_iter`` and ``explain`` do: a statement the client already ran
  skips normalization and the rewriter/splitter/planner here too, and the
  other way round (the client's hit/miss counters in
  :meth:`MonomiService.stats`).
* **Prepared statements** — :meth:`MonomiService.prepare` parses and
  registers a ``:name`` template once; :meth:`MonomiService.execute_prepared`
  runs a binding through :meth:`MonomiService.submit`, so it gets the very
  plan ``execute`` of the same text and parameters gets: a repeated binding
  is a text-level hit, a fresh one a single-flight miss in the one cache.
* **Resilience** — ``timeout=`` on submit arms a deadline at *submit*
  time (queue wait counts against it).  The service adds no retry loop:
  each worker's executor is the client hop's one loop, and a transient
  fault that exhausts its budget reaches the caller typed.

Concurrency contract: results and ledger *byte counts* (transfer bytes,
scanned bytes, round trips) of every query are identical to running the
same query serially through the underlying client — the service changes
scheduling, never semantics.  The stress suite asserts this per query
across 8 concurrent sessions.

**DML and cache freshness.**  INSERT/UPDATE/DELETE submitted to the
service route to the client's encrypted DML executor, serialized by a
service-wide write lock (DML never runs concurrently with DML) and bound
to a worker view, so each backend operation is atomic against concurrent
readers.  The plan cache stays *valid* across DML: it memoizes plans,
never results, a plan re-scans live tables on every execution, and the
one statistic a plan embeds is sound for any value
(the argument is written once, on :meth:`MonomiClient.plan
<repro.core.client.MonomiClient.plan>`).  Only the cached cost
*estimates* go stale (they snapshot table sizes at plan time), which
affects `explain`-style reporting, not correctness; the client's planner
is refreshed after each DML statement so new plans estimate against
current sizes.  Isolation is per-backend-operation, not snapshot: an
analytic query racing a DML statement may observe it partially applied
(rows landed, homomorphic patch still in flight) — quiesce writes when
byte-exact repeatability across reads is required.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.common.errors import ConfigError, UnsupportedQueryError
from repro.common.ledger import CostLedger
from repro.common.retry import Deadline
from repro.core.client import MonomiClient, QueryOutcome
# Not called here; kept because the e2e tracer wraps this module's name.
from repro.core.normalize import normalize_dml, normalize_for_execution  # noqa: F401
from repro.core.pexec import PlanExecutor
from repro.core.plancache import PlanCacheStats, TextKey
from repro.core.planner import PlannedQuery
from repro.sql import ast, parse_statement, to_sql

DEFAULT_WORKERS = 4


class ServiceSession:
    """One analyst's session: a cumulative ledger over its queries.

    Sessions are cheap handles — all heavy state (connections, caches)
    lives in the service's workers.  A session may have several queries
    in flight at once; each query runs on its own per-query ledger and
    merges into the session total on completion, under the session lock.
    """

    def __init__(self, service: "MonomiService", session_id: int) -> None:
        self._service = service
        self.session_id = session_id
        self.ledger = CostLedger()
        self.queries_run = 0
        self._lock = threading.Lock()

    def submit(
        self,
        sql: str | ast.Select,
        params: dict[str, object] | None = None,
        timeout: float | None = None,
    ) -> Future:
        return self._service.submit(sql, params=params, session=self, timeout=timeout)

    def execute(
        self,
        sql: str | ast.Select,
        params: dict[str, object] | None = None,
        timeout: float | None = None,
    ) -> QueryOutcome:
        return self._service.execute(sql, params=params, session=self, timeout=timeout)

    def _absorb(self, ledger: CostLedger) -> None:
        with self._lock:
            self.ledger.merge(ledger)
            self.queries_run += 1


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service counters (``plan_cache`` is the client's)."""

    queries: int
    sessions_opened: int
    prepared_statements: int
    workers: int
    plan_cache: PlanCacheStats


@dataclass(frozen=True)
class PreparedStatement:
    """Opaque handle returned by :meth:`MonomiService.prepare`."""

    statement_id: int
    sql: str


class MonomiService:
    """Concurrent query service over one client's encrypted database.

    Usually built via :meth:`MonomiClient.service
    <repro.core.client.MonomiClient.service>`.  Use as a context manager
    or call :meth:`close` to release the worker pool and per-worker
    backend connections.
    """

    def __init__(self, client: MonomiClient, workers: int = DEFAULT_WORKERS) -> None:
        if workers < 1:
            raise ConfigError(f"service needs at least 1 worker, got {workers}")
        self._client = client
        self.workers = workers
        # Service-wide DML serialization: statements apply one at a time,
        # on a dedicated worker view (built lazily on first write).
        self._write_lock = threading.Lock()
        self._dml_executor_cached = None
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="monomi-service"
        )
        self._tls = threading.local()
        self._state_lock = threading.Lock()
        self._views: list = []
        self._session_ids = itertools.count(1)
        self._statement_ids = itertools.count(1)
        self._statements: set[PreparedStatement] = set()
        self._sessions_opened = 0
        self._queries = 0
        self._closed = False
        # Internal fallback for session-less submits; not a user session,
        # so it does not count toward stats().sessions_opened.
        self._default_session = ServiceSession(self, 0)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight queries, then release workers and connections."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._state_lock:
            views, self._views = self._views, []
        for view in views:
            view.close()

    def __enter__(self) -> "MonomiService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions -------------------------------------------------------------

    def open_session(self) -> ServiceSession:
        self._ensure_open()
        with self._state_lock:
            self._sessions_opened += 1
            return ServiceSession(self, next(self._session_ids))

    # -- ad-hoc queries -------------------------------------------------------

    def submit(
        self,
        sql: str | ast.Select,
        params: dict[str, object] | None = None,
        session: ServiceSession | None = None,
        timeout: float | None = None,
    ) -> Future:
        """Queue one query; the future resolves to a
        :class:`~repro.core.client.QueryOutcome`.

        ``timeout`` (seconds) arms a deadline *now*, at submit time — it
        covers time spent waiting in the worker queue, not just execution,
        so a saturated service times queries out instead of letting them
        age silently in the backlog.

        INSERT/UPDATE/DELETE are accepted too: they route to the encrypted
        DML path under the service write lock (see the module docstring).

        The statement is looked up and normalized here, on the caller's
        thread, so a bad statement raises from ``submit``; a plan-cache
        miss plans on the worker.
        """
        self._ensure_open()
        target = session or self._default_session
        deadline = Deadline.after(timeout) if timeout is not None else None
        planned, statement, text = self._client._resolve(sql, params)
        if ast.is_dml(statement):
            statement = normalize_dml(statement, params)
            return self._pool.submit(self._run_dml, target, statement, deadline)
        return self._pool.submit(
            self._run_query, target, planned, statement, text, deadline
        )

    def execute(
        self,
        sql: str | ast.Select,
        params: dict[str, object] | None = None,
        session: ServiceSession | None = None,
        timeout: float | None = None,
    ) -> QueryOutcome:
        return self.submit(
            sql, params=params, session=session, timeout=timeout
        ).result()

    # -- prepared statements --------------------------------------------------

    def prepare(self, sql: str | ast.Select) -> PreparedStatement:
        """Parse a ``:name``-parameterized template into a reusable handle.

        Only a SELECT can be prepared: DML raises
        :class:`~repro.common.errors.UnsupportedQueryError`.  A binding is
        planned by the client's plan cache, like any statement.
        """
        self._ensure_open()
        template = parse_statement(sql) if isinstance(sql, str) else sql
        if ast.is_dml(template):
            kind = type(template).__name__.upper()
            raise UnsupportedQueryError(
                f"{kind} statements cannot be prepared; use execute()"
            )
        text = sql if isinstance(sql, str) else to_sql(sql)
        with self._state_lock:
            statement = PreparedStatement(next(self._statement_ids), text)
            self._statements.add(statement)
        return statement

    def submit_prepared(
        self,
        statement: PreparedStatement,
        params: dict[str, object] | None = None,
        session: ServiceSession | None = None,
        timeout: float | None = None,
    ) -> Future:
        """:meth:`submit` of the statement's text: the same plan-cache
        lookup, hence the same plan, as an ad-hoc statement."""
        self._ensure_open()
        if statement not in self._statements:
            raise ConfigError(
                f"unknown prepared statement #{statement.statement_id} "
                "(prepared on another service?)"
            )
        return self.submit(statement.sql, params, session, timeout)

    def execute_prepared(
        self,
        statement: PreparedStatement,
        params: dict[str, object] | None = None,
        session: ServiceSession | None = None,
        timeout: float | None = None,
    ) -> QueryOutcome:
        return self.submit_prepared(
            statement, params=params, session=session, timeout=timeout
        ).result()

    # -- reporting ------------------------------------------------------------

    def stats(self) -> ServiceStats:
        with self._state_lock:
            return ServiceStats(
                queries=self._queries,
                sessions_opened=self._sessions_opened,
                prepared_statements=len(self._statements),
                workers=self.workers,
                plan_cache=self._client.plan_cache.stats(),
            )

    # -- internals ------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigError("service is closed")

    def _worker_executor(self) -> PlanExecutor:
        """This worker thread's executor (lazily built, with its own
        backend view)."""
        executor = getattr(self._tls, "executor", None)
        if executor is None:
            view = self._client.backend.worker_view()
            executor = self._client.executor.clone_with_backend(view)
            self._tls.executor = executor
            with self._state_lock:
                self._views.append(view)
        return executor

    def _finish(
        self,
        session: ServiceSession,
        planned: PlannedQuery,
        deadline: Deadline | None = None,
    ) -> QueryOutcome:
        executor = self._worker_executor()
        result, ledger = executor.execute(planned.plan, deadline=deadline)
        session._absorb(ledger)
        with self._state_lock:
            self._queries += 1
        return QueryOutcome(result, ledger, planned)

    def _run_query(
        self,
        session: ServiceSession,
        planned: PlannedQuery | None,
        query: ast.Select | None,
        text: TextKey | None,
        deadline: Deadline | None = None,
    ) -> QueryOutcome:
        """Run a text-level hit's ``planned``, or plan the normalized
        ``query`` first (the client's counted lookup, single-flight)."""
        if deadline is not None:
            deadline.check("query (queued)")
        if planned is None:
            planned, _ = self._client._plan(query, text)
        return self._finish(session, planned, deadline)

    def _dml_executor(self):
        """The service's DML executor: bound to its own worker view so each
        backend call serializes against concurrent readers, and sharing the
        client executor's listener list so maintained aggregates see writes
        regardless of which path applied them.  Caller holds the write lock.
        """
        if self._dml_executor_cached is None:
            from repro.core.dml import DmlExecutor

            view = self._client.backend.worker_view()
            with self._state_lock:
                self._views.append(view)
            executor = DmlExecutor(self._client, backend=view)
            executor.listeners = self._client.dml.listeners
            self._dml_executor_cached = executor
        return self._dml_executor_cached

    def _run_dml(
        self,
        session: ServiceSession,
        statement,
        deadline: Deadline | None = None,
    ) -> QueryOutcome:
        if deadline is not None:
            deadline.check("dml (queued)")
        with self._write_lock:
            result, ledger = self._dml_executor().execute(statement)
            self._client._refresh_planner()
        session._absorb(ledger)
        with self._state_lock:
            self._queries += 1
        return QueryOutcome(result, ledger, None)
