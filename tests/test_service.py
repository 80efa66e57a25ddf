"""Concurrent query-service layer: plan cache, sessions, prepared
statements, and the 8-session concurrency stress harness.

Equivalence contract under test: every query through
:class:`~repro.service.MonomiService` — whatever worker thread, session,
or cache state serves it — returns the same plaintext rows and the same
ledger *byte counts* (transfer bytes, scanned bytes, round trips) as the
same query run serially through the underlying client.  Measured seconds
legitimately differ; byte counts never may.

A prepared statement is sugar over the client's plan cache, so its
invariant is stronger still: every binding runs the very plan object
``client.execute`` of the same text and parameters runs — equal rows,
ledger bytes and printed plan on each backend, even for a binding whose
best split differs from an earlier binding's.
"""

from __future__ import annotations

import datetime
import decimal
import random
import threading

import pytest

from repro.common.errors import (
    ConfigError,
    ParseError,
    PlanningError,
    UnsupportedQueryError,
)
from repro.core import MonomiClient, normalize_query
from repro.core.planner import PlannedQuery
from repro.service import (
    MonomiService,
    PlanCache,
    plan_cache_key,
)
from repro.sql import parse, to_sql
from repro.ssb import generate as ssb_generate
from repro.ssb import ssb_queries
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, canonical
from repro.tpch import generate as tpch_generate
from repro.tpch import tpch_queries

TPCH_SCALE = 0.0003
TPCH_NUMBERS = (1, 3, 6, 12)
SSB_SCALE = 0.0002
SSB_NUMBERS = ("1.1", "2.1", "3.1")


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


def plan_text(plan) -> str:
    """Structural identity of a split plan (printed remote + residual SQL)."""
    parts = []
    if plan.residual is not None:
        parts.append("residual: " + to_sql(plan.residual))
    parts.extend("remote: " + to_sql(r.query) for r in plan.remote_relations())
    return "\n".join(parts)


def make_planned(tag: str) -> PlannedQuery:
    """A distinguishable stand-in for cache unit tests."""
    return PlannedQuery(plan=tag, cost=None, chosen_units=(), candidates_tried=0)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Plan cache + keying rule
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_miss_then_hit_counts(self):
        cache = PlanCache(capacity=4)
        key = ("SELECT 1", "fp")
        assert cache.get(key) is None
        cache.put(key, make_planned("a"))
        assert cache.get(key).plan == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put(("q1", "fp"), make_planned("1"))
        cache.put(("q2", "fp"), make_planned("2"))
        assert cache.get(("q1", "fp")) is not None  # q1 now most recent
        cache.put(("q3", "fp"), make_planned("3"))  # evicts q2
        assert cache.get(("q2", "fp")) is None
        assert cache.get(("q1", "fp")) is not None
        assert cache.stats().evictions == 1

    def test_peek_does_not_count(self):
        cache = PlanCache(capacity=2)
        assert cache.peek(("q", "fp")) is None
        cache.put(("q", "fp"), make_planned("x"))
        assert cache.peek(("q", "fp")).plan == "x"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            PlanCache(capacity=0)

    def test_clear_and_len(self):
        cache = PlanCache(capacity=4)
        cache.put(("q", "fp"), make_planned("x"))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_key_normalization_merges_equivalent_texts(self, sales_client):
        # AVG expands to SUM/COUNT during normalization, so the two texts
        # share one cache entry; that is the documented keying rule.
        fp = sales_client.design_fingerprint
        a = plan_cache_key(
            normalize_query(parse("SELECT AVG(o_price) FROM orders")), fp
        )
        b = plan_cache_key(
            normalize_query(
                parse("SELECT SUM(o_price) / COUNT(o_price) FROM orders")
            ),
            fp,
        )
        assert a == b

    def test_key_separates_literals_and_designs(self, sales_client):
        design = sales_client.design
        fp = design.fingerprint()
        q1 = normalize_query(parse("SELECT o_price FROM orders WHERE o_price > 5"))
        q2 = normalize_query(parse("SELECT o_price FROM orders WHERE o_price > 6"))
        assert plan_cache_key(q1, fp) != plan_cache_key(q2, fp)
        smaller = design.without_entry(next(iter(design.entries))).fingerprint()
        assert plan_cache_key(q1, fp) != plan_cache_key(q1, smaller)


class TestDesignFingerprint:
    def test_stable_and_order_insensitive(self, sales_client):
        design = sales_client.design
        assert design.fingerprint() == design.copy().fingerprint()

    def test_sensitive_to_entries(self, sales_client):
        design = sales_client.design
        assert (
            design.fingerprint()
            != design.without_entry(next(iter(design.entries))).fingerprint()
        )


# ---------------------------------------------------------------------------
# Service basics (both backends via the shared conftest fixtures)
# ---------------------------------------------------------------------------


class TestServiceBasics:
    def test_execute_matches_client(self, each_backend_client):
        client = each_backend_client
        with client.service(workers=2) as service:
            for sql in SALES_WORKLOAD:
                want = client.execute(sql)
                got = service.execute(sql)
                assert canonical(got.rows) == canonical(want.rows)
                assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)

    def test_repeat_query_hits_cache_and_skips_planner(self, sales_client):
        with sales_client.service(workers=2) as service:
            sql = SALES_WORKLOAD[0]
            first = service.execute(sql)
            planner_calls = 0
            original = sales_client.planner.plan

            def counting_plan(query):
                nonlocal planner_calls
                planner_calls += 1
                return original(query)

            sales_client.planner.plan = counting_plan
            try:
                again = service.execute(sql)
            finally:
                sales_client.planner.plan = original
            assert planner_calls == 0  # served from the plan cache
            assert canonical(again.rows) == canonical(first.rows)
            assert ledger_bytes(again.ledger) == ledger_bytes(first.ledger)
            stats = service.stats()
            assert stats.plan_cache.hits >= 1
            assert stats.plan_cache.misses >= 1

    def test_session_ledger_accumulates(self, sales_client):
        with sales_client.service(workers=2) as service:
            session = service.open_session()
            outcomes = [session.execute(sql) for sql in SALES_WORKLOAD[:3]]
            assert session.queries_run == 3
            assert session.ledger.transfer_bytes == sum(
                o.ledger.transfer_bytes for o in outcomes
            )
            assert session.ledger.round_trips == sum(
                o.ledger.round_trips for o in outcomes
            )

    def test_sessions_are_isolated(self, sales_client):
        with sales_client.service(workers=2) as service:
            a = service.open_session()
            b = service.open_session()
            a.execute(SALES_WORKLOAD[0])
            assert b.queries_run == 0
            assert b.ledger.transfer_bytes == 0
            assert a.session_id != b.session_id

    def test_submit_returns_future(self, sales_client):
        with sales_client.service(workers=2) as service:
            future = service.submit(SALES_WORKLOAD[0])
            outcome = future.result(timeout=60)
            want = sales_client.execute(SALES_WORKLOAD[0])
            assert canonical(outcome.rows) == canonical(want.rows)

    def test_closed_service_rejects_work(self, sales_client):
        service = sales_client.service(workers=1)
        service.close()
        with pytest.raises(ConfigError):
            service.execute(SALES_WORKLOAD[0])
        service.close()  # idempotent

    def test_worker_count_validated(self, sales_client):
        with pytest.raises(ConfigError):
            MonomiService(sales_client, workers=0)

    def test_stats_counts_queries_and_sessions(self, sales_client):
        with sales_client.service(workers=2) as service:
            service.open_session()
            service.execute(SALES_WORKLOAD[0])
            stats = service.stats()
            assert stats.queries == 1
            # The internal default session is not a user session.
            assert stats.sessions_opened == 1
            assert stats.workers == 2


# ---------------------------------------------------------------------------
# Prepared statements
# ---------------------------------------------------------------------------

PRICE_TEMPLATE = (
    "SELECT o_custkey, SUM(o_price) AS t FROM orders "
    "WHERE o_price > :p GROUP BY o_custkey"
)
RANGE_TEMPLATE = (
    "SELECT o_orderkey, o_price FROM orders "
    "WHERE o_price BETWEEN :lo AND :hi ORDER BY o_price"
)


class TestPreparedExecution:
    @pytest.mark.parametrize(
        "fixture",
        ["sales_client", "sales_client_sqlite", "sales_client_remote"],
        ids=["memory", "sqlite", "tcp"],
    )
    def test_prepared_results_match_adhoc(self, request, fixture):
        """A binding runs the plan ``client.execute`` runs for the same
        text, including (0, 1000000), whose best split ships both DET
        columns where (100, 900) filters on OPE server-side."""
        client = request.getfixturevalue(fixture)
        cases = [
            (PRICE_TEMPLATE, [{"p": v} for v in (400, 900, 2200, 400)]),
            (
                RANGE_TEMPLATE,
                [
                    {"lo": 100, "hi": 900},
                    {"lo": 0, "hi": 1000000},
                    {"lo": 100, "hi": 900},
                    {"lo": 750.0, "hi": 1000000},
                ],
            ),
            (
                "SELECT COUNT(*) FROM orders WHERE o_status = :s",
                [{"s": "OPEN"}, {"s": "RETURNED"}],
            ),
            (
                "SELECT o_custkey, SUM(o_qty) AS q FROM orders "
                "WHERE o_date >= :d GROUP BY o_custkey",
                [
                    {"d": datetime.date(1995, 6, 1)},
                    {"d": datetime.date(1996, 1, 1)},
                ],
            ),
        ]
        with client.service(workers=2) as service:
            for template, bindings in cases:
                statement = service.prepare(template)
                for params in bindings:
                    got = service.execute_prepared(statement, params)
                    want = client.execute(template, params)
                    assert got.planned is want.planned, params
                    assert plan_text(got.planned.plan) == plan_text(
                        want.planned.plan
                    ), params
                    assert canonical(got.rows) == canonical(want.rows), params
                    assert ledger_bytes(got.ledger) == ledger_bytes(
                        want.ledger
                    ), params
            assert service.stats().prepared_statements == len(cases)

    def test_prepared_repeat_value_served_from_cache(self, sales_client):
        planner_calls = 0
        original_plan = sales_client.planner.plan

        def counting_plan(query):
            nonlocal planner_calls
            planner_calls += 1
            return original_plan(query)

        sales_client.planner.plan = counting_plan
        sales_client.plan_cache.clear()
        try:
            with sales_client.service(workers=2) as service:
                statement = service.prepare(PRICE_TEMPLATE)
                first = service.execute_prepared(statement, {"p": 700})
                again = service.execute_prepared(statement, {"p": 700})
                # Exactly one full plan; the repeat is a text-level hit in
                # the client's plan cache.
                assert planner_calls == 1
                assert canonical(again.rows) == canonical(first.rows)
                assert ledger_bytes(again.ledger) == ledger_bytes(first.ledger)
        finally:
            sales_client.planner.plan = original_plan

    def test_prepared_plans_never_leak_into_adhoc_cache(self, sales_client):
        """Ad-hoc execution of a text a prepared statement already bound
        matches serial client execution byte-for-byte."""
        with sales_client.service(workers=2) as service:
            statement = service.prepare(PRICE_TEMPLATE)
            for value in (400, 900):
                service.execute_prepared(statement, {"p": value})
            got = service.execute(PRICE_TEMPLATE, {"p": 900})
            want = sales_client.execute(PRICE_TEMPLATE, {"p": 900})
            assert canonical(got.rows) == canonical(want.rows)
            assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)

    def test_prepared_type_change_falls_back_to_replan(self, sales_client):
        template = (
            "SELECT o_orderkey FROM orders WHERE o_price > :p ORDER BY "
            "o_orderkey"
        )
        with sales_client.service(workers=2) as service:
            statement = service.prepare(template)
            service.execute_prepared(statement, {"p": 500})
            got = service.execute_prepared(statement, {"p": 750.0})
            want = sales_client.execute(template, {"p": 750.0})
            assert canonical(got.rows) == canonical(want.rows)

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO orders VALUES "
            "(999, 1, 100, 1, 0, DATE '1996-01-01', 'OPEN', 'x')",
            "DELETE FROM orders WHERE o_orderkey = :k",
        ],
        ids=["insert", "delete"],
    )
    def test_prepare_refuses_dml_by_kind(self, sales_client, sql):
        kind = sql.split()[0]
        with sales_client.service(workers=1) as service:
            with pytest.raises(UnsupportedQueryError, match=f"^{kind} statements"):
                service.prepare(sql)
            assert service.stats().prepared_statements == 0

    def test_unknown_statement_rejected(self, sales_client):
        with sales_client.service(workers=1) as service:
            foreign = service.prepare(PRICE_TEMPLATE)
        with sales_client.service(workers=1) as other:
            with pytest.raises(ConfigError):
                other.execute_prepared(foreign, {"p": 1})

    def test_closed_service_refuses_prepared_work(self, sales_client):
        service = sales_client.service(workers=1)
        statement = service.prepare(PRICE_TEMPLATE)
        service.close()
        with pytest.raises(ConfigError, match="closed"):
            service.prepare(PRICE_TEMPLATE)
        with pytest.raises(ConfigError, match="closed"):
            service.submit_prepared(statement, {"p": 1})

    def test_prepare_rejects_malformed_template(self, sales_client):
        with sales_client.service(workers=1) as service:
            with pytest.raises(ParseError):
                service.prepare("SELECT FROM orders WHERE o_price > :p")
            assert service.stats().prepared_statements == 0

    def test_prepared_ast_template_runs_its_printed_text(self, sales_client):
        """A parsed template is registered under its printed SQL, and a
        binding shares the plan of the source text's binding."""
        template = parse(PRICE_TEMPLATE)
        with sales_client.service(workers=2) as service:
            statement = service.prepare(template)
            assert statement.sql == to_sql(template)
            got = service.execute_prepared(statement, {"p": 650})
            want = sales_client.execute(PRICE_TEMPLATE, {"p": 650})
            assert got.planned is want.planned
            assert canonical(got.rows) == canonical(want.rows)
            assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)

    def test_prepared_binding_reuses_the_clients_plan(self, sales_client):
        """A binding ``client.execute`` already planned is one counted hit
        in the shared cache and never reaches the planner."""
        params = {"p": 1234}
        want = sales_client.execute(PRICE_TEMPLATE, params)
        planner_calls = 0
        original_plan = sales_client.planner.plan

        def counting_plan(query):
            nonlocal planner_calls
            planner_calls += 1
            return original_plan(query)

        sales_client.planner.plan = counting_plan
        try:
            with sales_client.service(workers=2) as service:
                statement = service.prepare(PRICE_TEMPLATE)
                before = service.stats().plan_cache
                got = service.execute_prepared(statement, params)
                after = service.stats().plan_cache
        finally:
            sales_client.planner.plan = original_plan
        assert planner_calls == 0
        assert got.planned is want.planned
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert canonical(got.rows) == canonical(want.rows)
        assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger)

    def test_concurrent_fresh_binding_plans_once(self, sales_client):
        """Racing workers on one unseen binding share a single plan."""
        planner_calls = 0
        original_plan = sales_client.planner.plan

        def counting_plan(query):
            nonlocal planner_calls  # Serialized by the client's plan lock.
            planner_calls += 1
            return original_plan(query)

        sales_client.planner.plan = counting_plan
        sales_client.plan_cache.clear()
        try:
            with sales_client.service(workers=4) as service:
                statement = service.prepare(PRICE_TEMPLATE)
                futures = [
                    service.submit_prepared(statement, {"p": 1717})
                    for _ in range(8)
                ]
                outcomes = [f.result(timeout=60) for f in futures]
        finally:
            sales_client.planner.plan = original_plan
        assert planner_calls == 1
        assert len({id(o.planned) for o in outcomes}) == 1
        want = sales_client.execute(PRICE_TEMPLATE, {"p": 1717})
        for outcome in outcomes:
            assert outcome.planned is want.planned
            assert canonical(outcome.rows) == canonical(want.rows)
            assert ledger_bytes(outcome.ledger) == ledger_bytes(want.ledger)

    def test_prepared_binding_charges_its_session(self, sales_client):
        with sales_client.service(workers=2) as service:
            statement = service.prepare(PRICE_TEMPLATE)
            session = service.open_session()
            outcomes = [
                service.execute_prepared(statement, {"p": v}, session=session)
                for v in (300, 1500)
            ]
            assert session.queries_run == 2
            assert session.ledger.transfer_bytes == sum(
                o.ledger.transfer_bytes for o in outcomes
            )
            assert session.ledger.round_trips == sum(
                o.ledger.round_trips for o in outcomes
            )

    @pytest.mark.parametrize(
        "params, message",
        [
            ({}, "unbound parameter :p"),
            ({"q": 1}, "unbound parameter :p"),
            ({"p": decimal.Decimal("1")}, "unsupported type Decimal"),
        ],
        ids=["unbound", "misnamed", "unprintable"],
    )
    def test_bad_binding_raises_at_submit_like_execute(
        self, sales_client, params, message
    ):
        """A binding ``client.execute`` refuses raises the same error from
        ``submit_prepared`` itself, on the caller's thread, and leaves the
        plan cache and the query count untouched."""
        with pytest.raises(PlanningError, match=message):
            sales_client.execute(PRICE_TEMPLATE, params)
        with sales_client.service(workers=1) as service:
            statement = service.prepare(PRICE_TEMPLATE)
            before = service.stats().plan_cache
            with pytest.raises(PlanningError, match=message):
                service.submit_prepared(statement, params)
            after = service.stats()
            assert after.plan_cache == before
            assert after.queries == 0


# ---------------------------------------------------------------------------
# Concurrency stress: 8 sessions, mixed workloads, vs serial references
# ---------------------------------------------------------------------------


def distinct_statements(workload: list[str]) -> int:
    """How many plan-cache keys ``workload`` has (normalized SQL texts)."""
    return len({to_sql(normalize_query(parse(sql))) for sql in workload})


def run_stress(client, workload: list[str], sessions: int = 8, repeats: int = 2):
    """Run ``sessions`` concurrent sessions over shuffled copies of
    ``workload`` and assert each outcome matches its serial reference.

    Also asserts the planner runs at most once per distinct normalized
    statement across the client and the service: the serial references
    plan each statement (or find it cached), and every service execution
    after them — across sessions, orders, and races — is a hit in the
    client's plan cache.
    """
    planner_calls = 0
    original_plan = client.planner.plan

    def counting_plan(query):
        nonlocal planner_calls  # Serialized by the client's plan lock.
        planner_calls += 1
        return original_plan(query)

    client.planner.plan = counting_plan
    try:
        references = {}
        for sql in workload:
            outcome = client.execute(sql)
            references[sql] = (
                canonical(outcome.rows),
                ledger_bytes(outcome.ledger),
            )
        before = client.plan_cache.stats()
        with client.service(workers=sessions) as service:
            handles = [service.open_session() for _ in range(sessions)]
            futures = []
            for session in handles:
                mixed = list(workload) * repeats
                random.Random(session.session_id).shuffle(mixed)
                for sql in mixed:
                    futures.append((sql, session.submit(sql)))
            for sql, future in futures:
                outcome = future.result(timeout=600)
                want_rows, want_ledger = references[sql]
                assert canonical(outcome.rows) == want_rows, sql
                assert ledger_bytes(outcome.ledger) == want_ledger, sql
            stats = service.stats()
            assert stats.queries == len(futures)
            assert stats.plan_cache.hits - before.hits == len(futures)
            assert stats.plan_cache.misses == before.misses
            assert planner_calls <= distinct_statements(workload)
            # Per-session ledger totals equal the serial sums of their
            # queries.
            total = sum(h.ledger.transfer_bytes for h in handles)
            per_query = sum(references[sql][1][0] for sql, _ in futures)
            assert total == per_query
    finally:
        client.planner.plan = original_plan
    return stats


class TestConcurrentStress:
    def test_sales_eight_sessions_both_backends(self, each_backend_client):
        run_stress(each_backend_client, SALES_WORKLOAD)

    def test_plan_cache_hits_never_change_results(self, sales_client):
        # Same query through many sessions at once, then through the
        # client: from an empty cache the planner runs exactly once
        # (single-flight) across client and service, and every execution
        # returns identical output whether it planned, waited, or hit.
        sql = SALES_WORKLOAD[1]
        planner_calls = 0
        original_plan = sales_client.planner.plan

        def counting_plan(query):
            nonlocal planner_calls
            planner_calls += 1
            return original_plan(query)

        sales_client.planner.plan = counting_plan
        sales_client.plan_cache.clear()
        before = sales_client.plan_cache.stats()
        try:
            with sales_client.service(workers=4) as service:
                futures = [service.submit(sql) for _ in range(12)]
                outcomes = [future.result(timeout=600) for future in futures]
                want = sales_client.execute(sql)
                for outcome in outcomes:
                    assert canonical(outcome.rows) == canonical(want.rows)
                    assert ledger_bytes(outcome.ledger) == ledger_bytes(
                        want.ledger
                    )
                cache = service.stats().plan_cache
                assert planner_calls == 1
                assert (cache.hits + cache.misses) - (
                    before.hits + before.misses
                ) == 13
                assert cache.hits - before.hits >= 1
        finally:
            sales_client.planner.plan = original_plan

    def test_concurrent_worker_views_see_consistent_state(self, sales_client):
        # Hammer one view-per-thread path without the service wrapper:
        # every thread drains the same query through its own worker view.
        want = sales_client.execute(SALES_WORKLOAD[0])
        errors: list[Exception] = []

        def worker():
            try:
                view = sales_client.backend.worker_view()
                executor = sales_client.executor.clone_with_backend(view)
                planned = sales_client.plan(
                    normalize_query(parse(SALES_WORKLOAD[0]))
                )
                result, ledger = executor.execute(planned.plan)
                assert canonical(result.rows) == canonical(want.rows)
                assert ledger_bytes(ledger) == ledger_bytes(want.ledger)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not errors


# ---------------------------------------------------------------------------
# TPC-H / SSB mixed workload (the acceptance-criterion harness)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_service_client():
    db = tpch_generate(scale=TPCH_SCALE, seed=5)
    queries = tpch_queries(TPCH_SCALE)
    workload = [queries[n].sql for n in TPCH_NUMBERS]
    client = MonomiClient.setup(
        db,
        workload,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.0,
    )
    return client, workload


@pytest.fixture(scope="module")
def ssb_service_client():
    db = ssb_generate(scale=SSB_SCALE, seed=13)
    queries = ssb_queries()
    workload = [queries[n].sql for n in SSB_NUMBERS]
    client = MonomiClient.setup(
        db,
        workload,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.0,
    )
    return client, workload


class TestMixedWorkloadStress:
    def test_tpch_eight_sessions_byte_identical(self, tpch_service_client):
        """Acceptance criterion: 8 concurrent TPC-H sessions, byte-identical
        plaintexts and ledger totals, repeat plans from the cache."""
        client, workload = tpch_service_client
        stats = run_stress(client, workload, sessions=8, repeats=2)
        # run_stress asserted the planner ran at most once per distinct
        # statement and every service execution hit the cache; the totals
        # reconcile here.
        assert stats.queries == len(workload) * 8 * 2

    def test_mixed_tpch_ssb_interleaved(
        self, tpch_service_client, ssb_service_client
    ):
        """8 threads interleave TPC-H and SSB queries across two services
        sharing one process: per-query outputs must match their serial
        references on both."""
        tpch_client, tpch_workload = tpch_service_client
        ssb_client, ssb_workload = ssb_service_client
        references = {}
        for client, workload in (
            (tpch_client, tpch_workload),
            (ssb_client, ssb_workload),
        ):
            for sql in workload:
                outcome = client.execute(sql)
                references[sql] = (
                    canonical(outcome.rows),
                    ledger_bytes(outcome.ledger),
                )
        with tpch_client.service(workers=4) as tpch_service:
            with ssb_client.service(workers=4) as ssb_service:
                jobs = []
                for seed in range(8):
                    mixed = [
                        (tpch_service, sql) for sql in tpch_workload
                    ] + [(ssb_service, sql) for sql in ssb_workload]
                    random.Random(seed).shuffle(mixed)
                    session_pair = (
                        tpch_service.open_session(),
                        ssb_service.open_session(),
                    )
                    for service, sql in mixed:
                        session = session_pair[0 if service is tpch_service else 1]
                        jobs.append((sql, session.submit(sql)))
                for sql, future in jobs:
                    outcome = future.result(timeout=600)
                    want_rows, want_ledger = references[sql]
                    assert canonical(outcome.rows) == want_rows, sql
                    assert ledger_bytes(outcome.ledger) == want_ledger, sql
