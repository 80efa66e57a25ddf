"""Concurrent query-service layer: plan cache, sessions, prepared
statements, and the 8-session concurrency stress harness.

Equivalence contract under test: every query through
:class:`~repro.service.MonomiService` — whatever worker thread, session,
or cache state serves it — returns the same plaintext rows and the same
ledger *byte counts* (transfer bytes, scanned bytes, round trips) as the
same query run serially through the underlying client.  Measured seconds
legitimately differ; byte counts never may.

The prepared-statement fast path has a stronger, deterministic invariant:
a literal re-bind must produce a plan *identical* to re-running Algorithm
1 under the anchored unit choice (``Planner.plan_with_units``) — asserted
structurally on the printed plans.  Against a fresh full-planner run only
rows are compared: the optimizer may legitimately pick a different split
shape for a literal with different selectivity, which is exactly the
prepared-statement trade-off.
"""

from __future__ import annotations

import datetime
import random
import threading

import pytest

from repro.common.errors import ConfigError, UnsupportedQueryError
from repro.core import MonomiClient, normalize_query
from repro.core.planner import PlannedQuery
from repro.service import (
    MonomiService,
    PlanCache,
    plan_cache_key,
)
from repro.service.prepared import (
    PreparedPlan,
    RebindError,
    param_sites,
    rebind_plan,
    substitution_safety,
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


class TestPreparedAnalysis:
    def test_param_sites(self):
        template = parse(
            "SELECT o_price FROM orders WHERE o_price > :p AND o_qty < :q "
            "AND o_custkey <> :p"
        )
        assert param_sites(template) == {"p": 2, "q": 1}

    def test_safety_accepts_distinct_values(self):
        template = parse("SELECT o_price FROM orders WHERE o_price > :p")
        normalized = normalize_query(template, {"p": 500})
        assert substitution_safety(template, normalized, {"p": 500})

    def test_safety_rejects_value_collision_with_literal(self):
        template = parse(
            "SELECT o_price FROM orders WHERE o_price > :p AND o_qty < 500"
        )
        normalized = normalize_query(template, {"p": 500})
        assert not substitution_safety(template, normalized, {"p": 500})

    def test_safety_rejects_shared_param_values(self):
        template = parse(
            "SELECT o_price FROM orders WHERE o_price > :a AND o_qty < :b"
        )
        normalized = normalize_query(template, {"a": 7, "b": 7})
        assert not substitution_safety(template, normalized, {"a": 7, "b": 7})

    def test_safety_rejects_folded_param(self):
        # DATE :d - INTERVAL folds the parameter into a new literal, so the
        # bound value never appears verbatim — substitution must refuse.
        template = parse(
            "SELECT o_price FROM orders "
            "WHERE o_date >= :d - INTERVAL '30' DAY"
        )
        params = {"d": datetime.date(1995, 6, 1)}
        normalized = normalize_query(template, params)
        assert not substitution_safety(template, normalized, params)

    def test_safety_rejects_like_params(self):
        template = parse(
            "SELECT o_comment FROM orders WHERE o_comment LIKE :pat"
        )
        params = {"pat": "%brown%"}
        normalized = normalize_query(template, params)
        assert not substitution_safety(template, normalized, params)

    def test_rebind_requires_same_types(self, sales_client):
        template = parse("SELECT o_price FROM orders WHERE o_price > :p")
        normalized = normalize_query(template, {"p": 500})
        planned = sales_client.plan(normalized)
        entry = PreparedPlan(planned, {"p": 500}, True)
        with pytest.raises(RebindError):
            rebind_plan(entry, sales_client.provider, {"p": "high"})
        with pytest.raises(RebindError):
            rebind_plan(entry, sales_client.provider, {"q": 700})


class TestPreparedExecution:
    def test_rebind_identical_to_unit_replanning(self, sales_client):
        """The deterministic fast-path invariant: literal substitution
        must reproduce exactly the plan Algorithm 1 yields under the
        anchored unit choice."""
        cases = [
            (PRICE_TEMPLATE, [{"p": 400}, {"p": 900}, {"p": 2200}]),
            (
                "SELECT o_orderkey, o_price FROM orders "
                "WHERE o_price BETWEEN :lo AND :hi ORDER BY o_price",
                [{"lo": 100, "hi": 900}, {"lo": 50, "hi": 2000}],
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
        for template_sql, value_sets in cases:
            template = parse(template_sql)
            anchor_params = value_sets[0]
            normalized = normalize_query(template, anchor_params)
            anchor = sales_client.plan(normalized)
            assert substitution_safety(template, normalized, anchor_params)
            entry = PreparedPlan(anchor, anchor_params, True)
            for params in value_sets[1:]:
                rebound = rebind_plan(entry, sales_client.provider, params)
                replanned = sales_client.plan_with_units(
                    normalize_query(template, params), anchor.chosen_units
                )
                assert plan_text(rebound.plan) == plan_text(replanned.plan)

    def test_prepared_results_match_adhoc(self, each_backend_client):
        client = each_backend_client
        with client.service(workers=2) as service:
            statement = service.prepare(PRICE_TEMPLATE)
            for value in (400, 900, 2200, 400):
                got = service.execute_prepared(statement, {"p": value})
                want = client.execute(PRICE_TEMPLATE, {"p": value})
                assert canonical(got.rows) == canonical(want.rows), value
            stats = service.stats()
            assert stats.prepared_statements == 1
            assert stats.prepared_fast_rebinds >= 1

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
                # Exactly one full plan (the anchor, through the client's
                # cache); the repeat came out of the statement's plan
                # cache — no re-plan, no re-bind.
                assert planner_calls == 1
                assert service.stats().prepared_fast_rebinds == 0
                assert canonical(again.rows) == canonical(first.rows)
                assert ledger_bytes(again.ledger) == ledger_bytes(first.ledger)
        finally:
            sales_client.planner.plan = original_plan

    def test_prepared_plans_never_leak_into_adhoc_cache(self, sales_client):
        """Regression: a re-bound prepared plan keeps its anchor's split
        shape, so it must never serve ad-hoc executions of the same SQL
        text — those must match serial client execution byte-for-byte."""
        with sales_client.service(workers=2) as service:
            statement = service.prepare(PRICE_TEMPLATE)
            for value in (400, 900):
                service.execute_prepared(statement, {"p": value})
            # Ad-hoc execution of the identical bound text goes through
            # the full planner, exactly like the serial client.
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
            assert service.stats().prepared_replans >= 1

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
