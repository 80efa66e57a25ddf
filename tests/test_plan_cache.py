"""The client's plan cache: one plan per distinct normalized statement.

``MonomiClient.plan`` is the one way into the planner; ``execute``,
``execute_iter``, ``explain`` and the service's sessions share its
⟨normalized SQL, design fingerprint⟩ cache, and its text level in front,
keyed on the statement string and its typed parameters.  Pinned here:

* a cached plan survives INSERT, UPDATE and DELETE, including the one
  plan element built from mutable statistics — the §5.4 pre-filter of
  ``HAVING SUM(o_qty) > 120``, whose column maximum goes stale — on the
  in-memory backend, SQLite and two shards, against the plaintext oracle;
* the key is sound: printing a normalized statement and parsing it back
  gives the statement back, with every bound literal's type and value;
* same inputs, same plan: a fresh client plans the same text, and a
  repeat is a hit in the client and in a service session alike;
* ``explain`` and ``execute`` agree on what they reject and on the plan;
* an exact repeat of a statement's text is answered by the text level
  with the very plan the normalized level holds, without normalizing, in
  the client and the service alike; values that compare equal in Python
  (``1``, ``True``, ``1.0``; ``0.0``, ``-0.0``) key apart; failures are
  never cached; an evicted plan re-plans with one counted miss;
* a parameter the SQL printer cannot print raises ``PlanningError`` at
  binding, on every entry point.

The clients here run writes, so the module builds its own.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import sys
import threading
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.client as client_module
from repro.common.errors import ParseError, PlanningError, UnsupportedQueryError
from repro.core import (
    CryptoProvider,
    DecryptionProfile,
    MonomiClient,
    Planner,
    normalize_query,
)
from repro.core.plancache import PlanCache, text_cache_key
from repro.engine import Executor
from repro.service import plan_cache_key
from repro.sql import ast, parse
from repro.ssb import ssb_queries
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, apply_plain_dml, build_sales_db
from repro.tpch import tpch_queries

PINS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "pins"
NUM_ORDERS = 40
#: ``HAVING SUM(o_qty) > 120``: the planner ships the §5.4 pre-filter
#: ``MAX(o_qty_ope) > E(m) OR COUNT(*) > 120/m`` with the column maximum m.
HAVING_PROBE = SALES_WORKLOAD[2]
PREFILTER = "HAVING max(o_qty_ope) >"
NEW_CUSTOMER = 31

CORPUS = (
    list(SALES_WORKLOAD)
    + [q.sql for q in tpch_queries(0.001).values()]
    + [q.sql for q in ssb_queries().values()]
)
PARAM_VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(),
    st.sampled_from(["it's", "naïve -- not a comment", "'", "", "1"]),
    st.dates(),
    st.none(),
)


@pytest.fixture(scope="module")
def pinned_provider():
    """The committed decryption profile, so the designer picks OPE on
    ``o_qty`` (the pre-filter's arm) on any machine."""
    constants = json.loads((PINS / "decryption_profile.json").read_text())
    return CryptoProvider(
        MASTER_KEY,
        paillier_bits=384,
        decryption_profile=DecryptionProfile(**constants),
    )


@pytest.fixture(scope="module")
def sales_design(pinned_provider):
    return make_client(pinned_provider).design


def make_client(provider, design=None, backend="memory", shards=None):
    """``shards=None`` leaves the shard count to ``--shards``."""
    return MonomiClient.setup(
        build_sales_db(NUM_ORDERS),
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=design,
        backend=backend,
        **({} if shards is None else {"shards": shards}),
    )


def plain_rows(db, sql: str) -> list[tuple]:
    return Executor(db).execute(normalize_query(parse(sql))).rows


@pytest.fixture
def planner_calls(monkeypatch):
    """Every ``Planner.plan`` call, on whichever planner the client holds
    (a write swaps in a new one)."""
    calls: list = []
    real_plan = Planner.plan

    def counting_plan(self, query):
        calls.append(query)
        return real_plan(self, query)

    monkeypatch.setattr(Planner, "plan", counting_plan)
    return calls


def counted(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records each call."""
    calls: list = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def normalize_calls(monkeypatch):
    """Every ``normalize_for_execution`` call of the client, which also
    resolves the service's ad-hoc statements."""
    return counted(monkeypatch, client_module, "normalize_for_execution")


def lookups(client) -> tuple[int, int]:
    stats = client.plan_cache.stats()
    return stats.hits, stats.misses


# ---------------------------------------------------------------------------
# Plans cached across writes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "backend,shards",
    [("memory", None), ("sqlite", None), ("memory", 2)],
    ids=["memory", "sqlite", "sharded2"],
)
def test_cached_plan_survives_writes(
    pinned_provider, sales_design, planner_calls, backend, shards
):
    client = make_client(pinned_provider, sales_design, backend, shards)
    oracle = build_sales_db(NUM_ORDERS)
    cached = client.execute(HAVING_PROBE).planned
    assert PREFILTER in cached.plan.explain()
    m = client.planner.stats_max("orders", "o_qty")
    # Two rows above the planned maximum, under 64 (the width a packed
    # o_qty loaded with maximum 50 allows): SUM 123 > 120 while COUNT 2
    # <= 120/m, so only the MAX arm of the stale pre-filter keeps the
    # new group.
    quantities = (61, 62)
    assert min(quantities) > m and len(quantities) <= 120 / m
    rows = ", ".join(
        f"({1000 + i}, {NEW_CUSTOMER}, 100, {qty}, 0, DATE '1996-01-01', "
        "'OPEN', 'plan cache probe')"
        for i, qty in enumerate(quantities)
    )
    # Each write, and the new customer's group the probe must return after.
    writes = [
        (f"INSERT INTO orders VALUES {rows}", [(NEW_CUSTOMER, 123)]),
        (
            f"UPDATE orders SET o_qty = 63 WHERE o_custkey = {NEW_CUSTOMER}",
            [(NEW_CUSTOMER, 126)],
        ),
        ("DELETE FROM orders WHERE o_orderkey = 1001", []),
    ]
    planner_calls.clear()
    for sql, new_group in writes:
        assert client.execute(sql).rows == [(apply_plain_dml(oracle, sql),)]
        outcome = client.execute(HAVING_PROBE)
        assert outcome.planned is cached
        assert sorted(outcome.rows) == sorted(plain_rows(oracle, HAVING_PROBE))
        assert [row for row in outcome.rows if row[0] == NEW_CUSTOMER] == new_group
    assert planner_calls == []
    # The statistics moved under the cached plan: a fresh plan would
    # price with another maximum.
    assert client.planner.stats_max("orders", "o_qty") > m


# ---------------------------------------------------------------------------
# The key is sound
# ---------------------------------------------------------------------------


def with_probe(query: ast.Select) -> ast.Select:
    """``query`` with one more conjunct, ``:probe IS NULL``."""
    probe = ast.IsNull(ast.Param("probe"))
    where = probe if query.where is None else ast.BinOp("and", query.where, probe)
    return replace(query, where=where)


def probe_literal(query: ast.Select) -> ast.Literal:
    where = query.where
    probe = where if isinstance(where, ast.IsNull) else where.right
    return probe.operand


@settings(max_examples=300, deadline=None)
@given(sql=st.sampled_from(CORPUS), value=PARAM_VALUES)
def test_key_text_parses_back_to_the_statement(sales_design, sql, value):
    query = normalize_query(with_probe(parse(sql)), {"probe": value})
    key_text, _ = plan_cache_key(query, sales_design.fingerprint())
    back = parse(key_text)
    assert back == query
    # Literal equality is ==, under which 1 == 1.0 == True: the bound
    # value must come back with its type, so no two values share a key.
    literal = probe_literal(back)
    assert type(literal.value) is type(value)
    assert literal.value == value


def test_equal_looking_literals_key_apart(pinned_provider, sales_design):
    client = make_client(pinned_provider, sales_design)
    assert client.design_fingerprint == sales_design.fingerprint()
    template = parse("SELECT o_orderkey FROM orders WHERE o_qty = :v")
    values = [1, 1.0, True, "1", 0, 0.0, -0.0, False, "0", "", None]
    before = client.plan_cache.stats()
    keys = set()
    for value in values:
        query = normalize_query(template, {"v": value})
        keys.add(plan_cache_key(query, client.design_fingerprint))
        client.plan(query)
    assert len(keys) == len(values)
    # Each value planned its own entry: none was a hit on another's.
    after = client.plan_cache.stats()
    assert after.hits == before.hits
    assert after.misses - before.misses == len(values)


# ---------------------------------------------------------------------------
# Same inputs, same plan; one cache for client and service
# ---------------------------------------------------------------------------


def test_fresh_client_plans_the_same_text(pinned_provider, sales_design):
    first = make_client(pinned_provider, sales_design)
    second = make_client(pinned_provider, sales_design)
    for sql in SALES_WORKLOAD:
        planned = first.execute(sql).planned
        assert second.execute(sql).planned.plan.explain() == planned.plan.explain()
        before = first.plan_cache.stats()
        again = first.execute(sql)
        after = first.plan_cache.stats()
        assert again.planned is planned
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


@pytest.mark.parametrize("level", ["normalized", "text"])
def test_concurrent_misses_plan_once(
    pinned_provider, sales_design, planner_calls, level
):
    """Eight threads, more than the cores, race cache misses and planner
    swaps, entering with normalized ASTs or with statement text: each
    statement is planned once, every thread gets that plan, and every
    lookup is counted once."""
    client = make_client(pinned_provider, sales_design)
    queries = list(SALES_WORKLOAD)
    if level == "normalized":
        queries = [normalize_query(parse(sql)) for sql in queries]

    def lookup(statement):
        if level == "text":
            return client._plan_statement(statement, None, "")[0]
        return client.plan(statement)

    planner_calls.clear()
    results: list = [None] * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def work(i: int) -> None:
        if i == 0:
            client._refresh_planner()
        results[i] = [lookup(q) for q in queries[i % 2 :] + queries]

    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(planner_calls) == len(queries)
    stats = client.plan_cache.stats()
    assert stats.hits + stats.misses == sum(map(len, results))
    assert stats.text_entries == (len(queries) if level == "text" else 0)
    for i, planned in enumerate(results):
        expected = [lookup(q) for q in queries[i % 2 :] + queries]
        assert all(a is b for a, b in zip(planned, expected))


def test_every_entry_point_shares_one_plan(pinned_provider, sales_design):
    client = make_client(pinned_provider, sales_design)
    sql = SALES_WORKLOAD[0]
    planned = client.execute(sql).planned
    assert client.execute_iter(sql).drain().planned is planned
    assert client.plan(normalize_query(parse(sql))) is planned
    with client.service(workers=1) as service:
        before = service.stats().plan_cache
        outcome = service.open_session().execute(sql)
        after = service.stats().plan_cache
    assert outcome.planned is planned
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


# ---------------------------------------------------------------------------
# explain == execute
# ---------------------------------------------------------------------------


def test_explain_and_execute_agree(pinned_provider, sales_design):
    client = make_client(pinned_provider, sales_design)
    rejected = "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%fox%'"
    with pytest.raises(UnsupportedQueryError):
        client.execute(rejected)
    with pytest.raises(UnsupportedQueryError):
        client.explain(rejected)
    for sql in SALES_WORKLOAD:
        header, body = client.explain(sql).split("\n", 1)
        assert header.endswith("plan cache miss")
        assert body == client.execute(sql).planned.plan.explain()
        assert client.explain(sql).split("\n", 1)[0].endswith("plan cache hit")
    params = {"d": datetime.date(1995, 6, 1)}
    template = "SELECT COUNT(*) FROM orders WHERE o_date >= :d"
    assert client.explain(template, params).endswith(
        client.execute(template, params).planned.plan.explain()
    )


def test_explain_after_execute_is_a_hit(pinned_provider, sales_design):
    client = make_client(pinned_provider, sales_design)
    for sql in SALES_WORKLOAD:
        planned = client.execute(sql).planned
        header, body = client.explain(sql).split("\n", 1)
        assert header.endswith("plan cache hit")
        assert body == planned.plan.explain()


@pytest.mark.parametrize(
    "sql",
    [
        "DELETE FROM orders WHERE o_orderkey = 1",
        "UPDATE orders SET o_qty = 1 WHERE o_orderkey = 1",
        "INSERT INTO orders VALUES "
        "(999, 1, 100, 1, 0, DATE '1996-01-01', 'OPEN', 'x')",
    ],
    ids=["delete", "update", "insert"],
)
def test_explain_refuses_dml_by_kind(pinned_provider, sales_design, sql):
    client = make_client(pinned_provider, sales_design)
    kind = sql.split()[0]
    with pytest.raises(UnsupportedQueryError, match=f"^{kind} statements"):
        client.explain(sql)


# ---------------------------------------------------------------------------
# The text level: an exact repeat is one lookup
# ---------------------------------------------------------------------------

#: Returns its parameter as bound, so a plan served for another value of
#: an equal-hashing parameter would show in the row.
TYPED_PROBE = "SELECT o_orderkey, :q AS v FROM orders WHERE o_orderkey = 1"


def typed(rows: list[tuple]) -> list[tuple]:
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def test_equal_hashing_params_key_apart(pinned_provider, sales_design):
    values = [1, True, 1.0, 0.0, -0.0]
    # 1 == True == 1.0 and 0.0 == -0.0: keyed on the values alone, the
    # five would share two entries.
    assert len({(v,) for v in values}) == 2
    texts = {text_cache_key(TYPED_PROBE, {"q": v}) for v in values}
    assert len(texts) == len(values)
    client = make_client(pinned_provider, sales_design)
    for value in values:
        client.execute(TYPED_PROBE, {"q": value})
    stats = client.plan_cache.stats()
    assert (stats.entries, stats.text_entries) == (len(values), len(values))
    before = lookups(client)
    for value in values:
        got = client.execute(TYPED_PROBE, {"q": value})
        fresh = make_client(pinned_provider, sales_design)
        want = fresh.execute(TYPED_PROBE, {"q": value})
        assert typed(got.rows) == typed(want.rows) == typed([(1, value)])
    after = lookups(client)
    assert (after[0] - before[0], after[1] - before[1]) == (len(values), 0)


def test_text_hit_is_the_normalized_entry(
    pinned_provider, sales_design, normalize_calls
):
    client = make_client(pinned_provider, sales_design)
    for sql in SALES_WORKLOAD:
        planned = client.execute(sql).planned
        key = plan_cache_key(normalize_query(parse(sql)), client.design_fingerprint)
        assert client.plan_cache.peek(key) is planned
        normalize_calls.clear()
        before = lookups(client)
        assert client.execute(sql).planned is planned
        assert client.execute_iter(sql).drain().planned is planned
        after = lookups(client)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 0)
        assert normalize_calls == []


@pytest.mark.parametrize(
    "sql,error,match",
    [
        ("SELECT o_orderkey FROM orders WHERE", ParseError, None),
        (
            "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%fox%'",
            UnsupportedQueryError,
            "multi-pattern LIKE",
        ),
        (
            "SELECT o_orderkey FROM orders WHERE o_qty > :q",
            PlanningError,
            "unbound parameter :q",
        ),
    ],
    ids=["parse", "like", "unbound"],
)
def test_failures_are_never_cached(
    pinned_provider, sales_design, normalize_calls, sql, error, match
):
    client = make_client(pinned_provider, sales_design)
    before = client.plan_cache.stats()
    for _ in range(3):
        with pytest.raises(error, match=match):
            client.execute(sql)
        with pytest.raises(error, match=match):
            client.explain(sql)
    after = client.plan_cache.stats()
    assert after == before
    assert after.text_entries == 0
    # Parsing fails before normalization; the others normalize each time.
    assert len(normalize_calls) == (0 if error is ParseError else 6)


def test_clear_empties_both_levels(pinned_provider, sales_design, planner_calls):
    client = make_client(pinned_provider, sales_design)
    sql = SALES_WORKLOAD[0]
    client.execute(sql)
    client.execute(sql)
    stats = client.plan_cache.stats()
    assert (stats.entries, stats.text_entries) == (1, 1)
    client.plan_cache.clear()
    stats = client.plan_cache.stats()
    assert (stats.entries, stats.text_entries) == (0, 0)
    planner_calls.clear()
    before = lookups(client)
    client.execute(sql)
    after = lookups(client)
    assert (after[0] - before[0], after[1] - before[1]) == (0, 1)
    assert len(planner_calls) == 1


def test_evicted_plan_replans_with_one_miss(
    pinned_provider, sales_design, planner_calls
):
    client = make_client(pinned_provider, sales_design)
    client.plan_cache = PlanCache(capacity=2)
    first, *others = SALES_WORKLOAD[:3]
    planned = client.execute(first).planned
    # Plans entered as ASTs file no text: they evict the first plan and
    # leave its text entry behind.
    for sql in others:
        client.plan(normalize_query(parse(sql)))
    stats = client.plan_cache.stats()
    assert (stats.entries, stats.text_entries, stats.evictions) == (2, 1, 1)
    planner_calls.clear()
    before = lookups(client)
    again = client.execute(first).planned
    after = lookups(client)
    assert (after[0] - before[0], after[1] - before[1]) == (0, 1)
    assert len(planner_calls) == 1
    assert again.plan.explain() == planned.plan.explain()
    # The re-plan filed the text again: the next repeat is a text hit.
    assert client.execute(first).planned is again


def test_evicted_text_entries_stay_bounded():
    cache = PlanCache(capacity=2)
    for i in range(5):
        cache.put((f"q{i}", "fp"), object(), text=(f"text {i}",))
    stats = cache.stats()
    assert (stats.entries, stats.text_entries) == (2, 2)
    assert cache.get_text(("text 0",)) is None
    assert cache.stats().misses == 0


def test_client_and_service_share_text_entries(
    pinned_provider, sales_design, normalize_calls
):
    client = make_client(pinned_provider, sales_design)
    from_client, from_service = SALES_WORKLOAD[0], SALES_WORKLOAD[1]
    client_plan = client.execute(from_client).planned
    with client.service(workers=1) as service:
        session = service.open_session()
        service_plan = session.execute(from_service).planned
        normalize_calls.clear()
        before = lookups(client)
        assert session.execute(from_client).planned is client_plan
        assert client.execute(from_service).planned is service_plan
        after = lookups(client)
    assert (after[0] - before[0], after[1] - before[1]) == (2, 0)
    assert normalize_calls == []


def test_repeated_prepared_execution_skips_normalization(
    pinned_provider, sales_design, monkeypatch
):
    calls = counted(monkeypatch, client_module, "normalize_for_execution")
    client = make_client(pinned_provider, sales_design)
    template = "SELECT COUNT(*) FROM orders WHERE o_price > :p"
    with client.service(workers=1) as service:
        statement = service.prepare(template)
        first = service.execute_prepared(statement, {"p": 700})
        again = service.execute_prepared(statement, {"p": 700})
        other = service.execute_prepared(statement, {"p": 900})
        other_again = service.execute_prepared(statement, {"p": 900})
    assert again.planned is first.planned
    assert other_again.planned is other.planned
    assert again.rows == first.rows == client.execute(template, {"p": 700}).rows
    assert [args[1] for args in calls] == [{"p": 700}, {"p": 900}]


# ---------------------------------------------------------------------------
# Parameters the printer cannot print
# ---------------------------------------------------------------------------


def run_select(client, sql, params):
    return client.execute(sql, params)


def run_stream(client, sql, params):
    return client.execute_iter(sql, params).drain()


def run_service(client, sql, params):
    with client.service(workers=1) as service:
        return service.execute(sql, params)


@pytest.mark.parametrize(
    "value", [Decimal("3"), [1, 2], {"a": 1}], ids=["decimal", "list", "dict"]
)
@pytest.mark.parametrize(
    "run,sql",
    [
        (run_select, "SELECT o_orderkey FROM orders WHERE o_qty > :q"),
        (run_stream, "SELECT o_orderkey FROM orders WHERE o_qty > :q"),
        (run_service, "SELECT o_orderkey FROM orders WHERE o_qty > :q"),
        (run_select, "UPDATE orders SET o_qty = :q WHERE o_orderkey = 1"),
    ],
    ids=["execute", "execute_iter", "service", "update"],
)
def test_unprintable_param_raises_planning_error(
    pinned_provider, sales_design, run, sql, value
):
    client = make_client(pinned_provider, sales_design)
    name = type(value).__name__
    for _ in range(2):
        with pytest.raises(PlanningError, match=f"parameter :q has .* type {name}"):
            run(client, sql, {"q": value})
    assert client.plan_cache.stats().text_entries == 0
