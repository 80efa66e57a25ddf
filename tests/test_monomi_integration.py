"""Integration: split execution matches plaintext execution exactly.

The central invariant of the whole system — for every query the client
returns precisely what a plaintext database would — tested over the shared
sales database, plus property-based random queries.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testkit import SALES_WORKLOAD, canonical
from repro.common.errors import UnsupportedQueryError
from repro.core import normalize_query
from repro.sql import parse

EXTRA_QUERIES = [
    # Correlated IN-subquery pushed to the server (per-outer-row
    # re-execution must not re-charge scan bytes — they are charged once
    # per table reference, matching the SQLite backend's accounting).
    "SELECT o_orderkey FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_nation = o_status)",
    # Aggregates + having alias (the paper's §3 example shape).
    "SELECT o_custkey, SUM(o_price) AS total FROM orders GROUP BY o_custkey "
    "HAVING total > 5000 ORDER BY total DESC",
    # Join + date range + group.
    "SELECT c_nation, COUNT(*) AS n, SUM(o_qty) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_date < DATE '1996-06-01' "
    "GROUP BY c_nation ORDER BY n DESC, c_nation",
    # Local-only predicate (multiplication of two columns).
    "SELECT COUNT(*) FROM orders WHERE o_price * o_qty > 40000",
    # LIKE + group.
    "SELECT o_status, COUNT(*) FROM orders WHERE o_comment LIKE '%brown%' "
    "GROUP BY o_status ORDER BY o_status",
    # Scalar subquery consumed locally (Q11 shape).
    "SELECT o_custkey, SUM(o_price) AS total FROM orders GROUP BY o_custkey "
    "HAVING SUM(o_price) > (SELECT SUM(o_price) * 0.05 FROM orders) ORDER BY total DESC",
    # IN-subquery with aggregate HAVING (Q18 shape: round-trip plan).
    "SELECT o_orderkey, o_price FROM orders WHERE o_custkey IN "
    "(SELECT o_custkey FROM orders GROUP BY o_custkey HAVING SUM(o_qty) > 140) "
    "ORDER BY o_orderkey LIMIT 25",
    # Correlated EXISTS pushed to the server.
    "SELECT c_name FROM customer WHERE EXISTS "
    "(SELECT * FROM orders WHERE o_custkey = c_custkey AND o_price > 4500) "
    "ORDER BY c_name",
    # NOT EXISTS (Q22 shape).
    "SELECT COUNT(*) FROM customer WHERE NOT EXISTS "
    "(SELECT * FROM orders WHERE o_custkey = c_custkey)",
    # FROM-subquery composition (Q7/8/9 shape).
    "SELECT seg, SUM(rev) FROM (SELECT c_segment AS seg, o_price * o_qty AS rev "
    "FROM orders, customer WHERE o_custkey = c_custkey AND o_discount <= 5) AS x "
    "GROUP BY seg ORDER BY seg",
    # MIN/MAX via OPE.
    "SELECT o_custkey, MIN(o_price), MAX(o_price) FROM orders "
    "GROUP BY o_custkey ORDER BY o_custkey LIMIT 8",
    # DISTINCT.
    "SELECT DISTINCT o_status FROM orders ORDER BY o_status",
    # BETWEEN + IN list.
    "SELECT COUNT(*) FROM orders WHERE o_qty BETWEEN 10 AND 20 "
    "AND o_status IN ('OPEN', 'SHIPPED')",
]


@pytest.mark.parametrize("sql", SALES_WORKLOAD + EXTRA_QUERIES)
def test_split_matches_plaintext(each_backend_client, plain_executor, sql):
    query = normalize_query(parse(sql))
    outcome = each_backend_client.execute(query)
    expected = plain_executor.execute(query)
    assert canonical(outcome.rows) == canonical(expected.rows)


@pytest.mark.parametrize("sql", SALES_WORKLOAD + EXTRA_QUERIES)
def test_backends_agree_on_results_and_ledger(
    sales_client, sales_client_sqlite, sql
):
    """The in-memory engine and real SQLite run the same split plans to the
    same plaintext — and charge identical scan/transfer bytes, so every
    cost-model figure is backend-independent."""
    query = normalize_query(parse(sql))
    mem = sales_client.execute(query)
    lite = sales_client_sqlite.execute(query)
    assert canonical(mem.rows) == canonical(lite.rows)
    assert mem.ledger.transfer_bytes == lite.ledger.transfer_bytes
    assert mem.ledger.server_bytes_scanned == lite.ledger.server_bytes_scanned
    assert mem.ledger.round_trips == lite.ledger.round_trips


def test_ledger_accounts_all_components(sales_client):
    outcome = sales_client.execute(SALES_WORKLOAD[0])
    ledger = outcome.ledger
    assert ledger.transfer_bytes > 0
    assert ledger.transfer_seconds > 0
    assert ledger.total_seconds == pytest.approx(
        ledger.server_seconds + ledger.client_seconds + ledger.transfer_seconds
    )


def test_server_never_sees_plaintext(sales_client):
    """No plaintext value from the sales data appears on the server."""
    server = sales_client.server_db
    plaintext_strings = {"OPEN", "SHIPPED", "RETURNED", "BUILDING", "FRANCE"}
    for table in server.tables.values():
        for row in table.rows[:50]:
            for value in row:
                assert value not in plaintext_strings
                # Date columns never stored as dates — only FFX integers.
                import datetime

                assert not isinstance(value, datetime.date)


def test_remote_queries_reference_only_encrypted_columns(sales_client):
    outcome = sales_client.execute(SALES_WORKLOAD[0])
    for relation in outcome.planned.plan.remote_relations():
        text = relation.sql()
        # Plaintext-named columns never appear bare in server SQL.
        assert "o_price " not in text and "o_price," not in text


def test_multi_pattern_like_rejected(sales_client):
    with pytest.raises(UnsupportedQueryError):
        sales_client.execute(
            "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%fox%'"
        )


def test_explain_mentions_remote_sql(sales_client):
    text = sales_client.explain(SALES_WORKLOAD[0])
    assert "RemoteSQL" in text
    assert "estimated cost" in text
    assert re.search(r"\d+ candidate plans priced \(\d+ unit subsets\)", text)


def test_space_overhead_reported(sales_client):
    assert 1.0 <= sales_client.space_overhead() <= 3.0


# ---------------------------------------------------------------------------
# Property-based equivalence over randomly generated queries
# ---------------------------------------------------------------------------

_int_cols = st.sampled_from(["o_price", "o_qty", "o_discount", "o_orderkey"])
_filters = st.one_of(
    st.builds(lambda c, v: f"{c} > {v}", _int_cols, st.integers(0, 4000)),
    st.builds(lambda c, v: f"{c} = {v}", _int_cols, st.integers(0, 50)),
    st.builds(
        lambda c, lo, hi: f"{c} BETWEEN {lo} AND {hi}",
        _int_cols,
        st.integers(0, 2000),
        st.integers(2000, 5000),
    ),
    st.sampled_from(
        [
            "o_status = 'OPEN'",
            "o_comment LIKE '%green%'",
            "o_date >= DATE '1996-01-01'",
            "o_price * o_qty > 20000",
        ]
    ),
)
_aggs = st.sampled_from(
    ["SUM(o_price)", "COUNT(*)", "MIN(o_qty)", "MAX(o_price)", "SUM(o_price * o_qty)"]
)


@given(
    agg=_aggs,
    filters=st.lists(_filters, min_size=0, max_size=2),
    group=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_query_equivalence(sales_client, plain_executor, agg, filters, group):
    where = (" WHERE " + " AND ".join(filters)) if filters else ""
    if group:
        sql = (
            f"SELECT o_status, {agg} FROM orders{where} "
            f"GROUP BY o_status ORDER BY o_status"
        )
    else:
        sql = f"SELECT {agg} FROM orders{where}"
    query = normalize_query(parse(sql))
    outcome = sales_client.execute(query)
    expected = plain_executor.execute(query)
    assert canonical(outcome.rows) == canonical(expected.rows)
