"""The grouped residual folds the server's grp() lists where they are.

An ``[unnest]`` plan's server rows reach the client residual as they came:
one row per server group, each grp() output one decrypted list in a
``list`` column of the staged relation.  The engine's aggregation groups
them as the element rows they stand for (one per list element, the row's
other columns beside each) without building those rows.

This module checks the fold against the engine over the reference element
rows (a hypothesis property), its "misaligned" error, its empty-group
semantics and a relation with no list column; then the encrypted client
against the plaintext oracle on memory, SQLite and two shards, for the
empty ungrouped aggregate, the element-wise key and argument shapes and
grp() lists with NULLs in them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.core import MonomiClient, PlanExecutor, normalize_query
from repro.engine import ColumnDef, Database, Executor, TableSchema, schema
from repro.sql import parse
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, canonical

# ---------------------------------------------------------------------------
# The fold in the engine: a staged table of lists vs its element rows
# ---------------------------------------------------------------------------


def staged_db(rows: list[tuple], types: tuple[str, ...]) -> Database:
    """One table ``g`` with columns ``k``, ``a``, ``b`` typed ``types``."""
    db = Database("client")
    columns = tuple(ColumnDef(n, t) for n, t in zip(("k", "a", "b"), types))
    db.create_table(TableSchema("g", columns)).rows = rows
    return db


def element_rows(rows: list[tuple]) -> list[tuple]:
    """The reference for :data:`NESTED` rows: one ⟨k, a[i], b[i]⟩ row per
    list element."""
    return [(k, x, y) for k, a, b in rows for x, y in zip(a, b)]


def run(db: Database, sql: str) -> list[tuple]:
    """The plaintext engine's rows for ``sql`` over ``db``."""
    return Executor(db).execute(normalize_query(parse(sql))).rows


NESTED = ("any", "list", "list")

FOLD_QUERIES = [
    # Scalar keys; list, per-group scalar and COUNT(*) arguments.
    "SELECT k, SUM(a), COUNT(*), COUNT(b), MIN(k), MAX(k), SUM(k) FROM g GROUP BY k",
    # Computed arguments over lists and scalars, DISTINCT, HAVING, ORDER BY.
    "SELECT k, AVG(a + b), MIN(a), MAX(b * k), COUNT(DISTINCT a) FROM g "
    "GROUP BY k HAVING COUNT(*) > 1 ORDER BY k DESC",
    # No GROUP BY: one group over every row.
    "SELECT SUM(a * k), MIN(k), COUNT(*), "
    "SUM(CASE WHEN a > b THEN a ELSE 0 END) FROM g",
    # A key that reads a list column groups element by element.
    "SELECT a, SUM(b), COUNT(*), MIN(k), MAX(k) FROM g GROUP BY a",
    "SELECT k, a, SUM(b), COUNT(k) FROM g GROUP BY k, a ORDER BY SUM(b)",
    # A computed scalar key and a constant argument.
    "SELECT k + 1, SUM(b), SUM(1), MAX(2) FROM g GROUP BY k + 1",
]

# Floats whose sums depend on their order, beside small ints and NULLs.
values = st.one_of(st.none(), st.integers(-5, 5), st.sampled_from([0.1, 0.2, 2.25]))
# One ⟨key, ⟨a, b⟩ elements⟩ pair per server group; never an empty group.
server_groups = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),
        st.lists(st.tuples(values, values), min_size=1, max_size=4),
    ),
    max_size=6,
)


@pytest.mark.parametrize("sql", FOLD_QUERIES)
@settings(max_examples=60, deadline=None)
@given(groups=server_groups)
def test_fold_equals_grouping_the_element_rows(sql, groups):
    rows = [(k, [a for a, _ in pairs], [b for _, b in pairs]) for k, pairs in groups]
    expected = run(staged_db(element_rows(rows), ("any",) * 3), sql)
    assert run(staged_db(rows, NESTED), sql) == expected


def test_fold_concatenates_lists_in_row_order():
    rows = [(1, [0.1, 0.2], [0, 1]), (2, [4.0], [5]), (1, [2.25], [2])]
    sql = "SELECT k, SUM(a), MIN(b), MAX(b), COUNT(*) FROM g GROUP BY k"
    # Float sums in element order, left to right: (0.1 + 0.2) + 2.25 is
    # 2.55, where 2.25 first would give 2.5500000000000003.
    assert run(staged_db(rows, NESTED), sql) == [
        (1, 2.55, 0, 2, 3),
        (2, 4.0, 5, 5, 1),
    ]


def test_misaligned_lists_in_one_row_raise():
    db = staged_db([(1, [10], [20]), (2, [10], [20, 21])], NESTED)
    with pytest.raises(ExecutionError, match="misaligned"):
        run(db, "SELECT k, SUM(a) FROM g GROUP BY k")


def test_empty_ungrouped_input_counts_zero():
    """The server's one row of empty lists: MIN of a per-group scalar folds
    the row's own value (the server's COUNT of 0), the list arguments fold
    nothing."""
    db = staged_db([(0, [], [])], NESTED)
    sql = "SELECT MIN(k), MAX(k), SUM(a), COUNT(*), COUNT(b), AVG(a), SUM(k) FROM g"
    assert run(db, sql) == [(0, 0, None, 0, 0, None, None)]


def test_row_without_elements_starts_no_group():
    db = staged_db([(1, [], []), (2, [5], [6]), (3, [], [])], NESTED)
    sql = "SELECT k, MIN(k), SUM(a), COUNT(*) FROM g GROUP BY k"
    assert run(db, sql) == [(2, 2, 5, 1)]
    assert run(db, "SELECT a, COUNT(*) FROM g GROUP BY a") == [(5, 1)]


def test_no_list_columns_groups_the_rows_as_they_are():
    rows = [(1, 2, 3), (1, 4, 5), (2, None, 7)]
    db = staged_db(rows, ("any", "any", "any"))
    query = normalize_query(parse("SELECT k, SUM(a), COUNT(*) FROM g GROUP BY k"))
    assert Executor(db)._list_positions(query) == ()
    assert Executor(db).execute(query).rows == [(1, 6, 2), (2, None, 1)]


# ---------------------------------------------------------------------------
# The encrypted client: memory, SQLite and two shards vs the plaintext engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sales_client_sharded(sales_db, provider, sales_client) -> MonomiClient:
    return MonomiClient.setup(
        sales_db,
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=sales_client.design,
        shards=2,
    )


@pytest.fixture(params=["memory", "sqlite", "sharded2"])
def fold_client(request, sales_client, sales_client_sqlite, sales_client_sharded):
    return {
        "memory": sales_client,
        "sqlite": sales_client_sqlite,
        "sharded2": sales_client_sharded,
    }[request.param]


def plan_lines(client: MonomiClient, sql: str) -> list[str]:
    """The plan text without the estimate header."""
    return client.explain(sql).splitlines()[1:]


EMPTY_UNGROUPED = [
    "SELECT COUNT(*), SUM(o_price * o_qty) FROM orders WHERE o_price > 100000",
    "SELECT COUNT(o_qty), MAX(o_price * o_qty) FROM orders WHERE o_price > 100000",
]


@pytest.mark.parametrize("sql", EMPTY_UNGROUPED)
def test_empty_ungrouped_aggregate_counts_zero(fold_client, sales_db, sql):
    """An [unnest] plan over no input: the server's row of empty lists
    still carries its COUNT, so the client answers 0, not NULL."""
    assert any("[unnest]" in line for line in plan_lines(fold_client, sql))
    assert run(sales_db, sql) == [(0, None)]
    assert fold_client.execute(sql).rows == [(0, None)]


ELEMENT_WISE = {
    # The GROUP BY key is itself the grp(o_custkey_det) list.
    "SELECT o_custkey, SUM(o_custkey) FROM orders GROUP BY o_custkey": [
        "Residual: SELECT o_custkey, sum(o_custkey) FROM __v GROUP BY o_custkey",
        "RemoteSQL __v [unnest]: SELECT grp(o_custkey_det) AS c0 FROM orders "
        "GROUP BY o_custkey_det",
    ],
    "SELECT o_status, COUNT(DISTINCT o_qty), AVG(o_price * o_qty) FROM orders "
    "GROUP BY o_status": [
        "Residual: SELECT o_status, min(count(DISTINCT o_qty)), "
        "sum(o_price * o_qty) / min(count(o_price * o_qty)) FROM __v "
        "GROUP BY o_status",
        "RemoteSQL __v [unnest]: SELECT o_status_det AS c0, "
        "count(DISTINCT o_qty_det) AS c1, grp(pc_3b13288f_det) AS c2, "
        "count(pc_3b13288f_det) AS c3 FROM orders GROUP BY o_status_det",
    ],
}


@pytest.mark.parametrize("sql", list(ELEMENT_WISE))
def test_element_wise_shapes_match_the_oracle(fold_client, sales_db, sql):
    assert plan_lines(fold_client, sql) == ELEMENT_WISE[sql]
    assert canonical(fold_client.execute(sql).rows) == canonical(run(sales_db, sql))


def nullable_db() -> Database:
    """Forty rows, every third ``t_val`` NULL: grp(t_val_det) lists carry
    NULLs (the sales tables have none)."""
    rng = random.Random(5)
    db = Database("nullable")
    table = db.create_table(
        schema("t", ("t_id", "int"), ("t_grp", "int"), ("t_val", "int"))
    )
    for i in range(1, 41):
        value = None if i % 3 == 0 else rng.randint(1, 90)
        table.insert((i, rng.randint(1, 4), value))
    return db


NULL_QUERIES = [
    "SELECT t_grp, SUM(t_val), COUNT(t_val), COUNT(*), MIN(t_val * t_id) "
    "FROM t GROUP BY t_grp",
    "SELECT SUM(t_val * t_id), COUNT(t_val) FROM t",
    "SELECT t_grp, AVG(t_val), SUM(t_val + t_id) FROM t GROUP BY t_grp "
    "ORDER BY t_grp",
]


@pytest.fixture(scope="module")
def nullable_clients(provider):
    db = nullable_db()
    workload = ["SELECT t_grp, COUNT(*) FROM t GROUP BY t_grp"]
    common = dict(master_key=MASTER_KEY, provider=provider)
    clients = {
        "memory": MonomiClient.setup(db, workload, **common),
        "sqlite": MonomiClient.setup(db, workload, backend="sqlite", **common),
        "sharded2": MonomiClient.setup(db, workload, shards=2, **common),
    }
    return db, clients


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded2"])
@pytest.mark.parametrize("sql", NULL_QUERIES)
def test_grp_lists_with_nulls_match_the_oracle(nullable_clients, kind, sql):
    db, clients = nullable_clients
    client = clients[kind]
    remote = [line for line in plan_lines(client, sql) if "RemoteSQL" in line]
    assert "[unnest]" in remote[0] and "grp(t_val_det)" in remote[0]
    assert any(row[2] is None for row in db.table("t").rows)
    assert canonical(client.execute(sql).rows) == canonical(run(db, sql))


# ---------------------------------------------------------------------------
# What the residual is handed, and the streaming entry point
# ---------------------------------------------------------------------------

GROUPED_UNNEST = (
    "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
    "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC"
)


def test_residual_reads_one_row_per_server_group(sales_client, sales_db, monkeypatch):
    staged = []
    original = Executor.execute

    def spy(self, query, params=None):
        if self.db.has_table("__v"):
            staged.append(self.db.table("__v"))
        return original(self, query, params)

    monkeypatch.setattr(Executor, "execute", spy)
    rows = sales_client.execute(GROUPED_UNNEST).rows
    (table,) = staged
    groups = {r[1] for r in sales_db.table("orders").rows if r[2] > 500}
    assert len(table.rows) == len(groups) == len(rows)
    (position,) = table.schema.list_positions
    assert table.schema.columns[position].name == "o_price * o_qty"
    assert sum(len(row[position]) for row in table.rows) == sum(
        1 for r in sales_db.table("orders").rows if r[2] > 500
    )


def test_execute_iter_of_an_unnest_plan_materializes(sales_client, monkeypatch):
    """An [unnest] residual aggregates, so it never takes the streamed
    path: that is why the streamed path has no grp() handling."""
    calls = []
    original = PlanExecutor._stream_plan

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PlanExecutor, "_stream_plan", spy)
    for sql in [GROUPED_UNNEST, *EMPTY_UNGROUPED]:
        stream = sales_client.execute_iter(sql)
        streamed = [row for block in stream for row in block.rows()]
        assert streamed == sales_client.execute(sql).rows
    assert calls == []
    plan = sales_client.execute(GROUPED_UNNEST).planned.plan
    assert plan.relations[0].unnest
    assert not sales_client.executor._plan_streams(plan)
