"""``SELECT *`` and ``t.*`` over encrypted tables.

The splitter resolves the columns a query names one at a time, so the
planner and the designer spell a star out against the catalog schemas
first (``core.normalize.expand_stars``).  A star query then designs,
plans and runs like its explicit column list, on both backends and both
client paths, and matches the plaintext engine.  A star over a join is
refused with a :class:`PlanningError` that names it.  The plaintext
engine spells a star out against the relation it projects, so its result
columns are named, an alias beside a star orders by its own value, and a
star over a join lists its relations in FROM order, as sqlite3 does.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.common.errors import PlanningError
from repro.core import MonomiClient, normalize_query
from repro.core.designer import Designer
from repro.engine import Database, Executor, schema
from repro.sql import parse
from repro.testkit import MASTER_KEY, build_sales_db, canonical

ORDERS_COLUMNS = (
    "o_orderkey, o_custkey, o_price, o_qty, o_discount, o_date, o_status, o_comment"
)

AD_HOC = [
    "SELECT * FROM orders WHERE o_qty < 5",
    "SELECT o.* FROM orders o WHERE o.o_price > 4000",
    "SELECT *, o_qty + 1 FROM orders WHERE o_status = 'OPEN'",
    "SELECT o_orderkey, * FROM orders ORDER BY o_orderkey LIMIT 7",
    "SELECT * FROM (SELECT o_custkey, o_qty FROM orders WHERE o_qty > 40) AS x",
]


def oracle(db, sql: str) -> list[str]:
    return canonical(Executor(db).execute(normalize_query(parse(sql))).rows)


def streamed_rows(client, sql: str) -> list[tuple]:
    return [row for block in client.execute_iter(sql) for row in block.rows()]


@pytest.fixture(scope="module")
def star_clients(provider):
    """A design built for ``SELECT * FROM orders`` alone, on both backends."""
    db = build_sales_db(300, seed=3)
    memory = MonomiClient.setup(
        db,
        ["SELECT * FROM orders"],
        master_key=MASTER_KEY,
        provider=provider,
        space_budget=2.5,
    )
    sqlite = MonomiClient.setup(
        db,
        ["SELECT * FROM orders"],
        master_key=MASTER_KEY,
        provider=provider,
        space_budget=2.5,
        design=memory.design,
        backend="sqlite",
    )
    return db, memory, sqlite


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_design_for_a_star_workload(star_clients, backend):
    db, memory, sqlite = star_clients
    client = memory if backend == "memory" else sqlite
    expected = oracle(db, "SELECT * FROM orders")
    assert canonical(client.execute("SELECT * FROM orders").rows) == expected
    assert canonical(streamed_rows(client, "SELECT * FROM orders")) == expected


@pytest.mark.parametrize("sql", AD_HOC)
def test_ad_hoc_star_matches_the_plaintext_engine(each_backend_client, sales_db, sql):
    expected = oracle(sales_db, sql)
    assert canonical(each_backend_client.execute(sql).rows) == expected
    assert canonical(streamed_rows(each_backend_client, sql)) == expected


@pytest.mark.parametrize(
    "star, explicit",
    [
        ("SELECT * FROM orders WHERE o_qty < 5", None),
        ("SELECT orders.* FROM orders WHERE o_price > 4000", None),
        (
            "SELECT *, o_qty * 2 FROM orders WHERE o_status = 'OPEN'",
            f"SELECT {ORDERS_COLUMNS}, o_qty * 2 FROM orders WHERE o_status = 'OPEN'",
        ),
    ],
)
def test_star_plans_like_its_column_list(sales_client, star, explicit):
    if explicit is None:
        explicit = f"SELECT {ORDERS_COLUMNS} FROM {star.split(' FROM ')[1]}"

    def plan_text(sql: str) -> str:
        return sales_client.explain(sql).split("\n", 1)[1]

    assert plan_text(star) == plan_text(explicit)


def test_designer_candidates_for_a_star(sales_db, provider):
    designer = Designer(sales_db, provider)
    star = designer.candidates_for(normalize_query(parse("SELECT * FROM orders")))
    explicit = designer.candidates_for(
        normalize_query(parse(f"SELECT {ORDERS_COLUMNS} FROM orders"))
    )
    assert [c.cost for c in star] == [c.cost for c in explicit]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT o.* FROM orders o, customer c WHERE o.o_custkey = c.c_custkey",
        "SELECT * FROM orders JOIN customer ON o_custkey = c_custkey",
        "SELECT x.* FROM orders",
    ],
)
def test_unexpandable_star_is_refused_by_name(sales_client, sql):
    with pytest.raises(PlanningError, match=r"\*"):
        sales_client.execute(sql)


def test_engine_qualified_star_picks_one_relation(sales_db):
    """The plaintext engine expands ``t.*`` to t's columns, also in a join."""
    sql = (
        "SELECT c.*, o_orderkey FROM orders o, customer c "
        "WHERE o.o_custkey = c.c_custkey AND o_qty < 3"
    )
    result = Executor(sales_db).execute(normalize_query(parse(sql)))
    customer = sales_db.table("customer")
    width = len(customer.schema.column_names)
    assert result.rows
    assert all(len(row) == width + 1 for row in result.rows)
    assert {row[:width] for row in result.rows} <= set(customer.rows)


DRIVERS = ("execute", "execute_stream")


def engine_run(db, sql: str, driver: str) -> tuple[list[str], list[tuple]]:
    """(columns, rows) of ``sql`` on the plaintext engine, through ``driver``."""
    executor = Executor(db)
    if driver == "execute":
        result = executor.execute(parse(sql))
        return result.columns, result.rows
    stream = executor.execute_stream(parse(sql))
    return stream.columns, stream.drain_rows()


@pytest.fixture(scope="module")
def small_db():
    return build_sales_db(50, seed=3)


@pytest.fixture(scope="module")
def orders(small_db):
    """(column names, rows, position of o_qty) of the small orders table."""
    table = small_db.table("orders")
    names = list(table.schema.column_names)
    return names, list(table.rows), names.index("o_qty")


@pytest.mark.parametrize("driver", DRIVERS)
def test_engine_scans_a_star_subquery(small_db, orders, driver):
    _, rows, qty = orders
    sql = "SELECT o_qty FROM (SELECT * FROM orders) x"
    columns, got = engine_run(small_db, sql, driver)
    assert columns == ["o_qty"]
    assert got == [(row[qty],) for row in rows]


@pytest.mark.parametrize("driver", DRIVERS)
def test_engine_names_star_columns(small_db, orders, driver):
    names, rows, qty = orders
    columns, got = engine_run(small_db, "SELECT *, o_qty AS q FROM orders", driver)
    assert columns == [*names, "q"]
    assert got == [(*row, row[qty]) for row in rows]


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize(
    "key, alias, descending", [("o_qty", "q", False), ("o_orderkey", "k", True)]
)
def test_engine_orders_by_an_alias_beside_a_star(
    small_db, orders, driver, key, alias, descending
):
    names, rows, _ = orders
    at = names.index(key)
    direction = " DESC" if descending else ""
    sql = f"SELECT *, {key} AS {alias} FROM orders ORDER BY {alias}{direction}"
    columns, got = engine_run(small_db, sql, driver)
    assert columns == [*names, alias]
    expected = sorted(
        [(*row, row[at]) for row in rows], key=lambda row: row[at], reverse=descending
    )
    assert got == expected


def test_client_orders_by_an_alias_beside_a_star(each_backend_client, sales_db):
    sql = "SELECT *, o_qty AS q FROM orders ORDER BY q"
    expected = Executor(sales_db).execute(normalize_query(parse(sql)))
    outcome = each_backend_client.execute(sql)
    assert outcome.columns == expected.columns
    assert canonical(outcome.rows) == canonical(expected.rows)
    keys = [row[-1] for row in expected.rows]
    assert keys == sorted(keys)
    assert [row[-1] for row in outcome.rows] == keys
    assert [row[-1] for row in streamed_rows(each_backend_client, sql)] == keys


@pytest.fixture(scope="module")
def star_join_dbs():
    """``t(a, b, c, d)`` with 40 rows and ``u(a, e)`` with 10, in the engine
    and in stdlib sqlite3."""
    t_rows = [(i % 12, i, f"c{i}", i / 4) for i in range(40)]
    u_rows = [(i, 10 * i) for i in range(10)]
    db = Database("star_join")
    t_schema = schema("t", ("a", "int"), ("b", "int"), ("c", "text"), ("d", "float"))
    db.create_table(t_schema).insert_many(t_rows)
    db.create_table(schema("u", ("a", "int"), ("e", "int"))).insert_many(u_rows)
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (a INT, b INT, c TEXT, d FLOAT)")
    connection.execute("CREATE TABLE u (a INT, e INT)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t_rows)
    connection.executemany("INSERT INTO u VALUES (?, ?)", u_rows)
    return db, connection


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM t, u WHERE t.a = u.a",
        "SELECT * FROM u, t WHERE t.a = u.a",
        "SELECT *, u.e FROM t, u WHERE t.a = u.a AND t.b > 5",
        "SELECT * FROM t JOIN u ON t.a = u.a",
        "SELECT * FROM u JOIN t ON t.a = u.a",
    ],
)
def test_engine_star_over_a_join_lists_from_order(star_join_dbs, sql):
    """A ``*`` lists FROM's relations left to right, like sqlite3 does,
    whichever relation the join starts from (the smaller one, u)."""
    db, connection = star_join_dbs
    result = Executor(db).execute(parse(sql))
    cursor = connection.execute(sql)
    assert result.columns == [column[0] for column in cursor.description]
    assert result.rows
    assert sorted(result.rows) == sorted(cursor.fetchall())
