"""The engine's one WHERE kernel: a conjunct-prefix column filter.

``_ColumnFilter`` tests the WHERE's leading ``column op constant``,
``column op column``, ``[NOT] BETWEEN`` and ``[NOT] IN`` conjuncts a whole
column at a time and hands the rows they keep to the compiled closure of
the rest.  Its contract is the row-at-a-time closure's:

* it keeps exactly ``[r for r in rows if closure(r) is True]``, in order,
  over row-major and column-major input alike;
* it raises the same error in exactly the same cases;
* the closure runs only on the rows that survive the column prefix.

Both drivers (``Executor.execute`` and ``execute_stream``) filter through
it, so they are checked against each other and against stdlib
``sqlite3``, with multi-key GROUP BY, composite join keys holding NULLs
and LEFT JOIN ... IS NULL beside them.
"""

from __future__ import annotations

import datetime
import math
import sqlite3
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Executor, schema
from repro.engine.eval import EvalContext, Scope, compile_expr
from repro.engine.executor import _Chunk, _ColumnFilter
from repro.sql import ast, parse
from repro.testkit import build_sales_db

# ---------------------------------------------------------------------------
# Kernel against the row closure
# ---------------------------------------------------------------------------

COLUMNS = ("k", "i", "f", "b", "s", "d", "a")
SCOPE = Scope([("t", name) for name in COLUMNS])
DAY = datetime.date(1996, 1, 1)

ints = st.integers(-3, 6)
floats = st.sampled_from([-1.5, 0.0, 2.5, 4.0, math.nan])
texts = st.sampled_from(["", "a", "b", "ab", "z"])
dates = st.sampled_from([DAY, DAY + datetime.timedelta(days=3)])
# One value of any of the column types: mixed columns make comparisons raise.
values = st.one_of(st.none(), st.booleans(), ints, floats, texts, dates)


def nullable(strategy):
    return st.one_of(st.none(), strategy)


def numbered(rows: list[tuple]) -> list[tuple]:
    """Each row led by its row number ``k``."""
    return [(k, *row) for k, row in enumerate(rows)]


row_values = st.tuples(
    nullable(ints),
    nullable(floats),
    nullable(st.booleans()),
    nullable(texts),
    nullable(dates),
    values,
)
table_rows = st.lists(row_values, max_size=12).map(numbered)

column = st.sampled_from(COLUMNS).map(ast.Column)
constant = st.one_of(
    values.map(ast.Literal),
    st.sampled_from(["p", "q", "missing"]).map(ast.Param),
)


def compare(op: str, col: ast.Column, const: ast.Expr, flip: bool) -> ast.Expr:
    return ast.BinOp(op, const, col) if flip else ast.BinOp(op, col, const)


def in_list(col: ast.Column, items: list[ast.Expr], negated: bool) -> ast.Expr:
    return ast.InList(col, tuple(items), negated)


OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
comparison = st.builds(compare, OPS, column, constant, st.booleans())
column_pair = st.builds(ast.BinOp, OPS, column, column)
between = st.builds(ast.Between, column, constant, constant, st.booleans())
membership = st.builds(
    in_list,
    column,
    st.one_of(
        st.lists(ints.map(ast.Literal), min_size=1, max_size=4),
        st.lists(texts.map(ast.Literal), min_size=1, max_size=3),
        st.lists(values.map(ast.Literal), min_size=1, max_size=4),
    ),
    st.booleans(),
)
# ``k`` is the row number: never NULL, so its tests always stay in the kernel.
k_test = st.builds(
    compare,
    st.sampled_from(["<>", "<", ">="]),
    st.just(ast.Column("k")),
    st.integers(0, 8).map(ast.Literal),
    st.just(False),
)


def where_of(sql: str) -> ast.Expr:
    return parse(f"SELECT k FROM t WHERE {sql}").where


# Conjuncts no column kernel takes: the closure's, wherever they stand.
# A bare column yields ints, floats and strings, which AND turns into
# bools: 0 stops an AND short, 2 passes it but is not True on its own.
bare = st.sampled_from(["i", "f", "s", "b"]).map(ast.Column)
OTHERS = [
    where_of(sql)
    for sql in (
        "i IS NULL",
        "s LIKE '%a%'",
        "i + 1 > 2",
        "NOT (i = 2)",
        "i > 1 OR s = 'a'",
        "i IN (1, NULL)",
        "k < i + f",
    )
]
others = st.sampled_from(OTHERS)
conjunct = st.one_of(k_test, bare, comparison, column_pair, between, membership, others)
PARAMS = st.fixed_dictionaries({"p": values, "q": ints})


def outcome(run):
    """What ``run()`` returns, or the class and text of what it raises."""
    try:
        return ("rows", run())
    except Exception as error:  # noqa: BLE001 - the error is the outcome.
        return ("error", type(error), str(error))


def closure_rows(where, rows, params):
    closure = compile_expr(where, SCOPE, EvalContext(params=params))
    return [row for row in rows if closure(row) is True]


def kernel_rows(where, rows, params, columnar=False):
    if columnar and rows:
        chunk = _Chunk(len(rows), columns=[list(c) for c in zip(*rows)])
    else:
        chunk = _Chunk(len(rows), rows=rows)
    column_filter = _ColumnFilter(where, SCOPE, EvalContext(params=params), None)
    return column_filter.apply(chunk).rows()


def same(expected, got) -> bool:
    """Outcomes agree (rows by ``repr``, so a NaN equals itself)."""
    if expected[0] != got[0]:
        return False
    if expected[0] == "error":
        return expected == got
    return repr(expected[1]) == repr(got[1])


def right_deep(conjuncts: list[ast.Expr]) -> ast.Expr:
    """``a AND (b AND (c ...))``, the mirror of :func:`ast.conjoin`."""
    where = conjuncts[-1]
    for part in reversed(conjuncts[:-1]):
        where = ast.BinOp("and", part, where)
    return where


@given(
    rows=table_rows,
    conjuncts=st.lists(conjunct, min_size=1, max_size=5),
    params=PARAMS,
    shape=st.sampled_from([ast.conjoin, right_deep]),
)
@settings(max_examples=500, deadline=None)
def test_kernel_keeps_what_the_closure_keeps(rows, conjuncts, params, shape):
    where = shape(conjuncts)
    expected = outcome(lambda: closure_rows(where, rows, params))
    assert same(expected, outcome(lambda: kernel_rows(where, rows, params)))
    columnar = outcome(lambda: kernel_rows(where, rows, params, columnar=True))
    assert same(expected, columnar)


@pytest.mark.parametrize(
    "where, error",
    [
        # The text rows are the ones ``i > 2`` drops: nothing raises.
        ("i > 2 AND a < 3", None),
        # A text row survives ``i > 0``: both raise on it.
        ("i > 0 AND a < 3", "cannot compare str with int"),
        # ``f`` is 0.0 on the text rows: AND stops there, so ``a < 3`` never
        # sees them (and a bare ``0.0 AND a < 3`` would).
        ("k >= 0 AND f AND a < 3", None),
        ("k >= 0 AND a < 3", "cannot compare str with int"),
        ("a BETWEEN 1 AND 3", "not supported between"),
        ("k > 0 AND a = :missing", "unbound parameter :missing"),
    ],
)
def test_errors_are_the_closures(where, error):
    rows = [
        (0, 0, 0.0, None, None, None, "x"),
        (1, 1, 1.5, None, None, None, 2),
        (2, 3, 1.5, None, None, None, 1),
        (3, 2, 0.0, None, None, None, "y"),
    ]
    parsed = where_of(where)
    expected = outcome(lambda: closure_rows(parsed, rows, {}))
    got = outcome(lambda: kernel_rows(parsed, rows, {}))
    assert same(expected, got)
    if error is None:
        assert got[0] == "rows"
    else:
        assert got[0] == "error" and error in got[2]


def spy_on_closures(seen: list):
    """Patch the filter so every closure it compiles records its rows."""
    real = _ColumnFilter._closure

    def recording(self, done):
        closure = real(self, done)
        if closure is None:
            return None

        def spy(row):
            seen.append(row)
            return closure(row)

        return spy

    return mock.patch.object(_ColumnFilter, "_closure", recording)


KIS_SCOPE = Scope([("t", "k"), ("t", "i"), ("t", "s")])
kis_rows = st.lists(st.tuples(ints, nullable(texts)), max_size=20).map(numbered)


@given(
    rows=kis_rows,
    low=ints,
    high=ints,
    members=st.lists(ints, min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_closure_sees_only_the_prefix_survivors(rows, low, high, members):
    """NULL-free int columns keep the whole prefix in the kernel, so the
    closure of ``s LIKE`` runs on exactly the rows the prefix keeps."""
    start = max(low, 0)
    listed = ", ".join(map(str, members))
    where = where_of(
        f"k >= {start} AND i BETWEEN {low} AND {high} "
        f"AND i NOT IN ({listed}) AND s LIKE '%a%'"
    )
    survivors = [
        (k, i, s)
        for k, i, s in rows
        if k >= start and low <= i <= high and i not in members
    ]
    seen: list = []
    with spy_on_closures(seen):
        column_filter = _ColumnFilter(where, KIS_SCOPE, EvalContext(), None)
        kept = column_filter.apply(_Chunk(len(rows), rows=rows)).rows()
    assert seen == survivors
    assert kept == [row for row in survivors if row[2] is not None and "a" in row[2]]


def test_a_null_ends_the_prefix_at_its_conjunct():
    """A NULL in the second conjunct's column: the first still runs over the
    column, the closure takes over from the second, on the first's rows."""
    rows = [(k, None if k == 3 else k, "a") for k in range(8)]
    where = where_of("k < 6 AND i > 1 AND s = 'a'")
    seen: list = []
    with spy_on_closures(seen):
        column_filter = _ColumnFilter(where, KIS_SCOPE, EvalContext(), None)
        kept = column_filter.apply(_Chunk(len(rows), rows=rows)).rows()
    assert seen == rows[:6]
    assert kept == [rows[2], rows[4], rows[5]]


def test_both_drivers_spy_the_same_rows():
    """Both drivers hand the closure the rows the prefix keeps."""
    db = Database("spy")
    table = schema("t", ("k", "int"), ("i", "int"), ("s", "text"))
    db.create_table(table).insert_many([(k, k % 4, "ab"[k % 2]) for k in range(40)])
    query = parse("SELECT k FROM t WHERE k >= 10 AND i IN (1, 2) AND s LIKE 'b%'")
    runs = []
    for drive in (
        lambda executor: executor.execute(query).rows,
        lambda executor: executor.execute_stream(query, block_rows=7).drain_rows(),
    ):
        seen: list = []
        with spy_on_closures(seen):
            rows = drive(Executor(db))
        runs.append((seen, rows))
    survivors = [row for row in db.table("t").rows if row[0] >= 10 and row[1] in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == survivors
    assert runs[0][1] == [(k,) for k in range(10, 40) if k % 4 == 1]


# ---------------------------------------------------------------------------
# Drivers against each other and against sqlite3
# ---------------------------------------------------------------------------

D0, D1 = datetime.date(1995, 6, 1), datetime.date(1996, 9, 30)

FILTERS = [
    "o_qty > 10 AND o_price < 3000",
    "o_price >= 100 AND o_status = 'OPEN' AND o_comment LIKE '%brown%'",
    "o_date BETWEEN :d0 AND :d1 AND o_discount IN (0, 3, 7)",
    "o_date NOT BETWEEN :d0 AND :d1 AND o_status NOT IN ('OPEN', 'RETURNED')",
    "o_qty < o_discount + 5 AND o_custkey > 3",
    "o_discount < o_qty AND o_custkey <> 7 AND (o_qty > 40 OR o_price < 500)",
    "40 < o_qty AND o_custkey IN (1, 2, 3, 4, 5, 6) AND o_price > :p",
    "o_status IN ('OPEN', 'SHIPPED') AND o_qty >= 25 AND o_qty <= 26",
]
ENGINE_PARAMS = {"d0": D0, "d1": D1, "p": 1200}
SQLITE_PARAMS = {"d0": D0.isoformat(), "d1": D1.isoformat(), "p": 1200}


def sqlite_value(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def sqlite_copy(db: Database) -> sqlite3.Connection:
    """An in-memory sqlite3 database holding ``db``'s tables (dates as ISO
    text, which sorts and compares like the dates)."""
    connection = sqlite3.connect(":memory:")
    for name, table in db.tables.items():
        names = table.schema.column_names
        connection.execute(f"CREATE TABLE {name} ({', '.join(names)})")
        marks = ", ".join("?" * len(names))
        connection.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(map(sqlite_value, row)) for row in table.rows],
        )
    return connection


def comparable(rows) -> list[tuple]:
    """Rows in sqlite3's value forms, in an order both sides agree on."""
    rows = [tuple(map(sqlite_value, row)) for row in rows]
    return sorted(rows, key=lambda row: [(v is None, str(v)) for v in row])


@pytest.fixture(scope="module")
def sales():
    db = build_sales_db(400, seed=5)
    return db, sqlite_copy(db)


@pytest.mark.parametrize("where", FILTERS)
def test_drivers_and_sqlite_agree_on_filters(sales, where):
    db, connection = sales
    sql = f"SELECT o_orderkey, o_qty, o_date FROM orders WHERE {where}"
    query = parse(sql)
    materializing = Executor(db)
    rows = materializing.execute(query, ENGINE_PARAMS).rows
    stream = Executor(db).execute_stream(query, ENGINE_PARAMS, block_rows=64)
    assert stream.drain_rows() == rows
    assert stream.stats.bytes_scanned == materializing.last_stats.bytes_scanned
    assert stream.stats.rows_output == len(rows)
    assert rows, "a filter that keeps nothing checks little"
    expected = connection.execute(sql, SQLITE_PARAMS).fetchall()
    assert comparable(rows) == comparable(expected)


GROUPED = [
    # Multi-key GROUP BY over a column-filtered scan and over joins.
    "SELECT o_status, o_discount, COUNT(*), SUM(o_price) FROM orders "
    "WHERE o_qty > 10 AND o_discount BETWEEN 2 AND 8 GROUP BY o_status, o_discount",
    "SELECT c_nation, o_status, COUNT(*), MAX(o_qty) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_price > 1000 GROUP BY c_nation, o_status",
    "SELECT c_segment, c_nation, o_discount, SUM(o_qty) FROM customer "
    "JOIN orders ON c_custkey = o_custkey WHERE o_discount IN (1, 2) "
    "GROUP BY c_segment, c_nation, o_discount",
]


@pytest.mark.parametrize("sql", GROUPED)
def test_grouped_queries_match_sqlite(sales, sql):
    db, connection = sales
    rows = Executor(db).execute(parse(sql)).rows
    assert rows
    assert comparable(rows) == comparable(connection.execute(sql).fetchall())


#: Composite keys where either component may be NULL; NULL matches nothing.
LEFT_KEYS = [(1, 1), (1, 2), (None, 1), (2, None), (None, None), (3, 3), (1, 1)]
RIGHT_KEYS = [(1, 1), (None, 1), (2, None), (1, 2), (3, 3), (3, 3), (None, None)]

JOINS = [
    "SELECT l.v, r.w FROM l, r WHERE l.a = r.a AND l.b = r.b",
    "SELECT l.v, r.w FROM r, l WHERE r.b = l.b AND r.a = l.a",
    "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b",
    "SELECT l.v, r.w FROM l LEFT JOIN r ON l.a = r.a AND l.b = r.b",
    "SELECT l.v FROM l LEFT JOIN r ON l.a = r.a AND l.b = r.b WHERE r.w IS NULL",
    "SELECT l.a, l.b, COUNT(*) FROM l LEFT JOIN r ON l.a = r.a AND l.b = r.b "
    "WHERE r.w IS NULL GROUP BY l.a, l.b",
    "SELECT l.v, r.w FROM l, r WHERE l.a = r.a AND l.b = r.b AND r.w > 101",
]


@pytest.mark.parametrize("sql", JOINS)
@pytest.mark.parametrize("bigger", ["l", "r"])
def test_composite_key_joins_match_sqlite(sql, bigger):
    """Both build directions: the smaller side is the one hashed."""
    copies = {"l": 1, "r": 1, bigger: 3}
    db = Database("keys")
    for name, keys, value in (("l", LEFT_KEYS, "v"), ("r", RIGHT_KEYS, "w")):
        columns = (("a", "int"), ("b", "int"), (value, "int"))
        rows = [(a, b, 100 + n) for n, (a, b) in enumerate(keys * copies[name])]
        db.create_table(schema(name, *columns)).insert_many(rows)
    rows = Executor(db).execute(parse(sql)).rows
    expected = sqlite_copy(db).execute(sql).fetchall()
    assert comparable(rows) == comparable(expected)
