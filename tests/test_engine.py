"""Engine tests: schema/catalog/table, evaluation, executor features."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CatalogError, ExecutionError
from repro.engine import Database, Executor, schema
from repro.engine.eval import Env, EvalContext, Scope, evaluate, like_matches
from repro.sql import ast, parse, parse_expression


@pytest.fixture()
def db():
    database = Database()
    t = database.create_table(
        schema("t", ("a", "int"), ("b", "int"), ("s", "text"), ("d", "date"))
    )
    t.insert_many(
        [
            (1, 10, "alpha", datetime.date(1995, 1, 1)),
            (2, 20, "beta", datetime.date(1995, 6, 1)),
            (3, None, "gamma", datetime.date(1996, 1, 1)),
            (4, 40, None, datetime.date(1996, 6, 1)),
        ]
    )
    u = database.create_table(schema("u", ("k", "int"), ("v", "text")))
    u.insert_many([(1, "one"), (2, "two"), (5, "five")])
    return database


def run(db, sql, params=None):
    return Executor(db).execute(parse(sql), params=params).rows


class TestSchemaAndCatalog:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            schema("x", ("a", "int"), ("a", "int"))

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            schema("x", ("a", "decimal"))

    def test_type_enforcement(self, db):
        with pytest.raises(CatalogError):
            db.table("t").insert(("not-int", 1, "x", datetime.date(2000, 1, 1)))

    def test_row_arity_enforcement(self, db):
        with pytest.raises(CatalogError):
            db.table("t").insert((1, 2))

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table(schema("t", ("x", "int")))

    def test_analyze_stats(self, db):
        stats = db.table("t").analyze()
        assert stats["a"].num_distinct == 4
        assert stats["b"].num_nulls == 1
        assert stats["a"].min_value == 1 and stats["a"].max_value == 4


class TestNullSemantics:
    def test_null_comparison_filters_out(self, db):
        assert run(db, "SELECT a FROM t WHERE b > 15") == [(2,), (4,)]

    def test_is_null(self, db):
        assert run(db, "SELECT a FROM t WHERE b IS NULL") == [(3,)]
        assert len(run(db, "SELECT a FROM t WHERE b IS NOT NULL")) == 3

    def test_aggregates_skip_nulls(self, db):
        assert run(db, "SELECT COUNT(b), COUNT(*), SUM(b) FROM t") == [(3, 4, 70)]

    def test_three_valued_or(self, db):
        # b IS NULL for a=3: (b > 100 OR a = 3) must still keep the row.
        rows = run(db, "SELECT a FROM t WHERE b > 100 OR a = 3")
        assert rows == [(3,)]

    def test_in_list_with_null_needle(self, db):
        rows = run(db, "SELECT a FROM t WHERE b IN (10, 40)")
        assert rows == [(1,), (4,)]


class TestExecutorFeatures:
    def test_hash_join(self, db):
        rows = run(db, "SELECT a, v FROM t, u WHERE a = k ORDER BY a")
        assert rows == [(1, "one"), (2, "two")]

    def test_left_join_null_extension(self, db):
        rows = run(db, "SELECT k, s FROM u LEFT JOIN t ON k = a ORDER BY k")
        assert rows == [(1, "alpha"), (2, "beta"), (5, None)]

    def test_cross_product_when_no_predicate(self, db):
        assert len(run(db, "SELECT a, k FROM t, u")) == 12

    def test_group_by_expression(self, db):
        rows = run(
            db,
            "SELECT EXTRACT(YEAR FROM d) AS y, COUNT(*) FROM t "
            "GROUP BY EXTRACT(YEAR FROM d) ORDER BY y",
        )
        assert rows == [(1995, 2), (1996, 2)]

    def test_having_and_alias(self, db):
        rows = run(
            db,
            "SELECT EXTRACT(YEAR FROM d) AS y, SUM(a) AS asum FROM t "
            "GROUP BY EXTRACT(YEAR FROM d) HAVING asum > 3 ORDER BY y",
        )
        assert rows == [(1996, 7)]

    def test_order_by_desc_nulls_last(self, db):
        rows = run(db, "SELECT b FROM t ORDER BY b")
        assert rows == [(10,), (20,), (40,), (None,)]

    def test_limit_and_distinct(self, db):
        assert run(db, "SELECT a FROM t ORDER BY a LIMIT 2") == [(1,), (2,)]
        assert len(run(db, "SELECT DISTINCT EXTRACT(YEAR FROM d) FROM t")) == 2

    def test_correlated_scalar_subquery(self, db):
        rows = run(
            db,
            "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t t2 "
            "WHERE EXTRACT(YEAR FROM t2.d) = EXTRACT(YEAR FROM t.d)) ORDER BY a",
        )
        assert rows == [(2,), (4,)]

    def test_exists_semijoin(self, db):
        rows = run(db, "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE k = a) ORDER BY a")
        assert rows == [(1,), (2,)]

    def test_not_exists(self, db):
        rows = run(db, "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE k = a) ORDER BY a")
        assert rows == [(3,), (4,)]

    def test_in_subquery(self, db):
        rows = run(db, "SELECT v FROM u WHERE k IN (SELECT a FROM t WHERE b >= 20) ORDER BY v")
        assert rows == [("two",)]

    def test_scalar_subquery_multi_row_error(self, db):
        with pytest.raises(ExecutionError):
            run(db, "SELECT a FROM t WHERE a = (SELECT k FROM u)")

    def test_from_subquery(self, db):
        rows = run(
            db,
            "SELECT y, total FROM (SELECT EXTRACT(YEAR FROM d) AS y, SUM(a) AS total "
            "FROM t GROUP BY EXTRACT(YEAR FROM d)) AS agg ORDER BY y",
        )
        assert rows == [(1995, 3), (1996, 7)]

    def test_case_when(self, db):
        rows = run(db, "SELECT SUM(CASE WHEN a > 2 THEN 1 ELSE 0 END) FROM t")
        assert rows == [(2,)]

    def test_params(self, db):
        rows = run(db, "SELECT a FROM t WHERE b > :1", params={"1": 15})
        assert rows == [(2,), (4,)]

    def test_or_factoring_correctness(self, db):
        rows = run(
            db,
            "SELECT a, k FROM t, u WHERE (a = k AND b < 15) OR (a = k AND b > 30) "
            "ORDER BY a",
        )
        assert rows == [(1, 1)]

    def test_aggregate_outside_group_rejected(self, db):
        with pytest.raises(ExecutionError):
            run(db, "SELECT a FROM t WHERE SUM(b) > 1")

    def test_count_distinct(self, db):
        rows = run(db, "SELECT COUNT(DISTINCT EXTRACT(YEAR FROM d)) FROM t")
        assert rows == [(2,)]

    def test_empty_aggregate_identity(self, db):
        rows = run(db, "SELECT COUNT(*), SUM(a) FROM t WHERE a > 100")
        assert rows == [(0, None)]


class TestLikeMatching:
    @pytest.mark.parametrize(
        "text,pattern,expected",
        [
            ("hello world", "%world", True),
            ("hello world", "hello%", True),
            ("hello world", "%lo wo%", True),
            ("hello world", "h_llo world", True),
            ("hello world", "%xyz%", False),
            ("special requests", "%special%requests%", True),
        ],
    )
    def test_patterns(self, text, pattern, expected):
        assert like_matches(text, pattern) is expected


class TestEvaluator:
    def test_date_interval_arithmetic(self):
        ctx = EvalContext()
        expr = parse_expression("DATE '1994-01-31' + INTERVAL '1' MONTH")
        assert evaluate(expr, None, ctx) == datetime.date(1994, 2, 28)
        expr = parse_expression("DATE '1994-03-31' - INTERVAL '1' MONTH")
        assert evaluate(expr, None, ctx) == datetime.date(1994, 2, 28)
        expr = parse_expression("DATE '1994-03-01' - DATE '1994-02-01'")
        assert evaluate(expr, None, ctx) == 28

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate(parse_expression("1 / 0"), None, ctx=EvalContext())

    def test_scope_ambiguity(self):
        scope = Scope([("a", "x"), ("b", "x")])
        env = Env(scope, (1, 2))
        with pytest.raises(ExecutionError):
            env.lookup(None, "x")
        assert env.lookup("a", "x") == 1

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=30)
    def test_arithmetic_matches_python(self, a, b):
        ctx = EvalContext()
        expr = ast.BinOp("+", ast.Literal(a), ast.BinOp("*", ast.Literal(b), ast.Literal(3)))
        assert evaluate(expr, None, ctx) == a + b * 3


class TestCompiledIn:
    """An all-literal IN list compiles to one set probe; every other list
    keeps the item-by-item loop.  Both must say what ``evaluate`` says."""

    SCOPE = Scope([("t", "x"), ("t", "y")])
    ROWS = [(1, 1), (2, None), (None, 3), (7, 2), (2.0, 5), ("2", 0), (True, 4), ((2,), 1)]

    @pytest.mark.parametrize(
        "sql",
        [
            "x IN (1, 2, 3)",  # Set probe.
            "x NOT IN (1, 2, 3)",
            "x IN ('2', 'b')",
            "x IN (1, NULL, 3)",  # A NULL item: a miss is unknown.
            "x NOT IN (1, NULL, 3)",
            "x IN (1, '2', 3)",  # Mixed types keep the loop.
            "x IN (1, 2.0)",
            "x IN (NULL)",
            "x IN (1, y, 3)",  # Not all literals.
            "x NOT IN (y, 2)",
        ],
    )
    def test_compiled_matches_interpreter(self, sql):
        from repro.engine.eval import compile_expr

        expr = parse_expression(sql)
        ctx = EvalContext()
        fn = compile_expr(expr, self.SCOPE, ctx)
        for row in self.ROWS:
            want = evaluate(expr, Env(self.SCOPE, row), ctx)
            got = fn(row)
            assert got is want or got == want and type(got) is type(want), (sql, row)

    def test_unhashable_items_and_needles_keep_the_loop(self):
        from repro.engine.eval import _in_probe, compile_expr

        assert _in_probe([1, 2, 3]) == frozenset({1, 2, 3})
        assert _in_probe([[1], [2]]) is None
        assert _in_probe([1, None]) is None
        assert _in_probe([1, "1"]) is None
        assert _in_probe([float("nan"), 1.0]) is None
        assert _in_probe([]) is None
        expr = ast.InList(ast.Column("x"), (ast.Literal(1), ast.Literal(2)))
        fn = compile_expr(expr, self.SCOPE, EvalContext())
        assert fn(([1], 0)) is False  # A list needle cannot be hashed.


class TestTableWrites:
    def _table(self):
        table = Database("w").create_table(
            schema("t", ("k", "int"), ("v", "float"), ("s", "text"), ("tags", "tagset"))
        )
        table.insert_many(
            [
                (1, 1.5, "a", frozenset({b"x"})),
                (2, None, "b", None),
                (2, 3, None, frozenset({b"x", b"y"})),
                (None, 2.5, "a", frozenset()),
            ]
        )
        return table

    def test_replace_validates_every_pair_before_the_first_row_moves(self):
        table = self._table()
        rows, size, stats = list(table.rows), table.total_bytes, table.analyze()
        good = ((1, 1.5, "a", frozenset({b"x"})), (9, 9.5, "long text", None))
        bad = ((2, None, "b", None), (2, "not a float", "b", None))
        with pytest.raises(CatalogError):
            table.replace_exact([good, bad])
        assert table.rows == rows and table.total_bytes == size
        assert table.analyze() == stats
        assert table.replace_exact([good]) == 1

    def test_a_table_nobody_analyzed_or_wrote_counts_nothing(self):
        table = self._table()
        assert table._counters is None  # Loaded, never analyzed.
        table.analyze()
        assert table._counters is None  # Analyzed, never written since.
        table.insert((5, 0.5, "c", None))
        assert table._counters is not None
        assert table._counters[3] is None  # Tag sets are rescanned.

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "replace", "analyze"]),
                st.integers(0, 30),
                st.one_of(st.none(), st.integers(-3, 3)),
                st.one_of(st.none(), st.integers(0, 2), st.sampled_from([0.5, 2.0])),
                st.one_of(st.none(), st.sampled_from(["", "a", "bb", "ccc"])),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_statistics_stay_exact_under_writes(self, script):
        """After any write script, analyze() equals that of a table built
        from the surviving rows — field for field, floats included."""
        table = self._table()
        table.analyze()
        for op, pick, k, v, s in script:
            row = (k, v, s, frozenset({b"x"}) if pick % 2 else None)
            if op == "insert":
                table.insert(row)
            elif op == "analyze":
                table.analyze()
            elif table.rows:
                victim = table.rows[pick % len(table.rows)]
                if op == "delete":
                    assert table.delete_exact([victim]) == 1
                else:
                    assert table.replace_exact([(victim, row)]) == 1
        fresh = Database("f").create_table(table.schema)
        fresh.insert_many(table.rows)
        assert table.analyze() == fresh.analyze()
        assert table.total_bytes == fresh.total_bytes
