"""The server engine's join, pre-filter and GROUP BY operators.

Three checks on ``engine/executor.py`` + ``engine/aggregates.py``:

* a differential of random 2-4 relation queries (composite and single
  join keys, NULL and duplicate keys, OR-of-ANDs predicates, LEFT OUTER,
  correlated EXISTS, grouping) against a brute-force oracle that builds
  the cross product and filters it with the tree-walking ``evaluate``;
* ``Aggregate.fold`` over a column against one ``update`` per row;
* a spy on the join kernel: no intermediate of TPC-H Q7/Q9 is larger
  than the larger of its two inputs, in plaintext and over ciphertext.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MonomiClient
from repro.crypto import generate_keypair
from repro.crypto.packing import PackedLayout
from repro.engine import Database, Executor, schema
from repro.engine.aggregates import make_aggregate
from repro.engine.eval import Env, EvalContext, Scope, evaluate
from repro.engine.executor import ResultSet
from repro.engine.functions import default_functions
from repro.sql import ast, parse
from repro.storage.ciphertext_store import CiphertextFile, CiphertextStore
from repro.testkit import MASTER_KEY, canonical
from repro.tpch import generate, tpch_queries

# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

COLUMNS = ("k", "j", "v", "pad")  # No generated query ever names ``pad``.


def oracle_relation(db, ref, ctx, outer):
    """(scope columns, rows) of one FROM item, by nested loops."""
    if isinstance(ref, ast.TableName):
        table = db.table(ref.name)
        return [(ref.binding, c) for c in table.schema.column_names], table.rows
    assert isinstance(ref, ast.Join)
    left_cols, left_rows = oracle_relation(db, ref.left, ctx, outer)
    right_cols, right_rows = oracle_relation(db, ref.right, ctx, outer)
    scope = Scope(left_cols + right_cols)
    rows = []
    for left in left_rows:
        matches = [
            left + right
            for right in right_rows
            if ref.condition is None
            or evaluate(ref.condition, Env(scope, left + right, outer), ctx) is True
        ]
        if not matches and ref.kind == "left":
            matches = [left + (None,) * len(right_cols)]
        rows.extend(matches)
    return left_cols + right_cols, rows


def oracle_rows(db, query, outer=None):
    """Scope and rows of ``query``'s FROM x WHERE: the whole cross product,
    every conjunct evaluated on every combination."""
    ctx = EvalContext(functions=default_functions())
    ctx.subquery_executor = lambda sub, env: ResultSet(
        ["c"], [(1,)] * len(oracle_rows(db, sub, env)[1])
    )
    columns: list = []
    parts = []
    for ref in query.from_items:
        cols, rows = oracle_relation(db, ref, ctx, outer)
        columns.extend(cols)
        parts.append(rows)
    scope = Scope(columns)
    rows = [sum(combo, ()) for combo in itertools.product(*parts)]
    if query.where is not None:
        rows = [
            row
            for row in rows
            if evaluate(query.where, Env(scope, row, outer), ctx) is True
        ]
    return scope, rows


def oracle_result(db, query) -> Counter:
    scope, rows = oracle_rows(db, query)
    ctx = EvalContext(functions=default_functions())

    def value(expr, row):
        return evaluate(expr, Env(scope, row), ctx)

    if not query.group_by:
        return Counter(
            tuple(value(item.expr, row) for item in query.items) for row in rows
        )
    groups: dict = {}
    for row in rows:
        key = tuple(value(k, row) for k in query.group_by)
        groups.setdefault(key, []).append(row)
    out = Counter()
    for key, members in groups.items():
        cells = list(key)
        for item in query.items[len(key) :]:
            call = item.expr
            if call.star:
                cells.append(len(members))
                continue
            args = [value(call.args[0], member) for member in members]
            args = [v for v in args if v is not None]
            if call.name == "count":
                cells.append(len(args))
            elif call.name == "sum":
                cells.append(sum(args) if args else None)
            else:
                cells.append(min(args) if args else None)
        out[tuple(cells)] += 1
    return out


# ---------------------------------------------------------------------------
# Random databases and queries
# ---------------------------------------------------------------------------

cell = st.sampled_from([None, 0, 1, 2])
table_rows = st.lists(st.tuples(cell, cell, cell, cell), max_size=5)


def build_db(tables) -> Database:
    db = Database()
    for i, rows in enumerate(tables):
        table = db.create_table(schema(f"r{i}", *[(c, "int") for c in COLUMNS]))
        table.insert_many(rows)
    return db


@st.composite
def join_queries(draw):
    count = draw(st.integers(2, 4))
    aliases = [f"t{i}" for i in range(count)]
    tables = [draw(st.sampled_from(["r0", "r1", "r2", "r3"])) for _ in aliases]
    column = st.sampled_from(COLUMNS[:3])
    const = st.sampled_from([0, 1, 2])

    def ref(alias=None):
        return f"{alias or draw(st.sampled_from(aliases))}.{draw(column)}"

    def equi():
        a, b = draw(st.permutations(aliases))[:2]
        left = ref(a) + draw(st.sampled_from(["", " + 1"]))
        return f"{left} = {ref(b)}"

    def local():
        if draw(st.booleans()):
            return f"{ref()} is {draw(st.sampled_from(['', 'not ']))}null"
        return f"{ref()} {draw(st.sampled_from(['=', '<', '>=', '<>']))} {draw(const)}"

    def atom():
        return equi() if draw(st.booleans()) else local()

    def or_of_ands():
        shared = [equi()] if draw(st.booleans()) else []
        branches = [
            " and ".join(shared + [atom() for _ in range(draw(st.integers(1, 3)))])
            for _ in range(draw(st.integers(2, 3)))
        ]
        return "(" + " or ".join(f"({b})" for b in branches) + ")"

    def exists():
        inner = draw(st.sampled_from(["r0", "r1", "r2", "r3"]))
        negated = draw(st.sampled_from(["", "not "]))
        op = draw(st.sampled_from(["<", "=", "<>"]))
        return (
            f"{negated}exists (select 1 from {inner} x "
            f"where x.k = {ref()} and x.v {op} {ref()})"
        )

    from_items = [f"{t} {a}" for t, a in zip(tables, aliases)]
    if draw(st.booleans()):
        # t0 [LEFT OUTER] JOIN t1 ON one or two equalities [AND a rest].
        on = [
            f"t0.{draw(column)} = t1.{draw(column)}"
            for _ in range(draw(st.integers(1, 2)))
        ]
        if draw(st.booleans()):
            on.append(draw(st.sampled_from(["t1.v < 2", "t0.v <> t1.v", "t0.j = 1"])))
        kind = draw(st.sampled_from(["join", "left outer join"]))
        joined = f"{from_items[0]} {kind} {from_items[1]} on {' and '.join(on)}"
        from_items[:2] = [joined]

    makers = [equi, equi, local, or_of_ands, exists]
    conjuncts = [
        draw(st.sampled_from(makers))() for _ in range(draw(st.integers(0, 4)))
    ]
    shape = draw(st.sampled_from(["columns", "star", "grouped"]))
    tail = ""
    if shape == "star":
        select = "*"
    elif shape == "columns":
        select = ", ".join(ref() for _ in range(draw(st.integers(1, 3))))
    else:
        keys = [ref() for _ in range(draw(st.integers(1, 2)))]
        select = ", ".join(keys + ["count(*)", f"sum({ref()})", f"min({ref()})"])
        tail = " group by " + ", ".join(keys)
    where = " where " + " and ".join(conjuncts) if conjuncts else ""
    return f"select {select} from {', '.join(from_items)}{where}{tail}"


def base_tables(ref) -> int:
    if isinstance(ref, ast.Join):
        return base_tables(ref.left) + base_tables(ref.right)
    return 1


def unordered(rows) -> Counter:
    """``*`` lists the columns in join order, which is the engine's to
    choose: compare each row as the multiset of its cells."""
    return Counter(tuple(sorted(map(repr, row))) for row in rows)


#: The engine's two drivers: the materializing ``execute`` and the drained
#: ``execute_stream``.
DRIVERS = {
    "execute": lambda db, query: Executor(db).execute(query).rows,
    "execute_stream": lambda db, query: Executor(db).execute_stream(query).drain_rows(),
}


@pytest.mark.parametrize("drive", sorted(DRIVERS))
@settings(max_examples=300, deadline=None)
@given(tables=st.tuples(*[table_rows] * 4), sql=join_queries())
def test_joins_agree_with_the_cross_product_oracle(drive, tables, sql):
    db = build_db(tables)
    query = parse(sql)
    rows = DRIVERS[drive](db, query)
    if sql.startswith("select *"):  # Nothing is pruned under a ``*``.
        width = len(COLUMNS) * sum(map(base_tables, query.from_items))
        assert all(len(row) == width for row in rows), sql
        assert unordered(rows) == unordered(oracle_rows(db, query)[1]), sql
    else:
        assert Counter(rows) == oracle_result(db, query), sql


@pytest.fixture(params=sorted(DRIVERS))
def run(request):
    """``run(db, sql)``: the rows of ``sql``, through each driver."""
    drive = DRIVERS[request.param]
    return lambda db, sql: drive(db, parse(sql))


class TestCompositeKeys:
    @pytest.fixture()
    def db(self):
        return build_db(
            [
                [(1, 1, 10, 0), (1, 2, 11, 0), (1, None, 12, 0), (2, 1, 13, 0)],
                [(1, 1, 20, 0), (1, 1, 21, 0), (1, None, 22, 0), (None, 1, 23, 0)],
                [(7, 7, 7, 7)],
                [],
            ]
        )

    def test_both_equalities_are_the_key(self, db, run):
        sql = "select a.v, b.v from r0 a, r1 b where a.k = b.k and a.j = b.j"
        assert sorted(run(db, sql)) == [(10, 20), (10, 21)]

    def test_a_null_in_any_component_matches_nothing(self, db, run):
        # (1, NULL) is on both sides and must not meet itself.
        sql = "select count(*) from r0 a, r1 b where a.k = b.k and a.j = b.j"
        assert run(db, sql) == [(2,)]

    def test_left_outer_with_composite_key_and_a_rest(self, db, run):
        sql = (
            "select a.v, b.v from r0 a left outer join r1 b "
            "on a.k = b.k and a.j = b.j and b.v > 20"
        )
        assert sorted(run(db, sql), key=repr) == [
            (10, 21),
            (11, None),
            (12, None),
            (13, None),
        ]

    def test_pruning_leaves_star_alone(self, db, run):
        rows = run(db, "select * from r0 a, r2 c where a.k = 2")
        assert rows == [(2, 1, 13, 0, 7, 7, 7, 7)]

    def test_a_correlated_subquery_still_sees_the_outer_columns(self, db, run):
        # ``j`` is named only inside the subquery, against the outer alias.
        sql = (
            "select a.v from r0 a, r2 c where a.k = 1 and "
            "exists (select 1 from r1 x where x.k = a.k and x.j = a.j)"
        )
        assert sorted(run(db, sql)) == [(10,)]


class JoinSpy:
    """Records (operator, left rows, right rows, output rows) per join."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, int, int, int]] = []
        for name in ("_hash_join", "_cross"):
            original = getattr(Executor, name)
            monkeypatch.setattr(Executor, name, self._wrap(name, original))

    def _wrap(self, name, original):
        def spied(executor, left, right, *args, **kwargs):
            out = original(executor, left, right, *args, **kwargs)
            self.calls.append((name, len(left.rows), len(right.rows), len(out.rows)))
            return out

        return spied


def test_an_edgeless_relation_is_crossed_in_last(monkeypatch, run):
    db = Database()
    for name, rows in (("a", 3), ("b", 4), ("c", 1)):
        table = db.create_table(schema(name, ("x", "int")))
        table.insert_many([(i,) for i in range(rows)])
    spy = JoinSpy(monkeypatch)
    rows = run(db, "select a.x, b.x, c.x from a, b, c where a.x = b.x")
    assert sorted(rows) == [(0, 0, 0), (1, 1, 0), (2, 2, 0)]
    # ``c`` is the smallest but nothing joins it: a and b meet first.
    assert spy.calls == [("_hash_join", 3, 4, 3), ("_cross", 3, 1, 3)]


# ---------------------------------------------------------------------------
# fold == one update per row
# ---------------------------------------------------------------------------

number = st.one_of(
    st.none(), st.integers(-50, 50), st.floats(-1e6, 1e6, allow_nan=False)
)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", ["sum", "count", "avg", "min", "max", "grp"])
@settings(max_examples=60, deadline=None)
@given(first=st.lists(number, max_size=12), second=st.lists(number, max_size=12))
def test_fold_is_update_per_row(name, distinct, first, second):
    store = CiphertextStore()
    folded = make_aggregate(name, distinct, store)
    updated = make_aggregate(name, distinct, store)
    for column in (first, second):  # State carries from one fold to the next.
        folded.fold([column])
        for value in column:
            updated.update([value])
    assert repr(folded.finalize()) == repr(updated.finalize())


@pytest.fixture(scope="module")
def hom_store():
    public, _ = generate_keypair(256, seed=b"fold-hom")
    layout = PackedLayout(
        column_bits=(16,), pad_bits=8, plaintext_bits=public.plaintext_bits
    )
    file = CiphertextFile(
        name="t_hom", public_key=public, layout=layout, column_names=("x",), num_rows=10
    )
    step = layout.rows_per_ciphertext
    for start in range(0, 10, step):
        rows = [[i] for i in range(start, min(start + step, 10))]
        file.ciphertexts.append(public.encrypt(layout.encode_rows(rows)))
    store = CiphertextStore()
    store.add(file)
    return store


@pytest.mark.parametrize("distinct", [False, True])
@settings(max_examples=40, deadline=None)
@given(row_ids=st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=15))
def test_fold_is_update_per_row_for_hom_agg(hom_store, distinct, row_ids):
    folded = make_aggregate("hom_agg", distinct, hom_store)
    updated = make_aggregate("hom_agg", distinct, hom_store)
    folded.fold([["t_hom"] * len(row_ids), row_ids])
    for row_id in row_ids:
        updated.update(["t_hom", row_id])
    assert folded.finalize() == updated.finalize()


def test_count_star_folds_a_column_of_ones():
    agg = make_aggregate("count", False, CiphertextStore())
    agg.fold([[1] * 7])
    assert agg.finalize() == 7


# ---------------------------------------------------------------------------
# TPC-H Q7 / Q9: no intermediate wider than its inputs
# ---------------------------------------------------------------------------

TPCH_SCALE = 0.001
JOIN_HEAVY = (7, 9)


@pytest.fixture(scope="module")
def tpch():
    db = generate(scale=TPCH_SCALE)
    queries = tpch_queries(TPCH_SCALE)
    client = MonomiClient.setup(
        db,
        [queries[n].sql for n in JOIN_HEAVY],
        master_key=MASTER_KEY,
        paillier_bits=384,
    )
    return db, queries, client


@pytest.mark.parametrize("number", JOIN_HEAVY)
def test_no_tpch_intermediate_exceeds_its_largest_input(tpch, monkeypatch, number):
    db, queries, client = tpch
    sql = queries[number].sql
    spy = JoinSpy(monkeypatch)
    plain = Executor(db).execute(parse(sql)).rows
    plain_joins, spy.calls = spy.calls, []
    encrypted = client.execute(sql).rows
    assert canonical(encrypted) == canonical(plain)
    for calls in (plain_joins, spy.calls):
        assert len(calls) >= 5, calls  # Both run the six-table join.
        for name, left, right, out in calls:
            assert out <= max(left, right), (number, name, left, right, out)
