"""Set-up computes each statistic once, and does per-row work only where
the data needs it.

* The designer's plaintext statistics (``DesignSizer._value_bits`` and
  ``_plain_width``, ``Designer._int_range``) run the compiled evaluator and
  must equal the tree-walking :func:`~repro.engine.eval.evaluate` they
  replaced; one ``design_ilp`` computes each ⟨table, expr⟩ statistic once.
* :class:`~repro.crypto.packing.PackedLayout` stores its slot widths and
  offsets; every encode/decode must equal the from-scratch formulas, and
  equality, hashing, repr and pickles still see the three fields only.
* ``Table.insert_many`` validates a whole batch before the first row lands,
  so a failed batch leaves every backend as it was.
* The designer refuses a packed group whose row cannot fit a Paillier
  plaintext, instead of pricing it and crashing the load.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.common.errors import CatalogError, DomainError, ReproError
from repro.core import (
    CryptoProvider,
    DecryptionProfile,
    MonomiClient,
    normalize_query,
)
from repro.core import designer as designer_mod
from repro.core import sizer as sizer_mod
from repro.core.designer import Designer
from repro.core.sizer import DesignSizer
from repro.core.typing import infer_type
from repro.crypto.packing import PackedLayout
from repro.engine import Executor
from repro.engine.catalog import Database
from repro.engine.eval import Env, EvalContext, Scope, evaluate
from repro.engine.schema import ColumnDef, TableSchema
from repro.engine.table import Table
from repro.server import make_backend
from repro.sql import ast, parse, parse_expression, to_sql
from repro.storage.rowcodec import row_bytes, value_bytes
from repro.testkit import MASTER_KEY, canonical

PINS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "pins"
TPCH_DESIGN_INPUT = (1, 3, 4, 6, 7, 9, 14, 19, 22)
SCHEMA = TableSchema(
    "t", (ColumnDef("a", "int"), ColumnDef("b", "int"), ColumnDef("f", "bool"))
)


@pytest.fixture(scope="module")
def small_provider():
    return CryptoProvider(MASTER_KEY, paillier_bits=128)


def make_db(rows) -> Database:
    db = Database()
    db.create_table(SCHEMA).insert_many(rows)
    return db


# -- designer statistics ------------------------------------------------------


def reference_values(table: Table, expr_sql: str, limit: int | None = None):
    """``expr_sql`` over the table's rows by the tree-walking evaluator."""
    expr = parse_expression(expr_sql)
    scope = Scope([(table.name, c) for c in table.schema.column_names])
    ctx = EvalContext()
    rows = table.rows if limit is None else table.rows[:limit]
    return [evaluate(expr, Env(scope, row), ctx) for row in rows]


def reference_value_bits(table: Table, expr_sql: str) -> int:
    best = 1
    for value in reference_values(table, expr_sql, 500):
        if isinstance(value, int) and not isinstance(value, bool):
            best = max(best, abs(value).bit_length())
    return best + 2


def reference_plain_width(table: Table, expr_sql: str) -> tuple[float, str]:
    plain_type = infer_type(parse_expression(expr_sql), {table.name: table.schema})
    values = reference_values(table, expr_sql, 200)
    if not values:
        return 8.0, plain_type
    return sum(value_bytes(v) for v in values) / len(values), plain_type


def reference_min(table: Table, expr_sql: str) -> int | None:
    best = None
    for value in reference_values(table, expr_sql):
        if isinstance(value, bool) or not isinstance(value, int):
            if value is not None:
                return None
            continue
        best = value if best is None else min(best, value)
    return best


def outcome(fn, *args):
    """``fn(*args)``, or the type of the engine error it raised."""
    try:
        return fn(*args)
    except ReproError as exc:
        return type(exc)


cells = st.one_of(st.none(), st.integers(-(2**40), 2**40))
rows_strategy = st.lists(
    st.tuples(cells, cells, st.one_of(st.none(), st.booleans())), max_size=30
)
leaves = st.one_of(
    st.sampled_from([ast.Column("a"), ast.Column("b"), ast.Column("f")]),
    st.integers(-50, 50).map(ast.Literal),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), inner, inner).map(
            lambda t: ast.BinOp(*t)
        ),
        inner.map(lambda e: ast.UnaryOp("-", e)),
    ),
    max_leaves=6,
)


@given(rows=rows_strategy, expr=expressions)
@settings(max_examples=150, deadline=None)
def test_compiled_statistics_equal_tree_walking_evaluate(rows, expr, small_provider):
    db = make_db(rows)
    table = db.table("t")
    expr_sql = to_sql(expr)
    sizer = DesignSizer(db, small_provider)
    designer = Designer(db, small_provider)
    expected_range = low = outcome(reference_min, table, expr_sql)
    if isinstance(low, int):
        values = reference_values(table, expr_sql)
        expected_range = (low, max(v for v in values if v is not None))
    for _ in range(2):  # The second call answers from the memo.
        assert outcome(sizer._value_bits, "t", expr_sql) == outcome(
            reference_value_bits, table, expr_sql
        )
        assert outcome(sizer._plain_width, "t", expr_sql) == outcome(
            reference_plain_width, table, expr_sql
        )
        assert outcome(designer._int_range, "t", expr_sql) == expected_range


def test_statistics_read_the_same_sample():
    """Widths sample the first 200 rows and bit widths the first 500; the
    designer's range scans every row."""
    rows = [(1, 1, None)] * 500 + [(2**50, 2**50, None)]
    db = make_db(rows)
    sizer = DesignSizer(db, CryptoProvider(MASTER_KEY, paillier_bits=128))
    assert sizer._value_bits("t", "a") == 3
    assert sizer._plain_width("t", "a") == (8.0, "int")
    designer = Designer(db, sizer.provider)
    assert designer._int_range("t", "a") == (1, 2**50)
    assert designer._int_range("nope", "a") is None


@pytest.fixture(scope="module")
def pinned_provider():
    constants = json.loads((PINS / "decryption_profile.json").read_text())
    return CryptoProvider(
        MASTER_KEY,
        paillier_bits=512,
        decryption_profile=DecryptionProfile(**constants),
    )


def test_design_ilp_computes_each_statistic_once(pinned_provider, monkeypatch):
    """One ILP design over the benchmark's TPC-H nine compiles each
    ⟨table, expr⟩ statistic once, and still yields the pinned design."""
    compiled: dict[tuple, int] = {}

    def spy(module):
        real = module.row_function

        def counting(table, expr):
            caller = sys._getframe(1).f_code.co_name
            key = (caller, table.name, to_sql(expr))
            compiled[key] = compiled.get(key, 0) + 1
            return real(table, expr)

        monkeypatch.setattr(module, "row_function", counting)

    spy(sizer_mod)
    spy(designer_mod)
    db = tpch.generate(scale=0.001)
    sqls = tpch.tpch_queries(0.001)
    queries = [normalize_query(parse(sqls[n].sql)) for n in TPCH_DESIGN_INPUT]
    result = Designer(db, pinned_provider).design_ilp(queries, 2.0)
    pinned = json.loads((PINS / "tpch_adhoc_mem.json").read_text())["design"]
    assert result.design.fingerprint() == pinned
    callers = {caller for caller, _, _ in compiled}
    assert {"_value_bits", "_plain_width", "_int_range"} <= callers
    assert set(compiled.values()) == {1}


# -- packed layouts -------------------------------------------------------------


class FormulaLayout:
    """The layout arithmetic rebuilt from scratch on every call."""

    def __init__(self, column_bits, pad_bits, plaintext_bits) -> None:
        self.column_bits = column_bits
        self.pad_bits = pad_bits
        self.plaintext_bits = plaintext_bits

    @property
    def slot_bits(self):
        return tuple(b + self.pad_bits for b in self.column_bits)

    @property
    def row_bits(self):
        return sum(self.slot_bits)

    @property
    def rows_per_ciphertext(self):
        return self.plaintext_bits // self.row_bits

    def slot_offset(self, row_index, column_index):
        if not 0 <= row_index < self.rows_per_ciphertext:
            raise DomainError(f"row index {row_index} out of group")
        if not 0 <= column_index < len(self.column_bits):
            raise DomainError(f"column index {column_index} out of layout")
        offset = row_index * self.row_bits
        for width in self.slot_bits[:column_index]:
            offset += width
        return offset

    def encode_rows(self, rows):
        if len(rows) > self.rows_per_ciphertext:
            raise DomainError(
                f"{len(rows)} rows exceed group capacity {self.rows_per_ciphertext}"
            )
        plaintext = 0
        for r, row in enumerate(rows):
            if len(row) != len(self.column_bits):
                raise DomainError(
                    f"row has {len(row)} values, layout has {len(self.column_bits)}"
                )
            for c, value in enumerate(row):
                if value < 0:
                    raise DomainError("packed values must be non-negative")
                if value.bit_length() > self.column_bits[c]:
                    raise DomainError(
                        f"value {value} wider than column {c} "
                        f"({self.column_bits[c]} bits)"
                    )
                plaintext |= value << self.slot_offset(r, c)
        return plaintext

    def decode_column_sums(self, plaintext):
        totals = [0] * len(self.column_bits)
        for r in range(self.rows_per_ciphertext):
            for c in range(len(self.column_bits)):
                offset = self.slot_offset(r, c)
                width = self.slot_bits[c]
                totals[c] += (plaintext >> offset) & ((1 << width) - 1)
        return totals

    def decode_rows(self, plaintext, num_rows):
        if num_rows > self.rows_per_ciphertext:
            raise DomainError("more rows requested than the group holds")
        rows = []
        for r in range(num_rows):
            row = []
            for c in range(len(self.column_bits)):
                offset = self.slot_offset(r, c)
                row.append((plaintext >> offset) & ((1 << self.slot_bits[c]) - 1))
            rows.append(row)
        return rows


def message(fn, *args):
    """``fn(*args)``, or the message of the DomainError it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


@st.composite
def layouts(draw):
    column_bits = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=4)))
    pad_bits = draw(st.integers(0, 8))
    row_bits = sum(column_bits) + pad_bits * len(column_bits)
    plaintext_bits = row_bits * draw(st.integers(1, 6)) + draw(st.integers(0, 20))
    return column_bits, pad_bits, plaintext_bits


@given(fields=layouts(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_stored_offsets_equal_the_formulas(fields, data):
    layout = PackedLayout(*fields)
    formula = FormulaLayout(*fields)
    assert layout.slot_bits == formula.slot_bits
    assert layout.row_bits == formula.row_bits
    assert layout.rows_per_ciphertext == formula.rows_per_ciphertext
    capacity = formula.rows_per_ciphertext
    for r in range(-1, capacity + 1):
        for c in range(-1, len(fields[0]) + 1):
            assert message(layout.slot_offset, r, c) == message(
                formula.slot_offset, r, c
            )
    widths = fields[0]
    values = st.lists(
        st.tuples(*[st.integers(-2, (1 << (b + 1)) - 1) for b in widths]),
        max_size=capacity + 1,
    )
    rows = data.draw(values)
    assert message(layout.encode_rows, rows) == message(formula.encode_rows, rows)
    short = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=len(widths)))
    assert message(layout.encode_rows, [short]) == message(
        formula.encode_rows, [short]
    )
    plaintext = data.draw(st.integers(0, (1 << fields[2]) - 1))
    assert layout.decode_column_sums(plaintext) == formula.decode_column_sums(
        plaintext
    )
    count = data.draw(st.integers(0, capacity + 1))
    assert message(layout.decode_rows, plaintext, count) == message(
        formula.decode_rows, plaintext, count
    )


@given(fields=layouts())
@settings(max_examples=50, deadline=None)
def test_layout_identity_sees_the_fields_only(fields):
    fresh = PackedLayout(*fields)
    used = PackedLayout(*fields)
    used.decode_rows(0, 1)
    used.decode_column_sums(0)
    assert used == fresh
    assert hash(used) == hash(fresh) == hash(fields)
    assert repr(used) == (
        f"PackedLayout(column_bits={fields[0]!r}, pad_bits={fields[1]!r}, "
        f"plaintext_bits={fields[2]!r})"
    )
    assert pickle.dumps(used) == pickle.dumps(fresh)
    loaded = pickle.loads(pickle.dumps(used))
    assert loaded == used
    assert vars(loaded) == {
        "column_bits": fields[0],
        "pad_bits": fields[1],
        "plaintext_bits": fields[2],
    }
    assert loaded.column_offsets == used.column_offsets
    assert loaded.decode_column_sums(7) == used.decode_column_sums(7)


# -- bulk table insert ----------------------------------------------------------

table_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-(2**70), 2**70)),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=20,
)


@given(first=table_rows, second=table_rows)
@settings(max_examples=60, deadline=None)
def test_insert_many_keeps_bytes_and_counters_exact(first, second):
    table = Table(SCHEMA)
    table.insert_many(first)
    table.analyze()  # Statistics asked for: the next write keeps counters.
    table.insert_many(iter(second))
    assert table.rows == first + second
    assert table.total_bytes == sum(row_bytes(row) for row in first + second)
    rescanned = Table(SCHEMA)
    for row in first + second:
        rescanned.insert(row)
    assert table.analyze() == rescanned.analyze()


def test_empty_batch_leaves_statistics_alone():
    table = Table(SCHEMA)
    table.insert_many([(1, 2, True)])
    stats = table.analyze()
    table.insert_many([])
    assert table.analyze() is stats


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_failed_batch_leaves_the_table_untouched(kind):
    backend = make_backend(kind)
    backend.create_table(
        TableSchema("t", (ColumnDef("a", "int"), ColumnDef("b", "int")))
    )
    backend.insert_rows("t", [(5, 6)])
    before = backend.row_count("t"), backend.table_bytes("t")
    with pytest.raises(ReproError):
        backend.insert_rows("t", [(1, 2), (3,)])
    assert (backend.row_count("t"), backend.table_bytes("t")) == before


def test_failed_batch_keeps_rows_and_statistics():
    table = Table(SCHEMA)
    table.insert_many([(1, 2, True)])
    stats = table.analyze()
    with pytest.raises(CatalogError):
        table.insert_many([(3, 4, False), (5, "six", None)])
    assert table.rows == [(1, 2, True)]
    assert table.total_bytes == row_bytes((1, 2, True))
    assert table.analyze() is stats


# -- groups the loader cannot pack ---------------------------------------------


def test_group_wider_than_the_plaintext_is_not_chosen(small_provider):
    """At 128-bit keys Q1's packed lineitem group is wider than one
    plaintext: the designer must not choose it, and the load succeeds."""
    db = tpch.generate(scale=0.001)
    q1 = tpch.tpch_queries(0.001)[1].sql
    client = MonomiClient.setup(db, [q1], provider=small_provider, space_budget=3.0)
    plaintext_bits = small_provider.paillier_public.plaintext_bits
    for group in client.design.hom_groups:
        layout = client.backend.ciphertext_store.get(group.file_name).layout
        assert layout.row_bits <= plaintext_bits
    expected = Executor(db).execute(parse(q1)).rows
    assert canonical(client.execute(q1).rows) == canonical(expected)
