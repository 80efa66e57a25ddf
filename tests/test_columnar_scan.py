"""The streamed scan driver: filter and project a column at a time.

``Executor.execute_stream`` runs every scan → filter → project → limit
query, table-backed (in-memory servers and shards) or source-backed (the
client residual over decrypted blocks), through one column-at-a-time
driver.  Its contract is the materializing executor's output: the same
rows in the same order, blocks of exactly ``block_rows`` rows but the
last, the same ``rows_output`` and ``bytes_scanned``, and payload bytes
that add up to ``ResultSet.byte_size``.  A hypothesis differential checks
that over NULLs, bools, dates, bytes, wide ints, parameters, OR, LIKE and
IN subqueries; targeted tests pin LIMIT laziness, error classes and the
no-copy pass-through of picked source columns.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.engine import (
    BlockStream,
    Database,
    Executor,
    RowBlock,
    blocks_from_rows,
    result_header_bytes,
    schema,
)
from repro.sql import parse

T_COLUMNS = (("k", "int"), ("a", "any"), ("d", "date"), ("b", "bytes"), ("s", "text"))

a_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.integers(2**63 - 2, 2**63 + 2),  # Both sides of the int64 edge.
    st.integers(-(2**70), -(2**64)),
)
d_values = st.one_of(
    st.none(),
    st.dates(datetime.date(1994, 1, 1), datetime.date(1997, 12, 31)),
)
b_values = st.one_of(st.none(), st.sampled_from([b"", b"\xab", b"\xab\xcd", b"z"]))
s_values = st.one_of(st.none(), st.text(alphabet="abé€", max_size=4))

PREDICATES = [
    None,
    "k",  # Truthy ints are not True: only a bool True keeps a row.
    "a",
    "a > 3",
    "a = 1",
    "5 <= a",
    "a <> 0",
    "a > :p",
    "d >= DATE '1996-01-01'",
    "b = X'ab'",
    "s LIKE '%a%'",
    "a > 3 OR s LIKE 'b%'",
    "a IS NULL OR d < DATE '1995-06-01'",
    "a IN (SELECT x FROM u)",
    "k IN (SELECT x FROM u WHERE x > 2)",
    "a + 1 > 5",
    "NOT (a = 2)",
    "k IN (1, 2, 3, 5, 8)",
    "b = :pb AND a < 10",
]
ITEMS = ["k", "a", "d", "b", "s", "*", "t.*", "a + 1", "k * 2", "s || 'x'", ":p"]
PARAMS = {"p": 2, "pb": b"\xab"}


def build_db(t_rows: list[tuple], u_values: list[int], with_t: bool = True):
    db = Database("scan")
    if with_t:
        db.create_table(schema("t", *T_COLUMNS)).insert_many(t_rows)
    db.create_table(schema("u", ("x", "int"))).insert_many([(x,) for x in u_values])
    return db


def run_stream(executor, query, block_rows, sources=None):
    """(columns, rows, block sizes, payload bytes, stats) of one streamed run."""
    stream = executor.execute_stream(
        query, PARAMS, block_rows=block_rows, sources=sources
    )
    blocks = list(stream)
    rows = [row for block in blocks for row in block.rows()]
    for block in blocks:
        assert len(block.columns) == (len(rows[0]) if rows else 0)
        assert all(len(column) == block.num_rows for column in block.columns)
    payload = result_header_bytes(stream.columns)
    payload += sum(block.payload_bytes() for block in blocks)
    return stream.columns, rows, [len(b) for b in blocks], payload, stream.stats


def expected_sizes(num_rows: int, block_rows: int) -> list[int]:
    full, rest = divmod(num_rows, block_rows)
    return [block_rows] * full + ([rest] if rest else [])


@given(
    rows=st.lists(st.tuples(a_values, d_values, b_values, s_values), max_size=14),
    u_values=st.lists(st.integers(-3, 8), max_size=5),
    where=st.sampled_from(PREDICATES),
    items=st.lists(st.sampled_from(ITEMS), min_size=1, max_size=4),
    limit=st.sampled_from([None, None, 0, 1, 4]),
    block_rows=st.sampled_from([1, 3, 4096]),
    source_rows=st.sampled_from([1, 2, 5, 4096]),
)
@settings(max_examples=400, deadline=None)
def test_streamed_scan_matches_materialized(
    rows, u_values, where, items, limit, block_rows, source_rows
):
    t_rows = [(k, *row) for k, row in enumerate(rows)]
    sql = f"SELECT {', '.join(items)} FROM t"
    if where is not None:
        sql += f" WHERE {where}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    query = parse(sql)
    db = build_db(t_rows, u_values)
    materializing = Executor(db)
    expected = materializing.execute(query, PARAMS)
    stats = materializing.last_stats

    # Table-backed: the in-memory server's and each shard's scan.
    columns, rows, sizes, payload, got = run_stream(Executor(db), query, block_rows)
    assert columns == expected.columns
    assert rows == expected.rows
    assert sizes == expected_sizes(len(expected.rows), block_rows)
    assert payload == expected.byte_size()
    assert got.rows_output == stats.rows_output
    assert got.bytes_scanned == stats.bytes_scanned

    # Source-backed: the client residual over decrypted blocks, which can
    # arrive larger or smaller than the output blocks.
    names = [name for name, _ in T_COLUMNS]
    source = BlockStream(names, blocks_from_rows(t_rows, len(names), source_rows))
    residual = Executor(build_db(t_rows, u_values, with_t=False))
    columns, rows, sizes, payload, got = run_stream(
        residual, query, block_rows, {"t": source}
    )
    assert columns == expected.columns
    assert rows == expected.rows
    assert sizes == expected_sizes(len(expected.rows), block_rows)
    assert payload == expected.byte_size()
    assert got.rows_output == stats.rows_output
    assert got.bytes_scanned == stats.bytes_scanned - db.table("t").total_bytes


# ---------------------------------------------------------------------------
# Targeted cases
# ---------------------------------------------------------------------------

#: ``10 / z`` divides by zero on the fourth row (index 3) and after it.
Z_ROWS = [(i, 1 if i < 3 else 0) for i in range(10)]


def z_db(with_z: bool = True) -> Database:
    db = Database("z")
    if with_z:
        db.create_table(schema("z", ("i", "int"), ("z", "int"))).insert_many(Z_ROWS)
    return db


def z_source(block_rows: int) -> BlockStream:
    return BlockStream(["i", "z"], blocks_from_rows(Z_ROWS, 2, block_rows))


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
@pytest.mark.parametrize("backed", ["table", "source"])
@pytest.mark.parametrize("where", ["", " WHERE z >= 0"])
def test_limit_never_evaluates_past_the_limit(block_rows, backed, where):
    """A projection that raises on row ``limit + 1`` does not raise under
    that LIMIT, however the input is chunked."""
    query = parse(f"SELECT i, 10 / z FROM z{where} LIMIT 3")
    if backed == "table":
        stream = Executor(z_db()).execute_stream(query, block_rows=block_rows)
    else:
        stream = Executor(z_db(with_z=False)).execute_stream(
            query, block_rows=block_rows, sources={"z": z_source(block_rows)}
        )
    assert stream.drain_rows() == [(0, 10.0), (1, 10.0), (2, 10.0)]
    unlimited = parse(f"SELECT i, 10 / z FROM z{where}")
    with pytest.raises(ExecutionError, match="division by zero"):
        Executor(z_db()).execute_stream(unlimited).drain_rows()


def test_limit_pulls_no_source_block_past_the_limit():
    pulled = []

    def blocks():
        for block in blocks_from_rows(Z_ROWS, 2, 2):
            pulled.append(block)
            yield block

    query = parse("SELECT i FROM z LIMIT 4")
    stream = Executor(z_db(with_z=False)).execute_stream(
        query, sources={"z": BlockStream(["i", "z"], blocks())}
    )
    assert stream.drain_rows() == [(0,), (1,), (2,), (3,)]
    assert len(pulled) == 2


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT i FROM z WHERE z < 'x'",  # The whole-column test falls back.
        "SELECT i FROM z WHERE 'x' > z",
        "SELECT i FROM z WHERE i + z > 'x'",
        "SELECT 10 / z FROM z",
        "SELECT i || 1, z - 'x' FROM z WHERE z = 0",
        "SELECT nosuch FROM z",
        "SELECT i FROM z WHERE nosuch = 1",
        "SELECT q.* FROM z",
    ],
)
@pytest.mark.parametrize("backed", ["table", "source"])
def test_errors_keep_their_class(sql, backed):
    query = parse(sql)
    with pytest.raises(Exception) as materialized:
        Executor(z_db()).execute(query)
    if backed == "table":
        stream = Executor(z_db()).execute_stream(query, block_rows=3)
    else:
        stream = Executor(z_db(with_z=False)).execute_stream(
            query, block_rows=3, sources={"z": z_source(4)}
        )
    with pytest.raises(materialized.type):
        stream.drain_rows()


def test_picked_source_columns_pass_through_untouched():
    """No WHERE and only picks: the output block holds the source block's
    own column lists, reordered, with no per-row work."""
    source_blocks = list(blocks_from_rows(Z_ROWS, 2, 5))
    query = parse("SELECT z, i, z FROM z")
    stream = Executor(z_db(with_z=False)).execute_stream(
        query, block_rows=5, sources={"z": BlockStream(["i", "z"], source_blocks)}
    )
    for out, source in zip(stream, source_blocks, strict=True):
        i_column, z_column = source.columns
        assert out.columns[0] is z_column
        assert out.columns[1] is i_column
        assert out.columns[2] is z_column


def test_source_blocks_are_never_written():
    """Output blocks that span source blocks are new lists: the source
    blocks a residual reads keep their contents."""
    source_blocks = list(blocks_from_rows(Z_ROWS, 2, 3))
    before = [[list(column) for column in b.columns] for b in source_blocks]
    query = parse("SELECT i, z FROM z")
    stream = Executor(z_db(with_z=False)).execute_stream(
        query, block_rows=5, sources={"z": BlockStream(["i", "z"], source_blocks)}
    )
    assert stream.drain_rows() == Z_ROWS
    assert [b.columns for b in source_blocks] == before


def test_output_blocks_recut_from_oversized_source_blocks():
    """Source blocks can exceed the output capacity (a producer cut them
    at a larger size): the driver still emits full blocks but the last."""
    rows = [(i, i % 3) for i in range(23)]
    source = BlockStream(["i", "z"], [RowBlock.from_rows(rows, 2)])
    query = parse("SELECT i FROM z WHERE z <> 1")
    stream = Executor(z_db(with_z=False)).execute_stream(
        query, block_rows=4, sources={"z": source}
    )
    blocks = list(stream)
    assert [len(b) for b in blocks] == [4, 4, 4, 3]
    assert [r for b in blocks for r in b.rows()] == [
        (i,) for i in range(23) if i % 3 != 1
    ]
    assert stream.stats.rows_output == 15
