"""Shared helpers for the test suite and the benchmark harness.

``tests/conftest.py`` and ``benchmarks/conftest.py`` are separate pytest
rootdirs; anything both need lives here (importable as ``repro.testkit``)
so neither conftest ever imports the other — cross-conftest imports resolve
to whichever directory pytest collected first and break collection.
"""

from __future__ import annotations

import datetime
import math
import random
import threading
import time

from repro.common.errors import ConfigError
from repro.core.client import MonomiClient
from repro.engine import Database, schema
from repro.server.chaos import FaultInjectingBackend

MASTER_KEY = b"test-master-key-0123456789abcdef"

SALES_WORKLOAD = [
    "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
    "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC",
    "SELECT c_segment, SUM(o_price) AS total, COUNT(*) AS n FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_date >= DATE '1995-06-01' GROUP BY c_segment",
    "SELECT o_custkey, SUM(o_qty) AS q FROM orders GROUP BY o_custkey "
    "HAVING SUM(o_qty) > 120 ORDER BY q DESC",
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
    "SELECT o_orderkey, o_price FROM orders WHERE o_price BETWEEN 100 AND 900 "
    "ORDER BY o_price LIMIT 12",
]


def build_sales_db(num_orders: int = 240, seed: int = 11) -> Database:
    """A small two-table sales database with repeated categorical values."""
    rng = random.Random(seed)
    db = Database("sales")
    orders = db.create_table(
        schema(
            "orders",
            ("o_orderkey", "int"),
            ("o_custkey", "int"),
            ("o_price", "int"),
            ("o_qty", "int"),
            ("o_discount", "int"),
            ("o_date", "date"),
            ("o_status", "text"),
            ("o_comment", "text"),
        )
    )
    comments = [
        "quick brown fox jumps",
        "lazy dog sleeps soundly",
        "green ideas sleep furiously",
        "red brown cat purrs",
        "silent blue whale sings",
    ]
    for i in range(1, num_orders + 1):
        orders.insert(
            (
                i,
                rng.randint(1, 30),
                rng.randint(10, 5000),
                rng.randint(1, 50),
                rng.randint(0, 10),
                datetime.date(1995, 1, 1) + datetime.timedelta(days=rng.randint(0, 999)),
                rng.choice(["OPEN", "SHIPPED", "RETURNED"]),
                rng.choice(comments),
            )
        )
    customer = db.create_table(
        schema(
            "customer",
            ("c_custkey", "int"),
            ("c_name", "text"),
            ("c_segment", "text"),
            ("c_balance", "int"),
            ("c_nation", "text"),
        )
    )
    nations = ["FRANCE", "GERMANY", "BRAZIL", "JAPAN", "KENYA"]
    for i in range(1, 31):
        customer.insert(
            (
                i,
                f"Customer#{i:04d}",
                rng.choice(["BUILDING", "AUTOMOBILE", "MACHINERY"]),
                rng.randint(0, 100_000),
                rng.choice(nations),
            )
        )
    return db


def apply_plain_dml(db: Database, sql: str, params: dict | None = None) -> int:
    """Plaintext oracle for encrypted DML: apply a statement to ``db``.

    Evaluates the same normalized AST the encrypted path executes, but
    directly against the plaintext table — the differential suites compare
    every analytic query (and the returned row count) against this.
    """
    from repro.core.normalize import normalize_dml
    from repro.engine.eval import EvalContext, Scope, compile_expr
    from repro.sql import ast, parse_statement

    statement = normalize_dml(parse_statement(sql), params)
    table = db.table(statement.table)
    names = list(table.schema.column_names)
    scope = Scope([(statement.table, c) for c in names])
    ctx = EvalContext()
    if isinstance(statement, ast.Insert):
        positions = (
            [names.index(c) for c in statement.columns]
            if statement.columns
            else list(range(len(names)))
        )
        empty = Scope([])
        for value_row in statement.rows:
            filled = [None] * len(names)
            for pos, expr in zip(positions, value_row):
                filled[pos] = compile_expr(expr, empty, ctx)(())
            table.insert(tuple(filled))
        return len(statement.rows)
    where = statement.where
    match = (
        compile_expr(where, scope, ctx) if where is not None else (lambda row: True)
    )
    if isinstance(statement, ast.Delete):
        dead = [row for row in table.rows if match(row)]
        return table.delete_exact(dead)
    assign = [
        (names.index(a.column), compile_expr(a.value, scope, ctx))
        for a in statement.assignments
    ]
    pairs = []
    for row in table.rows:
        if match(row):
            out = list(row)
            for index, fn in assign:
                out[index] = fn(row)
            pairs.append((row, tuple(out)))
    return table.replace_exact(pairs)


def canonical(rows) -> list[str]:
    """Order-insensitive, float-tolerant row comparison form."""
    out = []
    for row in rows:
        out.append(
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        )
    return sorted(str(r) for r in out)


def parse_chaos(spec: str) -> tuple[int, float]:
    """Parse a ``"seed:rate"`` chaos spec (e.g. ``"7:0.05"``)."""
    seed, sep, rate = spec.partition(":")
    try:
        if not sep:
            raise ValueError(spec)
        return int(seed), float(rate)
    except ValueError:
        msg = f"chaos must be 'seed:rate' (e.g. '7:0.05'), got {spec!r}"
        raise ConfigError(msg) from None


def with_chaos(client: MonomiClient, seed: int, rate: float) -> MonomiClient:
    """``client``'s twin over the same store behind exactly one chaos
    proxy, at ``(seed, rate)``: proxies already around the store are
    peeled off first.  A twin of a ``connect()`` client shares its
    connection (close either one)."""
    store = client.backend
    while isinstance(store, FaultInjectingBackend):
        store = store._parent
    return MonomiClient(
        client.plain_db,
        client.design,
        client.provider,
        FaultInjectingBackend(store, seed=seed, rate=rate),
        client.flags,
        client.network,
        client.disk,
        client.design_result,
    )


def extra_threads(baseline: set, timeout: float = 5.0) -> list:
    """Threads alive beyond ``baseline`` after letting shutdown settle.

    Leak assertions snapshot ``set(threading.enumerate())`` before the
    work under test, then assert this returns ``[]`` afterwards; the
    polling window absorbs the scheduling delay between closing a
    resource and its worker threads actually exiting.
    """
    limit = time.monotonic() + timeout
    while True:
        extra = [
            t
            for t in threading.enumerate()
            if t not in baseline and t.is_alive()
        ]
        if not extra or time.monotonic() >= limit:
            return extra
        time.sleep(0.02)


def geometric_mean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))
