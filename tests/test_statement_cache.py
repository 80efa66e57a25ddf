"""Each server statement is compiled once per SQLite backend.

``SQLiteBackend`` keeps what no execution of a server query changes (its
store-read flag, SQLite SQL text, table occurrences, ``grp()`` positions
and output names) in one bounded LRU keyed by the query object's
identity; ``RemoteBackend`` memoizes each query object's wire encoding,
the key of its prepared statement, per connection.  These tests pin,
in process, over TCP and on two SQLite shards:

* a repeated statement compiles once (a spy on ``to_sql``), in process
  and over TCP once the statement is PREPAREd, and a TCP client encodes
  each query object once;
* statements that differ only in a ``1``, ``1.0`` or ``TRUE`` literal
  (equal, and equally hashed, as AST values) never share a compiled
  statement or a prepared id, and each returns its own rows;
* the worker views share the one LRU: threads that churn it past its
  bound still get their own rows;
* one multi-round-trip plan re-inlines its IN set on every execution, so
  two bindings of it give their own rows;
* static scan bytes follow the live heap sizes: after an INSERT every
  statement's ledger equals the in-memory backend's.

The clients here are built per test (the INSERTs mutate them).  The
compile counts and identities are read on chaos-free twins, because a
retried read may re-send a statement inline on a new connection.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import pytest

from repro.core import MonomiClient, normalize_query
from repro.engine import Executor
from repro.net import MonomiServer, RemoteBackend
from repro.server import FaultInjectingBackend
from repro.server import sqlite as sqlite_module
from repro.sql import ast, parse
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    apply_plain_dml,
    build_sales_db,
    canonical,
    with_chaos,
)

NUM_ORDERS = 40

KINDS = ["sqlite", "tcp", "sqlite-sharded2"]

IN_SET_SQL = (
    "SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey IN "
    "(SELECT o_custkey FROM orders GROUP BY o_custkey HAVING SUM(o_qty) > {})"
)


@pytest.fixture(scope="module")
def design(provider):
    return MonomiClient.setup(
        build_sales_db(NUM_ORDERS),
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        shards=1,
    ).design


def setup_client(provider, design, backend: str, shards: int = 1) -> MonomiClient:
    return MonomiClient.setup(
        build_sales_db(NUM_ORDERS),
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=design,
        backend=backend,
        shards=shards,
    )


def bare(backend):
    """``backend`` without the chaos proxies around it."""
    while isinstance(backend, FaultInjectingBackend):
        backend = backend._parent
    return backend


@contextlib.contextmanager
def open_client(kind: str, provider, design, faults: bool = True):
    """A client of ``kind`` and the store behind it; ``faults=False`` keeps
    ``--chaos`` off the client and the hosted store."""
    shards = 2 if kind == "sqlite-sharded2" else 1
    loaded = setup_client(provider, design, "sqlite", shards)
    store = bare(loaded.backend)
    if kind != "tcp":
        yield (loaded if faults else with_chaos(loaded, 0, 0.0)), store
        return
    hosted = loaded.backend if faults else store
    chaos = None if faults else (0, 0.0)
    with MonomiServer(hosted, chaos=chaos) as server:
        client = MonomiClient.connect(
            server.address,
            build_sales_db(NUM_ORDERS),
            design=design,
            provider=provider,
        )
        try:
            yield (client if faults else with_chaos(client, 0, 0.0)), store
        finally:
            client.close()


def oracle_rows(oracle_db, sql: str) -> list:
    return canonical(Executor(oracle_db).execute(normalize_query(parse(sql))).rows)


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips


class _Spy:
    """Counts ``to_sql`` calls and IN-set re-bindings in the SQLite backend.

    A compile prints once; an ``in_set`` query prints once per execution
    after inlining, so compiles are the prints less the re-bindings.
    """

    def __init__(self, monkeypatch) -> None:
        self.prints = self.inlines = 0
        to_sql, inline = sqlite_module.to_sql, sqlite_module._inline_in_sets

        def counted_to_sql(*args, **kwargs):
            self.prints += 1
            return to_sql(*args, **kwargs)

        def counted_inline(*args, **kwargs):
            self.inlines += 1
            return inline(*args, **kwargs)

        monkeypatch.setattr(sqlite_module, "to_sql", counted_to_sql)
        monkeypatch.setattr(sqlite_module, "_inline_in_sets", counted_inline)

    @property
    def compiles(self) -> int:
        return self.prints - self.inlines


# ---------------------------------------------------------------------------
# A repeated statement compiles once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,warmup", [("sqlite", 1), ("tcp", 2)])
def test_repeated_statement_compiles_once(provider, design, monkeypatch, kind, warmup):
    """In process the first execution compiles; over TCP the first runs
    inline (a fresh decoded query) and the second PREPAREs, so the server
    holds one query object from then on."""
    statements = SALES_WORKLOAD + [IN_SET_SQL.format(60)]
    oracle = build_sales_db(NUM_ORDERS)
    with open_client(kind, provider, design, faults=False) as (client, _):
        spy = _Spy(monkeypatch)
        for sql in statements:
            for _ in range(warmup):
                client.execute(sql)
            compiled = spy.compiles
            assert compiled > 0, sql
            for _ in range(3):
                rows = client.execute(sql).rows
                assert canonical(rows) == oracle_rows(oracle, sql), sql
            assert spy.compiles == compiled, sql
        assert spy.inlines > 0  # the IN-set plan re-binds on each execution


def test_tcp_client_encodes_each_query_once(provider, design):
    with open_client("tcp", provider, design, faults=False) as (client, _):
        for _ in range(4):
            for sql in SALES_WORKLOAD:
                client.execute(sql)
        remote = bare(client.backend)
        assert isinstance(remote, RemoteBackend)
        (conn,) = remote._pool
        memo = conn.query_keys.stats()
        # One encoding per distinct server query; every repeat hits.
        assert memo.misses == memo.entries == len(conn.prepared)
        assert memo.hits == 3 * memo.misses


# ---------------------------------------------------------------------------
# Equal AST values are distinct statements
# ---------------------------------------------------------------------------


def literal_queries() -> list[ast.Select]:
    """``SELECT <v> AS v FROM orders LIMIT 1`` for ``v`` in 1, 1.0, TRUE."""
    return [
        ast.Select(
            items=(ast.SelectItem(ast.Literal(value), "v"),),
            from_items=(ast.TableName("orders"),),
            limit=1,
        )
        for value in (1, 1.0, True)
    ]


def typed(rows: list[tuple]) -> list[tuple]:
    """Rows with each float flagged: ``1 == 1.0`` must not pass."""
    return [tuple((type(v) is float, v) for v in row) for row in rows]


@pytest.mark.parametrize("kind", KINDS)
def test_equal_literals_never_share_a_statement(provider, design, kind):
    queries = literal_queries()
    # The hazard: the three are one value to a dict.
    assert queries[0] == queries[1] == queries[2]
    assert len({hash(q) for q in queries}) == 1
    expected = [[(value,)] for value in (1, 1.0, True)]
    in_process = "sqlite" if kind == "tcp" else kind
    with open_client(in_process, provider, design, faults=False) as (_, store):
        with contextlib.ExitStack() as stack:
            backend = store
            if kind == "tcp":
                server = stack.enter_context(MonomiServer(store, chaos=(0, 0.0)))
                backend = RemoteBackend(server.address)
                stack.callback(backend.close)
            for _ in range(3):  # interleaved, past the prepare threshold
                for query, rows in zip(queries, expected):
                    assert typed(backend.execute(query).rows) == typed(rows)
            if kind == "tcp":
                (conn,) = backend._pool
                assert len(set(conn.prepared.values())) == 3
        if kind == "sqlite":
            cached = [store._statements.get(id(q)) for q in queries]
            assert len({id(s) for s in cached}) == 3
            assert all(s.query is q for s, q in zip(cached, queries))
            assert "1.0" in cached[1].sql_text
            assert "1.0" not in cached[0].sql_text + cached[2].sql_text


def test_worker_views_share_the_cache_under_contention(provider, design):
    """More threads than cores and a short switch interval: every worker
    view compiles into the one LRU, fresh query objects churn it past its
    bound (so ids of dead queries come back), and each query still gets
    its own rows."""
    expected = [typed([(value,)]) for value in (1, 1.0, True)]
    errors: list[BaseException] = []

    def work(view) -> None:
        try:
            for _ in range(120):
                for query, rows in zip(literal_queries(), expected):
                    assert typed(view.execute(query).rows) == rows
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        finally:
            view.close()

    with open_client("sqlite", provider, design, faults=False) as (_, store):
        views = [store.worker_view() for _ in range(6)]
        threads = [threading.Thread(target=work, args=(view,)) for view in views]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = store._statements.stats()
        assert stats.evictions > 0
        assert stats.entries == stats.capacity


# ---------------------------------------------------------------------------
# IN sets bind per execution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_in_set_bindings_get_their_own_rows(provider, design, kind):
    """One plan, two bindings: an INSERT pushes one more customer over the
    HAVING bound, so the second execution's IN set is one larger."""
    oracle = build_sales_db(NUM_ORDERS)
    sums: dict[int, int] = {}
    for row in oracle.table("orders").rows:
        sums[row[1]] = sums.get(row[1], 0) + row[3]
    bound = sorted(sums.values())[len(sums) // 2]
    joiner = min(c for c, total in sums.items() if total == bound)
    sql = IN_SET_SQL.format(bound)
    insert = (
        f"INSERT INTO orders VALUES ({NUM_ORDERS + 1}, {joiner}, 100, 1, 0, "
        "DATE '1996-01-02', 'OPEN', 'joins the set')"
    )
    with open_client(kind, provider, design) as (client, _):
        client.execute(sql)  # over TCP the second execution PREPAREs
        first = client.execute(sql)
        assert first.planned.plan.subplans[0].mode == "in_set_server"
        assert canonical(first.rows) == oracle_rows(oracle, sql)
        assert joiner not in {c for _, c in first.rows}
        assert client.execute(insert).rows == [(apply_plain_dml(oracle, insert),)]
        second = client.execute(sql)
        assert second.planned is first.planned  # the same plan, re-bound
        assert canonical(second.rows) == oracle_rows(oracle, sql)
        assert joiner in {c for _, c in second.rows}


# ---------------------------------------------------------------------------
# Static scan bytes are live
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_scan_bytes_after_insert_match_memory(provider, design, kind):
    insert = (
        f"INSERT INTO orders VALUES ({NUM_ORDERS + 1}, 3, 420, 7, 2, "
        "DATE '1996-03-14', 'OPEN', 'quick brown probe')"
    )
    memory = setup_client(provider, design, "memory")
    with open_client(kind, provider, design) as (client, _):
        for sql in SALES_WORKLOAD * 2:  # compile (and PREPARE) each first
            client.execute(sql)
        assert client.execute(insert).rows == memory.execute(insert).rows
        for sql in SALES_WORKLOAD:
            got, want = client.execute(sql), memory.execute(sql)
            assert canonical(got.rows) == canonical(want.rows), sql
            assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger), sql


# ---------------------------------------------------------------------------
# The shard coordinator sends each shard query once compiled
# ---------------------------------------------------------------------------


def shard_queries(coordinator) -> list[ast.Select]:
    """Every shard query the coordinator's memo sends, in any mode."""
    queries = []
    for plan in coordinator._shard_plans._data.values():
        if plan.shard_query is not None:
            queries.append(plan.shard_query)
        if plan.partial is not None:
            queries.append(plan.partial.shard_query)
        queries.extend(scan for _, _, scan in plan.gathers)
    return queries


def test_sqlite_shards_compile_each_shard_query_once(provider, design):
    """A repeated server query sends the same shard query objects, so each
    SQLite shard compiles each once; an INSERT between the repeats keeps
    rows equal to the oracle and ledger bytes equal to the in-memory
    backend's."""
    insert = (
        f"INSERT INTO orders VALUES ({NUM_ORDERS + 1}, 3, 420, 7, 2, "
        "DATE '1996-03-14', 'OPEN', 'quick brown probe')"
    )
    oracle = build_sales_db(NUM_ORDERS)
    memory = setup_client(provider, design, "memory")
    kind = "sqlite-sharded2"
    with open_client(kind, provider, design, faults=False) as (client, store):
        for repeat in range(4):
            if repeat == 2:
                assert client.execute(insert).rows == memory.execute(insert).rows
                apply_plain_dml(oracle, insert)
            for sql in SALES_WORKLOAD:
                got, want = client.execute(sql), memory.execute(sql)
                assert canonical(got.rows) == oracle_rows(oracle, sql), sql
                assert canonical(want.rows) == oracle_rows(oracle, sql), sql
                assert ledger_bytes(got.ledger) == ledger_bytes(want.ledger), sql
        sent = shard_queries(store)
        assert len({id(q) for q in sent}) == len(sent) > 0
        for shard in store.shards:
            stats = bare(shard)._statements.stats()
            assert stats.misses == stats.entries == len(sent)
            assert stats.hits >= 3 * len(sent)
