"""Server-side WHERE for encrypted UPDATE/DELETE (PR 23).

A write now fetches only the rows the server's share of its WHERE lets
through, re-encrypts only the design entries an assignment can change and
gathers only candidates on the shard coordinator.  Three things pin that:

* a **differential family** of WHERE shapes (NULLs present) against
  ``testkit.apply_plain_dml`` on four backends, with identical ledger
  bytes across them;
* a **leakage probe**: a recording view shows what the server was asked —
  stored columns, ciphertext literals, operators the scheme licenses —
  and that untouched cells come back byte-identical;
* the **kernels**: fixed-base Paillier factors equal ``pow`` bit for bit,
  an UPDATE sends one hom factor per touched packed ciphertext, and the
  coordinator still matches duplicates in ordinal order.

These tests build their own clients: the session-scoped conftest fixtures
are shared and must not be mutated.
"""

from __future__ import annotations

import random

import pytest

from repro.common.ledger import CostLedger
from repro.core import HomGroup, MonomiClient, normalize_query
from repro.core.design import enc_column_name
from repro.core.rewrite import BindingContext, ServerRewriter
from repro.core.schemes import Scheme
from repro.core.typing import infer_type
from repro.crypto.paillier import (
    POOL_EXPONENT_BITS,
    EncryptionPool,
    generate_keypair,
)
from repro.crypto.prf import PRFStream
from repro.engine import Database, Executor, schema
from repro.engine.eval import EvalContext, compile_expr
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream
from repro.server.backend import DelegatingView
from repro.server.inmemory import InMemoryBackend
from repro.server.sharded import ShardedBackend
from repro.sql import ast, parse
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    apply_plain_dml,
    build_sales_db,
    canonical,
)

#: 65 rows freeze the hom layout at 7 pad bits, 128 row ids: the row space
#: never shrinks under DELETE, and the family below re-inserts victims.
NUM_ORDERS = 65
HOM_ROW_IDS = 128

#: Rows with NULLs in every column a predicate below reads: three-valued
#: logic has to come out the same on ciphertexts as on plaintext.
NULL_ROWS = (
    "INSERT INTO orders VALUES "
    "(901, NULL, 2600, 12, 3, DATE '1996-02-01', 'OPEN', 'quick brown fox jumps'), "
    "(902, 3, NULL, 30, NULL, NULL, 'RETURNED', NULL), "
    "(903, 7, 900, NULL, 9, DATE '1997-01-01', NULL, 'lazy dog sleeps soundly'), "
    "(904, NULL, NULL, NULL, NULL, NULL, NULL, NULL)"
)

#: One conjunct of each kind the rewriter distinguishes under the design
#: below: DET equality, OPE order, NULL tests, and the ones that must stay
#: on the client — no OPE copy, arithmetic nobody precomputed, and what
#: ciphertexts answer only approximately (SEARCH, OPE over text).
ATOMS = [
    "o_custkey = 3",
    "o_custkey <> 7",
    "o_status = 'RETURNED'",
    "o_price >= 2500",
    "o_price < 1200",
    "o_date >= DATE '1996-06-01'",
    "o_price BETWEEN 800 AND 3200",
    "o_qty NOT BETWEEN 10 AND 40",
    "o_custkey IN (3, 7, 11, 19)",
    "o_status NOT IN ('OPEN', 'SHIPPED')",
    "o_comment LIKE '%brown%'",
    "o_comment NOT LIKE '%sleeps%'",
    # SEARCH is word containment: its tags do not find "sleeps" by '%sleep%'.
    "o_comment LIKE '%sleep%'",
    "o_comment NOT LIKE '%sleep%'",
    # OPE over text orders a 10-byte prefix ("lazy dog s"); DET is exact.
    "o_comment <= 'lazy dog sleeps'",
    "o_comment BETWEEN 'green ideas sleep' AND 'lazy dog sleeps'",
    "o_comment = 'red brown cat'",
    "o_price IS NULL",
    "o_custkey IS NOT NULL",
    "o_discount < 5",  # DET only: no OPE copy to order by.
    "o_price > o_qty",  # Two OPE columns, one key: the server compares.
    "o_discount <= o_qty",  # Two columns, one without OPE: the client does.
    "o_price > o_qty * 60",  # Arithmetic no design entry precomputes.
]

TEMPLATES = [
    "{a} AND {b}",
    "{a} OR {b}",
    "NOT ({a})",
    "{a} AND NOT ({b})",
    "({a} OR {b}) AND {c}",
    "NOT ({a} AND {b})",
    "{a} AND {b} AND {c}",
]

#: Involutions, so values stay inside the frozen hom layout and the FFX
#: domains however often a row is hit.  Between them they move every kind
#: of stored cell: DET, OPE, the precomputed product, SEARCH, hom slots.
ASSIGNMENTS = [
    "o_price = 5010 - o_price",
    "o_qty = 51 - o_qty",
    "o_status = 'SHIPPED', o_discount = 10 - o_discount",
    "o_custkey = 31 - o_custkey",
    "o_comment = 'red brown cat purrs'",
    "o_discount = NULL",
]


def where_shapes() -> list[str | None]:
    rng = random.Random(23)
    shapes: list[str | None] = [None, *ATOMS]
    for index in range(28):
        a, b, c = rng.sample(ATOMS, 3)
        shapes.append(TEMPLATES[index % len(TEMPLATES)].format(a=a, b=b, c=c))
    return shapes


@pytest.fixture(scope="module")
def pushdown_design(provider):
    """The sales design with the orders hom files pinned (the designer's
    choice depends on a timing profile) and SEARCH and OPE copies of the
    comment, so the rewriter accepts LIKE and text comparisons."""
    donor = MonomiClient.setup(
        build_sales_db(NUM_ORDERS),
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
    )
    design = donor.design.copy()
    design.hom_groups = [g for g in design.hom_groups if g.table != "orders"]
    design.entries = {
        e
        for e in design.entries
        if not (e.table == "orders" and e.scheme is Scheme.HOM)
    }
    design.add_hom_group(HomGroup("orders", ("o_price",), rows_per_ciphertext=6))
    design.add_hom_group(
        HomGroup("orders", ("o_price * o_qty", "o_qty"), rows_per_ciphertext=4)
    )
    design.add("orders", ast.Column("o_comment"), Scheme.SEARCH)
    design.add("orders", ast.Column("o_comment"), Scheme.OPE)
    return design


def make_client(provider, design, backend="memory", shards=None):
    """``shards=None`` leaves the shard count to ``--shards``."""
    return MonomiClient.setup(
        build_sales_db(NUM_ORDERS),
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=design,
        backend=backend,
        **({} if shards is None else {"shards": shards}),
    )


def assert_state_matches(client, oracle: Database, context, mirror=True) -> None:
    """Mirror, every stored ciphertext column and every hom file say what
    the oracle says."""
    provider = client.provider
    want = oracle.table("orders").rows
    if mirror:
        assert client.plain_db.table("orders").rows == want, context
    dml = client.dml
    plain, entries, exprs, hom_groups, enc_schema, scope = dml._layout("orders")
    stored, plain_rows = dml._fetch_decrypted(
        "orders", plain, entries, exprs, enc_schema, CostLedger()
    )
    assert canonical(plain_rows) == canonical(want), context
    # Not only the copy the fetch decrypts: an echoed cell that should
    # have been re-encrypted would sit in one of the others.
    ctx = EvalContext()
    for position, (entry, expr) in enumerate(zip(entries, exprs)):
        if entry.scheme is Scheme.SEARCH:
            continue
        fn = compile_expr(expr, scope, ctx)
        column = enc_schema.columns[position]
        sql_type = infer_type(expr, {"orders": plain.schema})
        cells = [row[position] for row in stored]
        expected = [fn(row) for row in plain_rows]
        if entry.scheme is Scheme.OPE and sql_type == "text":
            # Keeps a 10-byte prefix: compare as ciphertexts instead.
            assert cells == provider.ope_encrypt_batch(expected), (context, column.name)
            continue
        decrypted = provider.decrypt_batch(cells, entry.scheme.value, sql_type)
        assert decrypted == expected, (context, column.name)
    assert hom_groups
    for group in hom_groups:
        file = client.backend.ciphertext_store.get(group.file_name)
        layout = file.layout
        expected = [[0] * len(group.expr_sqls) for _ in range(file.num_rows)]
        matrix = dml._group_values(group, plain_rows, scope)
        for full_row, values in zip(stored, matrix):
            expected[full_row[-1]] = values
        rpc = layout.rows_per_ciphertext
        packed = provider.paillier_decrypt_batch(file.ciphertexts)
        for ct_index, value in enumerate(packed):
            chunk = expected[ct_index * rpc : (ct_index + 1) * rpc]
            assert value == layout.encode_rows(chunk), (context, group.file_name)


def run_family(client, oracle: Database, check_state) -> list[tuple]:
    """Every shape as an UPDATE, then every shape as a DELETE, narrowest
    first; victims are put back while the hom row space lasts, so the
    broad shapes still have rows to disagree about.  Returns the ledger
    bytes of each statement."""
    log: list[tuple] = []

    def both(sql: str, params=None) -> None:
        outcome = client.execute(sql, params)
        assert outcome.rows == [(apply_plain_dml(oracle, sql, params),)], sql
        assert outcome.planned is None
        ledger = outcome.ledger
        log.append((sql, ledger.transfer_bytes, ledger.server_bytes_scanned))

    def clause(shape) -> str:
        return f" WHERE {shape}" if shape is not None else ""

    both(NULL_ROWS)
    orders = oracle.table("orders")
    room = HOM_ROW_IDS - len(orders.rows)
    shapes = where_shapes()
    for index, shape in enumerate(shapes):
        assignment = ASSIGNMENTS[index % len(ASSIGNMENTS)]
        both(f"UPDATE orders SET {assignment}{clause(shape)}")
        if check_state:
            assert_state_matches(client, oracle, ("update", shape))

    def victims(shape) -> int:
        count = f"SELECT COUNT(*) FROM orders{clause(shape)}"
        return Executor(oracle).execute(normalize_query(parse(count))).rows[0][0]

    names = orders.schema.column_names
    insert = f"INSERT INTO orders VALUES ({', '.join(':' + n for n in names)})"
    for shape in sorted(shapes, key=victims):
        before = list(orders.rows)
        both(f"DELETE FROM orders{clause(shape)}")
        gone = list(before)
        for row in orders.rows:
            gone.remove(row)
        if len(gone) <= room:
            room -= len(gone)
            for row in gone:
                both(insert, dict(zip(names, row)))
        if check_state:
            assert_state_matches(client, oracle, ("delete", shape))
    assert not orders.rows  # The shape without a WHERE came last.
    return log


class TestWhereFamily:
    def test_shapes_cover_both_sides_of_the_split(self, provider, pushdown_design):
        """The family is only a test of the split if some conjuncts push,
        some stay, and some statements have both — and an approximate
        answer is never pushed, although the rewriter offers one."""
        client = make_client(provider, pushdown_design)
        layout = client.dml._layout("orders")
        plain, entries, exprs = layout[:3]

        def pushed_of(shape) -> tuple[int, int]:
            where = parse(f"SELECT 1 FROM orders WHERE {shape}").where
            pushed = client.dml._server_predicate(
                "orders", plain.schema, entries, exprs, where
            )
            return len(ast.conjuncts(pushed)), len(ast.conjuncts(where))

        kinds = set()
        for shape in where_shapes():
            if shape is not None:
                sent, total = pushed_of(shape)
                kinds.add((sent > 0, sent < total))
        assert kinds == {(True, False), (False, True), (True, True)}
        bindings = BindingContext(
            {"orders": "orders"}, {"orders": plain.schema}, registry=client.schemas
        )
        rewriter = ServerRewriter(client.design, provider, bindings)
        for atom in ATOMS:
            if "o_comment" in atom and " = " not in atom:
                where = parse(f"SELECT 1 FROM orders WHERE {atom}").where
                assert rewriter.rewrite_predicate(where) is not None, atom
                assert pushed_of(atom) == (0, 1), atom

    def test_family_matches_oracle_with_identical_ledger_bytes(
        self, provider, pushdown_design
    ):
        from repro.net import MonomiServer

        logs: dict[str, list[tuple]] = {}
        for name, backend, shards in [
            ("memory", "memory", None),
            ("sqlite", "sqlite", None),
            ("sharded2", "memory", 2),
        ]:
            client = make_client(provider, pushdown_design, backend, shards)
            oracle = build_sales_db(NUM_ORDERS)
            # The state check reads hom files through the store, which the
            # in-process backends expose; once per statement on the plain
            # one, at the end everywhere.
            logs[name] = run_family(client, oracle, check_state=name == "memory")
            assert_state_matches(client, oracle, name)
            assert_workload_matches(client, oracle)
        host = make_client(provider, pushdown_design)
        oracle = build_sales_db(NUM_ORDERS)
        with MonomiServer(host.backend) as server:
            remote = MonomiClient.connect(
                server.address,
                build_sales_db(NUM_ORDERS),
                design=pushdown_design,
                provider=provider,
            )
            try:
                logs["tcp"] = run_family(remote, oracle, check_state=False)
                assert_workload_matches(remote, oracle)
            finally:
                remote.close()
        # The host's own client never ran the statements: its mirror is
        # stale, but what its server holds is what the remote client wrote.
        assert_state_matches(host, oracle, "tcp", mirror=False)
        for name, log in logs.items():
            assert log == logs["memory"], name


def assert_workload_matches(client, oracle: Database) -> None:
    plain = Executor(oracle)
    probes = [
        *SALES_WORKLOAD,
        "SELECT COUNT(*) FROM orders",
        "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%purrs%'",
        "SELECT o_custkey, SUM(o_price), SUM(o_qty) FROM orders GROUP BY o_custkey",
    ]
    for sql in probes:
        expected = plain.execute(normalize_query(parse(sql))).rows
        assert canonical(client.execute(sql).rows) == canonical(expected), sql


# ---------------------------------------------------------------------------
# Leakage: what the server is asked, and what it is told changed
# ---------------------------------------------------------------------------


class _Recorder(DelegatingView):
    def __init__(self, parent) -> None:
        super().__init__(parent)
        self.fetches: list[tuple[ast.Select, list[tuple]]] = []
        self.replaced: list[tuple[tuple, tuple]] = []
        self.hom_updates: list[tuple[str, list[tuple[int, int]]]] = []

    def hom_apply(self, file_name, updates=(), appended=(), num_rows=None, token=None):
        updates = list(updates)
        self.hom_updates.append((file_name, updates))
        self._parent.hom_apply(
            file_name,
            updates=updates,
            appended=appended,
            num_rows=num_rows,
            token=token,
        )

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        stream = self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )
        blocks = list(stream)
        self.fetches.append((query, [row for block in blocks for row in block.rows()]))
        return BlockStream(stream.columns, blocks, stream.stats)

    def replace_rows(self, table_name, pairs):
        pairs = list(pairs)
        self.replaced.extend(pairs)
        return self._parent.replace_rows(table_name, pairs)


def only(items):
    (item,) = items
    return item


#: Comparison operators a stored column's scheme lets the server apply.
_LICENSED = {
    "det": {"=", "<>"},
    "ope": {"=", "<>", "<", "<=", ">", ">="},
}


def _assert_only_ciphertext(predicate, stored_columns, provider, constants) -> None:
    """Every column is a stored one, every literal the DET or OPE
    ciphertext of a constant of the statement, every comparison one the
    column's scheme licenses."""
    ciphertexts = {provider.encrypt(c, "det") for c in constants}
    ciphertexts |= {provider.encrypt(c, "ope") for c in constants}

    def visit(node: ast.Expr) -> None:
        if isinstance(node, ast.Column):
            assert node.name in stored_columns, node
        if isinstance(node, ast.Literal):
            assert node.value in ciphertexts and node.value not in constants, node
        if isinstance(node, ast.BinOp) and node.op not in ("and", "or"):
            for side in (node.left, node.right):
                if isinstance(side, ast.Column):
                    scheme = side.name.rsplit("_", 1)[1]
                    assert node.op in _LICENSED[scheme], (node.op, side.name)
        for child in node.children():
            visit(child)

    visit(predicate)


class TestLeakage:
    def test_fetch_asks_only_what_a_select_would(self, provider, pushdown_design):
        client = make_client(provider, pushdown_design)
        recorder = _Recorder(client.backend)
        client.backend = recorder
        plain = client.plain_db.table("orders")
        matching = [row for row in plain.rows if row[1] == 3]
        assert 0 < len(matching) < len(plain.rows) // 4

        update = "UPDATE orders SET o_price = o_price + 1 WHERE o_custkey = 3"
        assert client.execute(update).rows == [(len(matching),)]
        query, fetched = only(recorder.fetches)
        # Exactly the matching rows crossed the trust boundary.
        assert len(fetched) == len(matching)
        stored_columns = {c.name for c in client.dml._layout("orders")[4].columns}
        assert {item.expr.name for item in query.items} == stored_columns
        constant = ast.Literal(provider.encrypt(3, "det"))
        assert query.where == ast.BinOp("=", ast.Column("o_custkey_det"), constant)
        _assert_only_ciphertext(query.where, stored_columns, provider, {3})

        # The row the SELECT with the same WHERE fetches is the row set the
        # write fetched: the write's predicate is the SELECT's.
        select = client.execute("SELECT o_orderkey FROM orders WHERE o_custkey = 3")
        assert len(select.rows) == len(matching)

    def test_order_is_asked_of_ope_only_and_the_rest_stays_home(
        self, provider, pushdown_design
    ):
        client = make_client(provider, pushdown_design)
        recorder = _Recorder(client.backend)
        client.backend = recorder
        client.execute(
            "DELETE FROM orders WHERE o_price >= 2500 AND o_custkey <> 7 "
            "AND o_discount < 5 AND o_price > o_qty * 60"
        )
        query, fetched = only(recorder.fetches)
        stored_columns = {c.name for c in client.dml._layout("orders")[4].columns}
        _assert_only_ciphertext(query.where, stored_columns, provider, {2500, 7})
        read = {c.name for c in ast.find_columns(query.where)}
        assert read == {"o_price_ope", "o_custkey_det"}
        # The server's share is exact for what it was given; the client's
        # share (no OPE copy of the discount) can only shrink it.
        assert len(fetched) == sum(
            1
            for row in build_sales_db(NUM_ORDERS).table("orders").rows
            if row[2] >= 2500 and row[1] != 7
        )

    def test_update_echoes_unassigned_cells_byte_identical(
        self, provider, pushdown_design
    ):
        client = make_client(provider, pushdown_design)
        recorder = _Recorder(client.backend)
        client.backend = recorder
        client.execute("UPDATE orders SET o_price = o_price + 1 WHERE o_custkey = 3")
        _, fetched = only(recorder.fetches)
        enc_schema = client.dml._layout("orders")[4]
        names = [c.name for c in enc_schema.columns]
        # Of the stored cells only these read o_price; the hom row id, the
        # SEARCH tags and nine DET/OPE cells go back as they came.
        moved = {
            "o_price_det",
            "o_price_ope",
            enc_column_name("o_price * o_qty", Scheme.DET),
        }
        assert moved < set(names)
        assert [old for old, _ in recorder.replaced] == fetched
        for old, new in recorder.replaced:
            for name, before, after in zip(names, old, new):
                if name in moved:
                    assert before != after, name
                else:
                    assert before == after, name

    def test_unpushable_where_is_the_same_path_with_an_empty_predicate(
        self, provider, pushdown_design
    ):
        client = make_client(provider, pushdown_design)
        recorder = _Recorder(client.backend)
        client.backend = recorder
        total = len(client.plain_db.table("orders").rows)
        outcome = client.execute("DELETE FROM orders WHERE o_discount < 0")
        assert outcome.rows == [(0,)]
        query, fetched = only(recorder.fetches)
        assert query.where is None and len(fetched) == total


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [384, 512, 2048])
def test_pool_factors_equal_pow_bit_for_bit(bits):
    """The half-width comb changes how a factor is computed, not which:
    replaying the pool's PRF stream through a full-width ``pow`` mod
    ``n^2`` gives the same 200 factors."""
    public, private = generate_keypair(bits, seed=b"comb-key-%d" % bits)
    seed = b"comb-pool-seed"
    pool = EncryptionPool(private, seed=seed)
    stream = PRFStream(seed, b"paillier-pool")
    n2 = public.n_squared
    base = pow(stream.next_below(public.n - 1) + 1, public.n, n2)
    for _ in range(200):
        e = stream.next_below((1 << POOL_EXPONENT_BITS) - 1) + 1
        assert pool.factor() == pow(base, e, n2)
    (ciphertext,) = pool.encrypt_batch([123456789])
    assert private.decrypt(ciphertext) == 123456789


def test_update_sends_one_factor_per_touched_ciphertext(provider, pushdown_design):
    """Slot deltas are folded per packed ciphertext before encryption: an
    UPDATE over several slots of one ciphertext ships one ``(index,
    factor)`` pair for it, and the patched ciphertext holds what per-slot
    patches applied one at a time, or a re-encryption, would hold."""
    client = make_client(provider, pushdown_design)
    recorder = _Recorder(client.backend)
    client.backend = recorder
    dml = client.dml
    plain, entries, exprs, hom_groups, enc_schema, _ = dml._layout("orders")
    (group,) = [g for g in hom_groups if g.expr_sqls == ("o_price",)]
    file = recorder.ciphertext_store.get(group.file_name)
    layout = file.layout
    rpc = layout.rows_per_ciphertext
    public, private = provider.paillier_public, provider.paillier_private
    before = list(file.ciphertexts)
    stored, plain_rows = dml._fetch_decrypted(
        "orders", plain, entries, exprs, enc_schema, CostLedger()
    )
    # Keyed by hom row id, the last stored column.
    old_price = {cells[-1]: row[2] for cells, row in zip(stored, plain_rows)}
    touched = [cells[-1] for cells, row in zip(stored, plain_rows) if row[0] <= 12]
    new_price = dict(old_price)
    for rid in touched:
        new_price[rid] = 5010 - old_price[rid]

    client.execute("UPDATE orders SET o_price = 5010 - o_price WHERE o_orderkey <= 12")

    ciphertexts = {rid // rpc for rid in touched}
    assert len(ciphertexts) < len(touched)  # some ciphertext holds several
    (updates,) = [u for name, u in recorder.hom_updates if name == group.file_name]
    indices = [index for index, _ in updates]
    assert sorted(indices) == sorted(ciphertexts)
    for index in indices:
        one_at_a_time = before[index]
        for rid in touched:
            if rid // rpc == index:
                delta = new_price[rid] - old_price[rid]
                slot_delta = (delta << layout.slot_offset(rid % rpc, 0)) % public.n
                (factor,) = provider.paillier_encrypt_batch([slot_delta])
                one_at_a_time = public.add(one_at_a_time, factor)
        slots = range(index * rpc, (index + 1) * rpc)
        chunk = [[new_price.get(rid, 0)] for rid in slots]
        (reencrypted,) = provider.paillier_encrypt_batch([layout.encode_rows(chunk)])
        assert (
            private.decrypt(file.ciphertexts[index])
            == private.decrypt(one_at_a_time)
            == private.decrypt(reencrypted)
        )


class TestShardedGather:
    def _sharded(self):
        shards = [InMemoryBackend(Database(f"s{i}")) for i in range(2)]
        sharded = ShardedBackend(shards)
        # No DET column: rows route by ordinal, so equal tuples inserted
        # back to back land on different shards.
        sharded.create_table(schema("t", ("k", "int"), ("v", "int")))
        sharded.insert_rows("t", [(1, 10), (1, 10), (2, 20), (1, 10), (2, None)])
        return sharded, shards

    @staticmethod
    def _stored(shards) -> list[list[tuple]]:
        return [list(shard.database.table("t").rows) for shard in shards]

    def test_delete_takes_duplicates_in_ordinal_order(self):
        sharded, shards = self._sharded()
        assert self._stored(shards) == [
            [(1, 10, 0), (2, 20, 2), (2, None, 4)],
            [(1, 10, 1), (1, 10, 3)],
        ]
        assert sharded.delete_rows("t", [(1, 10), (1, 10)]) == 2
        assert self._stored(shards) == [[(2, 20, 2), (2, None, 4)], [(1, 10, 3)]]
        # A retried delete finds nothing left to do for the rows it took.
        assert sharded.delete_rows("t", [(7, 7)]) == 0
        assert sharded.row_count("t") == 3

    def test_replace_takes_duplicates_in_ordinal_order(self):
        sharded, shards = self._sharded()
        pairs = [((1, 10), (1, 11)), ((1, 10), (1, 12)), ((2, None), (2, 21))]
        before = sharded.table_bytes("t")
        assert sharded.replace_rows("t", pairs) == 3
        assert self._stored(shards) == [
            [(1, 11, 0), (2, 20, 2), (2, 21, 4)],
            [(1, 12, 1), (1, 10, 3)],
        ]
        assert sharded.table_bytes("t") == before + 7  # NULL (1 B) became an int

    def test_gather_scans_candidates_only(self):
        sharded, shards = self._sharded()
        seen: list[int] = []
        for shard in shards:
            original = shard.execute_stream

            def execute_stream(query, params=None, original=original, **kwargs):
                stream = original(query, params=params, **kwargs)
                blocks = list(stream)
                seen.append(sum(map(len, blocks)))
                return BlockStream(stream.columns, blocks, stream.stats)

            shard.execute_stream = execute_stream
        sharded.delete_rows("t", [(2, 20)])
        assert sum(seen) == 2  # The two k = 2 rows, not all five.


# ---------------------------------------------------------------------------
# The read after the write: planner statistics stay exact, not rescanned
# ---------------------------------------------------------------------------


class TestStatisticsAfterWrites:
    EXPRS = ["o_qty", "o_price", "o_price * o_qty", "o_discount"]

    def test_analyze_and_stats_max_follow_a_random_script(
        self, provider, pushdown_design
    ):
        from repro.core.designer import Designer

        client = make_client(provider, pushdown_design)
        oracle = build_sales_db(NUM_ORDERS)
        designer = client.planner.stats_max.__self__
        for expr in self.EXPRS:  # Memoized before the first write.
            assert designer.stats_max("orders", expr) is not None
        client.plain_db.table("orders").analyze()
        rng = random.Random(5)
        next_key = 2000
        for step in range(60):
            kind = rng.choice(["insert", "update", "update", "delete"])
            if kind == "insert":
                # Now and then a new maximum (inside the frozen 13-bit hom
                # slot), a NULL, a repeat of the old one.
                price = rng.choice(["NULL", 5000, 5001 + step, rng.randint(10, 5000)])
                sql = (
                    f"INSERT INTO orders VALUES ({next_key}, {rng.randint(1, 30)}, "
                    f"{price}, {rng.randint(1, 50)}, {rng.randint(0, 10)}, "
                    "DATE '1996-01-01', 'OPEN', 'red brown cat purrs')"
                )
                next_key += 1
            elif kind == "update":
                column = rng.choice(["o_price", "o_qty", "o_discount"])
                sql = (
                    f"UPDATE orders SET {column} = {rng.randint(0, 60)} "
                    f"WHERE o_custkey = {rng.randint(1, 30)}"
                )
            else:
                # Half the time aimed at whoever holds the maximum price.
                prices = [row[2] for row in oracle.table("orders").rows]
                top = max(p for p in prices if p is not None)
                wheres = [f"o_price >= {top}", f"o_custkey = {rng.randint(1, 30)}"]
                sql = f"DELETE FROM orders WHERE {rng.choice(wheres)}"
            assert client.execute(sql).rows == [(apply_plain_dml(oracle, sql),)], sql

            fresh = Database("fresh")
            table = fresh.create_table(oracle.table("orders").schema)
            table.insert_many(oracle.table("orders").rows)
            assert client.plain_db.table("orders").analyze() == table.analyze(), sql
            rescanned = Designer(fresh, provider)
            for expr in self.EXPRS:
                want = rescanned.stats_max("orders", expr)
                assert designer.stats_max("orders", expr) == want, (sql, expr)
        # The planner that was rebuilt after the last write asks the same
        # designer: nothing was dropped along the way.
        assert client.planner.stats_max.__self__ is designer

    def test_planning_thread_fills_the_memo_while_a_write_walks_it(
        self, provider, pushdown_design
    ):
        """The service plans under one lock and notifies DML listeners
        under another: ``stats_max`` adds keys while ``on_change`` iterates."""
        import threading

        from repro.core.designer import Designer

        client = make_client(provider, pushdown_design)
        oracle = build_sales_db(NUM_ORDERS)
        designer = client.planner.stats_max.__self__
        asked: list[str] = []
        errors: list[BaseException] = []
        done = threading.Event()

        def plan() -> None:
            try:
                while not done.is_set() and len(asked) < 3000:
                    expr = f"o_price + {len(asked)}"
                    asked.append(expr)
                    designer.stats_max("orders", expr)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        planner = threading.Thread(target=plan)
        planner.start()
        try:
            for step in range(40):
                sql = f"UPDATE orders SET o_price = {step} WHERE o_custkey = {step % 9}"
                assert client.execute(sql).rows == [(apply_plain_dml(oracle, sql),)]
        finally:
            done.set()
            planner.join()
        assert not errors and len(asked) > 40
        rescanned = Designer(oracle, provider)
        for expr in asked:
            want = rescanned.stats_max("orders", expr)
            assert designer.stats_max("orders", expr) == want, expr

    def test_tables_never_written_allocate_nothing(self, provider, pushdown_design):
        client = make_client(provider, pushdown_design)
        designer = client.planner.stats_max.__self__
        designer.stats_max("customer", "c_balance")
        client.plain_db.table("customer").analyze()
        client.execute("UPDATE orders SET o_qty = 1 WHERE o_custkey = 3")
        assert client.plain_db.table("customer")._counters is None
        assert designer._max_memo[("customer", "c_balance")]._counter is None
