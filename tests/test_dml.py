"""Encrypted DML (PR 10): INSERT/UPDATE/DELETE through the batch pipeline.

Differential oracle: every statement runs on a fresh encrypted client and
on a plaintext mirror (`testkit.apply_plain_dml`); the analytic workload
must agree afterwards — on the in-memory backend, SQLite, a 2-way sharded
deployment, over TCP, and under injected write faults.  The homomorphic
files are additionally pinned byte-equivalent (at the plaintext level) to
a from-scratch re-encryption, which is what makes in-place maintenance
trustworthy.

These tests build their own clients: the session-scoped conftest fixtures
are shared and must not be mutated.
"""

from __future__ import annotations

import datetime
import itertools
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConfigError,
    DesignError,
    InjectedFaultError,
    UnsupportedQueryError,
)
from repro.common.ledger import CostLedger
from repro.common.retry import RetryPolicy
from repro.core import (
    HomGroup,
    MaintainedAggregates,
    MonomiClient,
    normalize_query,
)
from repro.core.incagg import DEFAULT_SPLITS
from repro.core.schemes import Scheme
from repro.engine import Database, Executor, schema
from repro.server.backend import DelegatingView, insert_rows_idempotent
from repro.server.inmemory import InMemoryBackend
from repro.server.sharded import ShardedBackend
from repro.sql import ast, parse, parse_statement, to_sql
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    apply_plain_dml,
    build_sales_db,
    canonical,
    with_chaos,
)

#: Small enough that a full client build stays ~1 s, large enough that the
#: orders hom files span multiple packed ciphertexts.
NUM_ORDERS = 40

#: The shared mixed-DML script: multi-row and column-list INSERTs, an
#: UPDATE that moves hom-packed columns, predicate DELETEs (including a
#: SEARCH-style LIKE), and writes to the non-hom customer table.
DML_SCRIPT: list[tuple[str, dict | None]] = [
    (
        "INSERT INTO orders VALUES "
        "(1001, 3, 4200, 7, 2, DATE '1996-03-14', 'OPEN', 'fresh brown order'), "
        "(1002, 11, 150, 2, 0, DATE '1996-04-01', 'SHIPPED', 'quiet gray mouse naps')",
        None,
    ),
    (
        "INSERT INTO orders (o_orderkey, o_custkey, o_price, o_qty, "
        "o_discount, o_date, o_status, o_comment) VALUES "
        "(:k, :c, :p, :q, :d, :dt, :s, :cm)",
        {
            "k": 1003,
            "c": 3,
            "p": 900,
            "q": 1,
            "d": 5,
            "dt": datetime.date(1996, 5, 2),
            "s": "OPEN",
            "cm": "brown paper planes",
        },
    ),
    (
        "UPDATE orders SET o_price = o_price + 37, o_status = 'SHIPPED' "
        "WHERE o_custkey = 3",
        None,
    ),
    ("DELETE FROM orders WHERE o_price < 300", None),
    (
        "UPDATE customer SET c_balance = c_balance + 1000 "
        "WHERE c_nation = 'FRANCE'",
        None,
    ),
    ("DELETE FROM orders WHERE o_comment LIKE '%furiously%'", None),
    (
        "INSERT INTO customer VALUES (31, 'Customer#0031', 'BUILDING', 500, 'PERU')",
        None,
    ),
    ("UPDATE orders SET o_qty = o_qty + 3 WHERE o_status = 'RETURNED'", None),
]


@pytest.fixture(scope="module")
def dml_design(provider):
    """One physical design shared by every fresh client in this module.

    The designer's hom-group choice depends on its launch-time decryption
    profile (a timing measurement), so the orders hom groups are pinned
    here instead: a single-column columnar file plus a two-column packed
    file, which between them exercise every in-place maintenance path
    (partial-last-ciphertext inserts, multi-slot deltas, zeroed deletes).
    """
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


def run_script(client, oracle: Database) -> None:
    """Apply DML_SCRIPT to both sides, asserting per-statement row counts."""
    for sql, params in DML_SCRIPT:
        outcome = client.execute(sql, params)
        expected = apply_plain_dml(oracle, sql, params)
        assert outcome.rows == [(expected,)], sql
        assert outcome.planned is None  # DML has no split plan


def assert_workload_matches(client, oracle: Database) -> None:
    plain = Executor(oracle)
    for sql in SALES_WORKLOAD:
        expected = plain.execute(normalize_query(parse(sql)))
        assert canonical(client.execute(sql).rows) == canonical(expected.rows), sql
    count = client.execute("SELECT COUNT(*) FROM orders").rows
    assert count == [(len(oracle.table("orders").rows),)]


def _ledger_bytes(ledger) -> tuple[int, int, int]:
    return ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips


# ---------------------------------------------------------------------------
# Frontend: parse / print / normalize / reject
# ---------------------------------------------------------------------------


class TestDmlFrontend:
    ROUND_TRIPS = [
        "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
        "INSERT INTO t (a, b) VALUES (1, DATE '1996-01-01')",
        "UPDATE t SET a = a + 1, b = 'x' WHERE a > 3 AND b LIKE '%q%'",
        "DELETE FROM t WHERE a BETWEEN 1 AND 9",
        "DELETE FROM t",
    ]

    @pytest.mark.parametrize("sql", ROUND_TRIPS)
    def test_print_parse_round_trip(self, sql):
        statement = parse_statement(sql)
        assert ast.is_dml(statement)
        assert parse_statement(to_sql(statement)) == statement

    def test_select_is_not_dml(self):
        assert not ast.is_dml(parse_statement("SELECT 1"))

    def test_normalize_binds_parameters(self):
        from repro.core import normalize_dml

        statement = normalize_dml(
            parse_statement("DELETE FROM t WHERE a = :x"), {"x": 7}
        )
        assert statement.where.right == ast.Literal(7)

    def test_normalize_rejects_multi_pattern_like(self):
        from repro.core import normalize_dml

        with pytest.raises(UnsupportedQueryError):
            normalize_dml(parse_statement("DELETE FROM t WHERE a LIKE '%x%y%'"))


# ---------------------------------------------------------------------------
# Differential oracle across backends
# ---------------------------------------------------------------------------


class TestDmlOracle:
    @pytest.mark.parametrize(
        "backend,shards",
        [("memory", None), ("sqlite", None), ("memory", 2), ("sqlite", 2)],
        ids=["memory", "sqlite", "memory-sharded2", "sqlite-sharded2"],
    )
    def test_script_matches_plaintext_oracle(
        self, provider, dml_design, backend, shards
    ):
        client = make_client(provider, dml_design, backend=backend, shards=shards)
        oracle = build_sales_db(NUM_ORDERS)
        run_script(client, oracle)
        assert_workload_matches(client, oracle)
        # The client's plaintext mirror stayed in lockstep (it feeds the
        # planner's statistics after _refresh_planner()).
        assert canonical(client.plain_db.table("orders").rows) == canonical(
            oracle.table("orders").rows
        )

    def test_per_op_trace_is_identical_across_backends(self, provider, dml_design):
        """Each statement's rows affected and ledger bytes, and the rows and
        ledger bytes of an analytic probe right after it, are the same on
        every backend and shard count: where the data lives never changes
        what crosses the trust boundary."""
        traces = {}
        for backend, shards in [
            ("memory", None),
            ("sqlite", None),
            ("memory", 2),
            ("sqlite", 2),
        ]:
            client = make_client(provider, dml_design, backend=backend, shards=shards)
            trace = []
            for index, (sql, params) in enumerate(DML_SCRIPT):
                outcome = client.execute(sql, params)
                probe = client.execute(SALES_WORKLOAD[index % len(SALES_WORKLOAD)])
                trace.append(
                    (
                        outcome.rows,
                        _ledger_bytes(outcome.ledger),
                        canonical(probe.rows),
                        _ledger_bytes(probe.ledger),
                    )
                )
            traces[backend, shards] = trace
        reference = traces["memory", None]
        for key, trace in traces.items():
            assert trace == reference, key

    def test_insert_then_query_is_fresh_mid_script(self, provider, dml_design):
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        freshness_query = (
            "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
            "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC"
        )
        for sql, params in DML_SCRIPT:
            client.execute(sql, params)
            apply_plain_dml(oracle, sql, params)
            expected = Executor(oracle).execute(normalize_query(parse(freshness_query)))
            assert canonical(client.execute(freshness_query).rows) == canonical(
                expected.rows
            ), sql

    def test_update_is_visible_through_a_warm_decrypt_cache(self, provider, dml_design):
        # The DET decrypt cache maps ciphertext -> plaintext, so a rewritten
        # cell arrives as a different ciphertext: nothing to invalidate.
        client = make_client(provider, dml_design)
        probe = "SELECT o_orderkey, o_price, o_status FROM orders WHERE o_orderkey = 7"
        (before,) = client.execute(probe).rows
        warm = provider.cache_stats()["det_decrypt"]
        assert client.execute(probe).rows == [before]
        assert provider.cache_stats()["det_decrypt"].hits > warm.hits
        client.execute(
            "UPDATE orders SET o_price = o_price + 37, o_status = 'SHIPPED' "
            "WHERE o_orderkey = 7"
        )
        assert client.execute(probe).rows == [(7, before[1] + 37, "SHIPPED")]
        client.execute("DELETE FROM orders WHERE o_orderkey = 7")
        assert client.execute(probe).rows == []

    def test_dml_ledger_charges_transfer(self, provider, dml_design):
        client = make_client(provider, dml_design)
        outcome = client.execute(
            "INSERT INTO orders VALUES "
            "(2001, 1, 777, 3, 0, DATE '1997-01-01', 'OPEN', 'ledger probe')"
        )
        assert outcome.ledger.transfer_bytes > 0
        deleted = client.execute("DELETE FROM orders WHERE o_orderkey = 2001")
        assert deleted.rows == [(1,)]
        # UPDATE/DELETE scan the table server-side to fetch stored rows.
        assert deleted.ledger.server_bytes_scanned > 0

    def test_validation_rejects_before_mutating(self, provider, dml_design):
        client = make_client(provider, dml_design)
        before = client.execute("SELECT COUNT(*) FROM orders").rows
        with pytest.raises(ConfigError):
            client.execute("INSERT INTO orders (nope) VALUES (1)")
        with pytest.raises(ConfigError):
            client.execute("INSERT INTO orders VALUES (1, 2)")  # arity
        with pytest.raises(ConfigError):
            client.execute("DELETE FROM missing_table")
        assert client.execute("SELECT COUNT(*) FROM orders").rows == before

    def test_execute_iter_rejects_dml(self, provider, dml_design):
        client = make_client(provider, dml_design)
        with pytest.raises(UnsupportedQueryError):
            client.execute_iter("DELETE FROM orders")


# ---------------------------------------------------------------------------
# Homomorphic maintenance: in-place patches == re-encryption
# ---------------------------------------------------------------------------


class TestHomMaintenance:
    def test_in_place_equals_reencryption(self, provider, dml_design):
        """After the full script, every maintained Paillier file decrypts
        to exactly what a from-scratch pack of the surviving rows (at
        their row_ids, zeros in dead slots) would encrypt."""
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        run_script(client, oracle)
        dml = client.dml
        plain, entries, exprs, hom_groups, enc_schema, scope = dml._layout("orders")
        assert hom_groups, "sales design must pack hom groups for orders"
        stored, plain_rows = dml._fetch_decrypted(
            "orders", plain, entries, exprs, enc_schema, CostLedger()
        )
        for group in hom_groups:
            file = client.backend.ciphertext_store.get(group.file_name)
            layout = file.layout
            expected = [[0] * len(group.expr_sqls) for _ in range(file.num_rows)]
            for full_row, values in zip(
                stored, dml._group_values(group, plain_rows, scope)
            ):
                expected[full_row[-1]] = values  # row_id is the last column
            rpc = layout.rows_per_ciphertext
            decrypted = provider.paillier_decrypt_batch(file.ciphertexts)
            for ct_index, value in enumerate(decrypted):
                chunk = expected[
                    ct_index * rpc : min((ct_index + 1) * rpc, file.num_rows)
                ]
                assert value == layout.encode_rows(chunk), (
                    group.file_name,
                    ct_index,
                )

    def test_insert_grows_hom_row_space(self, provider, dml_design):
        client = make_client(provider, dml_design)
        group = client.dml._layout("orders")[3][0]
        before = client.backend.hom_file_info(group.file_name)
        client.execute("DELETE FROM orders WHERE o_orderkey <= 5")
        after_delete = client.backend.hom_file_info(group.file_name)
        # DELETE zeroes slots; the row space never shrinks or compacts.
        assert after_delete["num_rows"] == before["num_rows"]
        client.execute(
            "INSERT INTO orders VALUES "
            "(3001, 2, 50, 1, 0, DATE '1997-06-01', 'OPEN', 'grow probe')"
        )
        grown = client.backend.hom_file_info(group.file_name)
        assert grown["num_rows"] == before["num_rows"] + 1

    def test_hom_apply_token_is_idempotent(self, provider):
        from repro.crypto.packing import PackedLayout
        from repro.storage.ciphertext_store import CiphertextFile

        public = provider.paillier_public
        layout = PackedLayout(
            column_bits=(16,), pad_bits=8, plaintext_bits=public.plaintext_bits
        )
        file = CiphertextFile(
            name="tok_probe",
            public_key=public,
            layout=layout,
            column_names=("v",),
            num_rows=1,
        )
        file.ciphertexts.extend(provider.paillier_encrypt_batch([5]))
        backend = InMemoryBackend(Database("tok"))
        backend.add_ciphertext_file(file)
        factor = provider.paillier_encrypt_batch([3])[0]
        for _ in range(3):  # a lost ack replays the same token
            backend.hom_apply("tok_probe", updates=[(0, factor)], token="t-1")
        applied = provider.paillier_decrypt_batch(backend.hom_read("tok_probe", [0]))
        assert applied == [8]


class TestHomWidthRefusals:
    """Hom layouts are frozen at load: a write the packed ``o_price``
    columns cannot hold raises ``DesignError`` and changes nothing — rows,
    hom row space, the mirror and the hom SUM all stay as they were."""

    PRICES = [row[2] for row in build_sales_db(NUM_ORDERS).table("orders").rows]
    #: One bit wider than the largest ``o_price`` loaded.
    WIDE = 1 << max(PRICES).bit_length()
    REFUSED = [
        "INSERT INTO orders VALUES "
        f"(3001, 2, {WIDE}, 1, 0, DATE '1997-06-01', 'OPEN', 'too wide')",
        "INSERT INTO orders VALUES "
        "(3002, 2, -5, 1, 0, DATE '1997-06-01', 'OPEN', 'negative')",
        "UPDATE orders SET o_price = o_price * 1000 WHERE o_orderkey <= 3",
    ]

    def _state(self, client, files):
        return (
            client.execute("SELECT COUNT(*) FROM orders").rows,
            [client.backend.hom_file_info(f)["num_rows"] for f in files],
            canonical(client.plain_db.table("orders").rows),
            client.execute("SELECT SUM(o_price) FROM orders").rows,
            canonical(client.execute("SELECT o_orderkey, o_price FROM orders").rows),
        )

    @pytest.mark.parametrize("sql", REFUSED, ids=["wide", "negative", "update"])
    @pytest.mark.parametrize(
        "backend,shards",
        [("memory", None), ("sqlite", None), ("memory", 2)],
        ids=["memory", "sqlite", "sharded2"],
    )
    def test_refused_write_changes_nothing(
        self, provider, dml_design, backend, shards, sql
    ):
        client = make_client(provider, dml_design, backend=backend, shards=shards)
        files = [g.file_name for g in client.dml._layout("orders")[3]]
        assert any("o_price" in g.expr_sqls for g in dml_design.hom_groups)
        before = self._state(client, files)
        with pytest.raises(DesignError):
            client.execute(sql)
        assert self._state(client, files) == before


# ---------------------------------------------------------------------------
# Maintained aggregates (MRV split counters)
# ---------------------------------------------------------------------------


class TestMaintainedAggregates:
    def _revenue(self, db: Database) -> int:
        return sum(r[2] * r[3] for r in db.table("orders").rows)

    @pytest.mark.parametrize(
        "backend,shards",
        [("memory", None), ("sqlite", None), ("memory", 2)],
        ids=["memory", "sqlite", "sharded2"],
    )
    def test_tracks_dml_and_balances(self, provider, dml_design, backend, shards):
        client = make_client(provider, dml_design, backend=backend, shards=shards)
        oracle = build_sales_db(NUM_ORDERS)
        aggs = MaintainedAggregates(client, splits=4, seed=7)
        aggs.register("revenue", "orders", "o_price * o_qty")
        aggs.register("neg_qty", "orders", "0 - o_qty")  # negative residues
        assert aggs.value("revenue") == self._revenue(oracle)
        run_script(client, oracle)
        expected = self._revenue(oracle)
        assert aggs.value("revenue") == expected
        assert sum(aggs.split_values("revenue")) == expected
        assert aggs.value("neg_qty") == -sum(r[3] for r in oracle.table("orders").rows)
        aggs.balance_now()
        assert aggs.value("revenue") == expected  # zero-sum by construction
        values = aggs.split_values("revenue")
        assert max(values) - min(values) <= 1

    def test_background_balancer_levels_splits(self, provider, dml_design):
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        with MaintainedAggregates(client, splits=3, seed=13) as aggs:
            aggs.register("rev", "orders", "o_price")
            aggs.start_balancer(interval=0.05)
            for sql, params in DML_SCRIPT[:4]:
                client.execute(sql, params)
                apply_plain_dml(oracle, sql, params)
            expected = sum(r[2] for r in oracle.table("orders").rows)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                values = aggs.split_values("rev")
                if sum(values) == expected and max(values) - min(values) <= 1:
                    break
                time.sleep(0.05)
            assert sum(values) == expected
            assert max(values) - min(values) <= 1

    def test_register_validates(self, provider, dml_design):
        client = make_client(provider, dml_design)
        aggs = MaintainedAggregates(client, splits=2)
        aggs.register("q", "orders", "o_qty")
        with pytest.raises(ConfigError):
            aggs.register("q", "orders", "o_qty")  # duplicate name
        with pytest.raises(ConfigError):
            aggs.register("x", "missing", "o_qty")  # unknown table
        with pytest.raises(ConfigError):
            aggs.value("unregistered")

    @pytest.mark.parametrize("bad", [0, -3, 2.7, True, "4"])
    def test_splits_must_be_a_positive_int(self, provider, dml_design, bad):
        """A bad split count is refused, not rounded or clamped to one,
        before the aggregate set subscribes to the client's writes."""
        client = make_client(provider, dml_design)
        listeners = list(client.dml.listeners)
        with pytest.raises(ConfigError, match="splits"):
            MaintainedAggregates(client, splits=bad)
        assert client.dml.listeners == listeners

    @pytest.mark.parametrize("splits", [None, 1, 5])
    def test_valid_splits_are_kept(self, provider, dml_design, splits):
        """A valid split count is used as given; omitted, it is the default."""
        client = make_client(provider, dml_design)
        if splits is None:
            aggs, expected = MaintainedAggregates(client), DEFAULT_SPLITS
        else:
            aggs, expected = MaintainedAggregates(client, splits=splits), splits
        aggs.register("revenue", "orders", "o_price * o_qty")
        assert aggs.splits == expected
        assert len(aggs.split_values("revenue")) == expected
        assert aggs.value("revenue") == self._revenue(build_sales_db(NUM_ORDERS))

    @pytest.mark.parametrize("splits", [1, 4, 7])
    def test_read_is_one_decryption(self, monkeypatch, provider, dml_design, splits):
        """value() folds the split vector mod n² and decrypts one
        ciphertext, whatever the split count; split_values() still
        decrypts every split."""
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        aggs = MaintainedAggregates(client, splits=splits, seed=7)
        aggs.register("revenue", "orders", "o_price * o_qty")
        batches: list[int] = []
        decrypt = provider.paillier_decrypt_batch

        def spy(ciphertexts):
            batches.append(len(ciphertexts))
            return decrypt(ciphertexts)

        def check_reads():
            expected = self._revenue(oracle)
            batches.clear()
            assert aggs.value("revenue") == expected
            assert batches == [1]
            batches.clear()
            assert sum(aggs.split_values("revenue")) == expected
            assert batches == [splits]

        monkeypatch.setattr(provider, "paillier_decrypt_batch", spy)
        run_script(client, oracle)
        check_reads()
        aggs.balance_now()
        check_reads()

    def test_fold_equals_per_split_sum(self, provider, dml_design):
        """Patch streams through ``_apply`` — negative deltas, |delta| up
        to 2**100, a total forced across zero — read back as the signed
        sum of the deltas, by the fold and by the per-split sum alike."""
        client = make_client(provider, dml_design)
        aggs = MaintainedAggregates(client, splits=5, seed=3)
        names = itertools.count()
        delta = st.integers(-(2**100), 2**100)
        split = st.integers(0, aggs.splits - 1)

        @settings(max_examples=50, deadline=None)
        @given(st.lists(st.tuples(split, delta), min_size=1, max_size=8), split)
        def check(patches, last_split):
            name = f"p{next(names)}"
            aggs.register(name, "orders", "0 * o_qty")
            agg = aggs._get(name)
            # A closing delta flips the total's sign, so it crosses zero.
            total = sum(d for _, d in patches)
            patches = patches + [(last_split, -2 * total + (1 if total < 0 else -1))]
            running = 0
            for split, d in patches:
                aggs._apply(agg, [(split, d)])
                running += d
                assert aggs.value(name) == running
            assert (total < 0) != (running < 0)
            assert sum(aggs.split_values(name)) == running

        check()

    def test_fold_recenters_at_half_n(self, provider, dml_design):
        """The folded total re-centers exactly as the per-split sum did:
        a residue of n // 2 reads n // 2, one more reads -(n // 2)."""
        client = make_client(provider, dml_design)
        aggs = MaintainedAggregates(client, splits=3, seed=1)
        n = provider.paillier_public.n
        aggs.register("half", "orders", "0 * o_qty")
        aggs._apply(aggs._get("half"), [(0, n // 4), (2, n // 2 - n // 4)])
        assert aggs.value("half") == n // 2
        aggs.register("over", "orders", "0 * o_qty")
        aggs._apply(aggs._get("over"), [(0, n // 2), (1, 1)])
        assert aggs.value("over") == -(n // 2)


# ---------------------------------------------------------------------------
# Chaos on the write path
# ---------------------------------------------------------------------------


class TestChaosOnWrite:
    @pytest.mark.parametrize(
        "backend,shards,seed",
        [
            ("memory", None, 3),
            ("memory", None, 11),
            ("memory", None, 42),
            ("sqlite", None, 11),
            ("memory", 2, 11),
        ],
        ids=["mem-s3", "mem-s11", "mem-s42", "sqlite-s11", "sharded2-s11"],
    )
    def test_faulted_writes_converge_to_fault_free_state(
        self, provider, dml_design, backend, shards, seed
    ):
        client = with_chaos(
            make_client(provider, dml_design, backend=backend, shards=shards),
            seed,
            0.15,
        )
        oracle = build_sales_db(NUM_ORDERS)
        run_script(client, oracle)
        stats = client.backend.stats()
        assert stats["draws"] > 0
        assert_workload_matches(client, oracle)

    def test_chaos_actually_fires_across_seeds(self, provider, dml_design):
        """At least one of the CI seeds must inject faults on the write
        path, otherwise the convergence tests above prove nothing."""
        fired = 0
        for seed in (3, 11, 42):
            client = with_chaos(make_client(provider, dml_design), seed, 0.15)
            oracle = build_sales_db(NUM_ORDERS)
            run_script(client, oracle)
            fired += client.backend.stats()["injected_errors"]
        assert fired > 0

    def test_maintained_aggregate_survives_chaos(self, provider, dml_design):
        client = with_chaos(make_client(provider, dml_design), 11, 0.15)
        oracle = build_sales_db(NUM_ORDERS)
        aggs = MaintainedAggregates(client, splits=4, seed=5)
        aggs.register("rev", "orders", "o_price * o_qty")
        run_script(client, oracle)
        aggs.balance_now()
        assert aggs.value("rev") == sum(
            r[2] * r[3] for r in oracle.table("orders").rows
        )


# ---------------------------------------------------------------------------
# Idempotent insert + sharded ordinal regression (the PR's bugfixes)
# ---------------------------------------------------------------------------


def _plain_backend() -> InMemoryBackend:
    backend = InMemoryBackend(Database("w"))
    backend.create_table(schema("t", ("v", "int")))
    return backend


_FAST = RetryPolicy(max_attempts=4, base_delay=0.0005, max_delay=0.002)


class _PassthroughView(DelegatingView):
    """DelegatingView leaves query execution abstract; delegate it too."""

    def execute_stream(self, query, params=None, block_rows=None, deadline=None):
        return self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )


class _LostAck(_PassthroughView):
    """Applies the insert, then reports failure ``lost_acks`` times."""

    def __init__(self, parent, lost_acks: int) -> None:
        super().__init__(parent)
        self.lost_acks = lost_acks

    def insert_rows(self, table_name, rows):
        self._parent.insert_rows(table_name, rows)
        if self.lost_acks:
            self.lost_acks -= 1
            raise InjectedFaultError("injected: apply committed, ack lost")


class _PartialApply(_PassthroughView):
    """Commits only the first ``keep`` rows of the next insert, then fails."""

    def __init__(self, parent, keep: int) -> None:
        super().__init__(parent)
        self.keep: int | None = keep

    def insert_rows(self, table_name, rows):
        rows = list(rows)
        if self.keep is not None:
            keep, self.keep = self.keep, None
            self._parent.insert_rows(table_name, rows[:keep])
            raise InjectedFaultError("injected: partial apply")
        self._parent.insert_rows(table_name, rows)


class _PartialApplyNoResume(_PartialApply):
    supports_prefix_resume = False


class TestIdempotentInsert:
    BATCH = [(i,) for i in range(6)]

    def test_lost_ack_does_not_duplicate(self):
        backend = _plain_backend()
        insert_rows_idempotent(
            _LostAck(backend, lost_acks=2), "t", self.BATCH, _FAST, random.Random(1)
        )
        assert backend.database.table("t").rows == self.BATCH

    def test_partial_apply_resumes_from_watermark(self):
        backend = _plain_backend()
        insert_rows_idempotent(
            _PartialApply(backend, keep=2), "t", self.BATCH, _FAST, random.Random(1)
        )
        assert backend.database.table("t").rows == self.BATCH

    def test_partial_apply_without_prefix_commits_is_fatal(self):
        backend = _plain_backend()
        with pytest.raises(ConfigError):
            insert_rows_idempotent(
                _PartialApplyNoResume(backend, keep=2),
                "t",
                self.BATCH,
                _FAST,
                random.Random(1),
            )

    def test_on_retry_counts_attempts(self):
        backend = _plain_backend()
        retries = []
        insert_rows_idempotent(
            _LostAck(backend, lost_acks=1),
            "t",
            self.BATCH,
            _FAST,
            random.Random(1),
            on_retry=lambda attempt, exc: retries.append(attempt),
        )
        assert retries  # the lost ack surfaced as a retry


class _FlakyShard(_PassthroughView):
    def __init__(self, parent) -> None:
        super().__init__(parent)
        self.fail_next = 0

    def insert_rows(self, table_name, rows):
        if self.fail_next:
            self.fail_next -= 1
            raise InjectedFaultError("injected: shard outage")
        self._parent.insert_rows(table_name, rows)


class TestShardedOrdinals:
    def test_partial_batch_failure_never_reuses_ordinals(self):
        """Regression: a batch that commits on shard 0 but dies on shard 1
        must advance the ordinal watermark past the committed rows, so the
        caller's re-send cannot mint duplicate ``__shard_ord`` values."""
        from repro.server.sharded import ORDINAL_COLUMN

        shard0 = InMemoryBackend(Database("s0"))
        flaky = _FlakyShard(InMemoryBackend(Database("s1")))
        sharded = ShardedBackend(
            [shard0, flaky],
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0005, max_delay=0.002
            ),
        )
        sharded.create_table(schema("t", ("v", "int")))
        flaky.fail_next = 2  # exhaust the retry budget for shard 1's bucket
        with pytest.raises(InjectedFaultError):
            sharded.insert_rows("t", [(i,) for i in range(4)])
        # The caller treats the failed batch as lost and re-sends it.
        sharded.insert_rows("t", [(i,) for i in range(4)])
        kept = shard0.database.table("t").rows
        stored = kept + flaky._parent.database.table("t").rows
        ordinals = [row[-1] for row in stored]
        assert len(ordinals) == len(set(ordinals)), ordinals
        schema_cols = [c.name for c in shard0.database.table("t").schema.columns]
        assert schema_cols[-1] == ORDINAL_COLUMN
        # Shard 0 kept its first bucket (the surviving half-batch), plus
        # its share of the re-send; shard 1 only has re-sent rows.
        assert sharded.row_count("t") == len(ordinals) == 6


# ---------------------------------------------------------------------------
# Service and network paths
# ---------------------------------------------------------------------------


class TestServiceDml:
    def test_dml_refreshes_plans_and_results(self, provider, dml_design):
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        query = SALES_WORKLOAD[0]
        with client.service(workers=2) as service:
            service.execute(query)
            service.execute(query)
            assert service.stats().plan_cache.hits >= 1
            outcome = service.execute("DELETE FROM orders WHERE o_price > 2000")
            expected = apply_plain_dml(
                oracle, "DELETE FROM orders WHERE o_price > 2000"
            )
            assert outcome.rows == [(expected,)]
            fresh = service.execute(query)  # cached plan, fresh rows
            plain = Executor(oracle).execute(normalize_query(parse(query)))
            assert canonical(fresh.rows) == canonical(plain.rows)

    def test_concurrent_readers_during_writes(self, provider, dml_design):
        client = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        query = SALES_WORKLOAD[4]
        errors: list[BaseException] = []

        with client.service(workers=3) as service:

            def reader() -> None:
                try:
                    for _ in range(8):
                        service.execute(query)
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            for sql, params in DML_SCRIPT[:4]:
                service.execute(sql, params)
                apply_plain_dml(oracle, sql, params)
            for t in threads:
                t.join()
            assert not errors
            plain = Executor(oracle).execute(normalize_query(parse(query)))
            assert canonical(service.execute(query).rows) == canonical(plain.rows)


class TestRemoteDml:
    def test_dml_over_the_wire_matches_oracle(self, provider, dml_design):
        from repro.net import MonomiServer

        host = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        with MonomiServer(host.backend) as server:
            remote = MonomiClient.connect(
                server.address,
                build_sales_db(NUM_ORDERS),
                design=dml_design,
                provider=provider,
            )
            try:
                run_script(remote, oracle)
                assert_workload_matches(remote, oracle)
                # Registration needs bulk-load state; the wire protocol
                # only exposes the maintenance surface (hom_apply/read).
                with pytest.raises(ConfigError):
                    MaintainedAggregates(remote, splits=2).register(
                        "rev", "orders", "o_price"
                    )
            finally:
                remote.close()

    def test_remote_chaos_write_convergence(self, provider, dml_design):
        from repro.net import MonomiServer

        host = make_client(provider, dml_design)
        oracle = build_sales_db(NUM_ORDERS)
        with MonomiServer(host.backend) as server:
            remote = with_chaos(
                MonomiClient.connect(
                    server.address,
                    build_sales_db(NUM_ORDERS),
                    design=dml_design,
                    provider=provider,
                ),
                11,
                0.12,
            )
            try:
                run_script(remote, oracle)
                assert_workload_matches(remote, oracle)
            finally:
                remote.close()

    @pytest.mark.parametrize("seed", range(25))
    def test_stacked_chaos_write_convergence(self, provider, dml_design, seed):
        """Two chaos layers at CI's rates: the hosted store's at
        ``(seed, 0.08)`` and the client's proxy at ``11:0.12``.  Each hop
        retries its own faults, so no write spends one budget on both."""
        from repro.net import MonomiServer

        host = with_chaos(make_client(provider, dml_design), seed, 0.08)
        oracle = build_sales_db(NUM_ORDERS)
        with MonomiServer(host.backend) as server:
            remote = with_chaos(
                MonomiClient.connect(
                    server.address,
                    build_sales_db(NUM_ORDERS),
                    design=dml_design,
                    provider=provider,
                ),
                11,
                0.12,
            )
            try:
                run_script(remote, oracle)
                assert_workload_matches(remote, oracle)
            finally:
                remote.close()
            assert server.stats()["chaos"]["draws"] > 0

    def test_server_retries_its_store_faults(self, provider, dml_design):
        """The server hop's loop: a client with no chaos of its own never
        retries a write while the hosted store injects faults."""
        from repro.net import MonomiServer

        host = with_chaos(make_client(provider, dml_design), 11, 0.08)
        oracle = build_sales_db(NUM_ORDERS)
        with MonomiServer(host.backend) as server:
            # A rate-0 proxy injects nothing: the store's faults are the
            # only ones, also under --chaos.
            remote = with_chaos(
                MonomiClient.connect(
                    server.address,
                    build_sales_db(NUM_ORDERS),
                    design=dml_design,
                    provider=provider,
                ),
                11,
                0.0,
            )
            try:
                for sql, params in DML_SCRIPT:
                    outcome = remote.execute(sql, params)
                    assert outcome.rows == [(apply_plain_dml(oracle, sql, params),)]
                    assert outcome.ledger.retries == 0, sql
                stats = server.stats()
                assert_workload_matches(remote, oracle)
            finally:
                remote.close()
        assert stats["chaos"]["injected_errors"] > 0
        assert stats["retries"] == stats["chaos"]["injected_errors"]
