"""Designer and planner behaviour tests (§6, §8.5, §8.6 mechanics)."""

from __future__ import annotations

import pytest

from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db, canonical
from repro.core import (
    CryptoProvider,
    MonomiClient,
    PhysicalDesign,
    Scheme,
    TechniqueFlags,
    normalize_query,
)
from repro.core.candidates import base_design_for_plain
from repro.core.designer import Designer
from repro.core.sizer import DesignSizer
from repro.engine import Executor
from repro.sql import parse


@pytest.fixture(scope="module")
def small_db():
    return build_sales_db(num_orders=150, seed=3)


@pytest.fixture(scope="module")
def provider():
    return CryptoProvider(MASTER_KEY, paillier_bits=384)


@pytest.fixture(scope="module")
def designer(small_db, provider):
    return Designer(small_db, provider)


@pytest.fixture(scope="module")
def queries():
    return [normalize_query(parse(sql)) for sql in SALES_WORKLOAD]


class TestDesigner:
    def test_greedy_design_covers_workload_ops(self, designer, queries):
        result = designer.design_greedy(queries)
        schemes = {e.scheme for e in result.design.entries}
        assert Scheme.SEARCH in schemes  # The LIKE query.
        assert Scheme.OPE in schemes  # Range filters.

    def test_ilp_respects_budget(self, designer, queries, small_db, provider):
        result = designer.design_ilp(queries, space_budget=1.3)
        sizer = DesignSizer(small_db, provider)
        assert sizer.design_bytes(result.design) <= 1.3 * sizer.plaintext_bytes() * 1.02

    def test_tighter_budget_costs_more(self, designer, queries):
        loose = designer.design_ilp(queries, space_budget=2.5)
        tight = designer.design_ilp(queries, space_budget=1.2)
        assert tight.total_cost >= loose.total_cost * 0.999

    def test_space_greedy_meets_budget(self, designer, queries, small_db, provider):
        result = designer.design_space_greedy(queries, space_budget=1.3)
        sizer = DesignSizer(small_db, provider)
        assert sizer.design_bytes(result.design) <= 1.3 * sizer.plaintext_bytes() * 1.02

    def test_ilp_not_worse_than_space_greedy(self, designer, queries):
        ilp = designer.design_ilp(queries, space_budget=1.3)
        greedy = designer.design_space_greedy(queries, space_budget=1.3)
        assert ilp.total_cost <= greedy.total_cost * 1.001

    def test_setup_time_recorded(self, designer, queries):
        result = designer.design_ilp(queries, space_budget=2.0)
        assert result.setup_seconds > 0

    def test_stats_max(self, designer):
        assert designer.stats_max("orders", "o_qty") == 50
        assert designer.stats_max("orders", "o_price * o_qty") > 0
        assert designer.stats_max("missing", "x") is None


class TestPlannerChoices:
    def test_planner_enumerates_candidates(self, small_db):
        client = MonomiClient.setup(
            small_db, SALES_WORKLOAD, master_key=MASTER_KEY, paillier_bits=384
        )
        planned = client.plan(normalize_query(parse(SALES_WORKLOAD[0])))
        # Three usable units, eight subsets; both DET units are already in
        # the base, so the subsets build two distinct candidates.
        assert planned.subsets_tried == 8
        assert planned.candidates_tried == 2

    def test_greedy_flag_disables_enumeration(self, small_db):
        flags = TechniqueFlags.execution_greedy()
        client = MonomiClient.setup(
            small_db,
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=384,
            flags=flags,
            designer_mode="greedy",
            space_budget=None,
        )
        planned = client.plan(normalize_query(parse(SALES_WORKLOAD[0])))
        assert planned.candidates_tried == planned.subsets_tried == 1

    def test_manual_design_is_usable(self, small_db):
        design = base_design_for_plain(small_db)
        design.add("orders", "o_custkey", Scheme.DET)
        client = MonomiClient.setup(
            small_db,
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=384,
            design=design,
        )
        query = normalize_query(
            parse("SELECT COUNT(*) FROM orders WHERE o_custkey = 5")
        )
        outcome = client.execute(query)
        expected = Executor(small_db).execute(query)
        assert canonical(outcome.rows) == canonical(expected.rows)

    def test_design_without_schemes_forces_local_work(self, small_db):
        """With only fetch copies, filters run on the client but results
        stay correct."""
        design = base_design_for_plain(small_db)
        client = MonomiClient.setup(
            small_db,
            ["SELECT COUNT(*) FROM orders WHERE o_price > 100"],
            master_key=MASTER_KEY,
            paillier_bits=384,
            design=design,
        )
        query = normalize_query(parse("SELECT COUNT(*) FROM orders WHERE o_price > 100"))
        outcome = client.execute(query)
        expected = Executor(small_db).execute(query)
        assert canonical(outcome.rows) == canonical(expected.rows)
        # Nothing was filterable on the server: whole rows came back.
        assert outcome.ledger.transfer_bytes > 150 * 8


class TestLoader:
    def test_every_column_fetchable(self, small_db, provider):
        from repro.core import EncryptedLoader, complete_design

        design = complete_design(PhysicalDesign(), small_db)
        server = EncryptedLoader(small_db, provider).load(design)
        for name, table in small_db.tables.items():
            enc = server.table(name)
            assert enc.num_rows == table.num_rows

    def test_hom_group_materializes_file(self, small_db, provider):
        from repro.core import EncryptedLoader, HomGroup

        design = PhysicalDesign()
        design.add_hom_group(HomGroup("orders", ("o_price", "o_qty"), 8))
        server = EncryptedLoader(small_db, provider).load(design)
        names = server.ciphertext_store.names()
        assert len(names) == 1
        file = server.ciphertext_store.get(names[0])
        assert file.num_rows == small_db.table("orders").num_rows
        assert server.table("orders").schema.has_column("row_id")

    def test_deterministic_columns_equal_per_value_encryption(
        self, small_db, provider
    ):
        """Every DET and OPE column the columnar loader stores is exactly
        the per-value encryption of the plaintext column."""
        from repro.core import EncryptedLoader, complete_design

        design = PhysicalDesign()
        design.add("orders", "o_price", Scheme.OPE)
        design.add("orders", "o_date", Scheme.OPE)
        server = EncryptedLoader(small_db, provider).load(design)
        # Per-value encryption must not read what the batch path cached.
        provider.reset_crypto_caches()
        checked = set()
        for name, table in small_db.tables.items():
            plain_names = table.schema.column_names
            stored = server.table(name)
            for entry in complete_design(design, small_db).table_entries(name):
                if entry.scheme not in (Scheme.DET, Scheme.OPE):
                    continue
                if entry.expr_sql not in plain_names:
                    continue
                source = plain_names.index(entry.expr_sql)
                target = stored.schema.column_names.index(entry.column_name)
                expected = [
                    provider.encrypt(row[source], entry.scheme.value)
                    for row in table.rows
                ]
                got = [row[target] for row in stored.rows]
                assert got == expected, (name, entry.column_name)
                checked.add(entry.scheme)
        assert checked == {Scheme.DET, Scheme.OPE}

    def test_hom_file_decrypts_to_loaded_values(self, small_db, provider):
        """A packed Paillier file decrypts, row by row, to the plaintext
        values of its expressions in load order."""
        from repro.core import EncryptedLoader, HomGroup

        exprs = ("o_price", "o_qty", "o_price * o_qty")
        design = PhysicalDesign()
        design.add_hom_group(HomGroup("orders", exprs, 16))
        server = EncryptedLoader(small_db, provider).load(design)
        (name,) = server.ciphertext_store.names()
        file = server.ciphertext_store.get(name)
        per_ct = file.layout.rows_per_ciphertext
        decrypted = provider.paillier_decrypt_batch(file.ciphertexts)
        rows = []
        for index, plaintext in enumerate(decrypted):
            count = min(per_ct, file.num_rows - index * per_ct)
            rows.extend(map(tuple, file.layout.decode_rows(plaintext, count)))
        query = normalize_query(parse(f"SELECT {', '.join(exprs)} FROM orders"))
        assert rows == Executor(small_db).execute(query).rows
