"""Cost model, ledger, and selectivity estimation tests."""

from __future__ import annotations

import pickle

import pytest

from repro.testkit import MASTER_KEY, build_sales_db
from repro.common.ledger import CostLedger, DiskModel, NetworkModel
from repro.core import CryptoProvider, DecryptionProfile, normalize_query
from repro.core.cost import DecryptionProfiler, MonomiCostModel
from repro.core.rewrite import BindingContext
from repro.core.selest import SelectivityEstimator
from repro.engine.cost import CostEstimator, estimate_hom_ciphertexts
from repro.sql import parse, parse_expression


class TestLedger:
    def test_network_model(self):
        network = NetworkModel(bandwidth_bits_per_sec=10_000_000, latency_seconds=0.02)
        # 1.25 MB at 10 Mbit/s = 1 second + latency.
        assert network.transfer_seconds(1_250_000) == pytest.approx(1.02)

    def test_disk_model(self):
        disk = DiskModel(read_bytes_per_sec=300_000_000)
        assert disk.read_seconds(300_000_000) == pytest.approx(1.0)

    def test_ledger_totals(self):
        ledger = CostLedger()
        ledger.server_seconds = 1.0
        ledger.client_seconds = 0.5
        ledger.add_transfer(1_250_000, NetworkModel(latency_seconds=0.0))
        assert ledger.total_seconds == pytest.approx(2.5)
        assert ledger.transfer_bytes == 1_250_000

    def test_ledger_merge(self):
        a, b = CostLedger(), CostLedger()
        a.server_seconds = 1.0
        b.client_seconds = 2.0
        a.merge(b)
        assert a.total_seconds == pytest.approx(3.0)

    def test_timing_contexts(self):
        ledger = CostLedger()
        with ledger.timing_server():
            pass
        with ledger.timing_client():
            pass
        assert ledger.server_seconds >= 0 and ledger.client_seconds >= 0


class TestHomCiphertextEstimate:
    def test_per_row_is_one(self):
        assert estimate_hom_ciphertexts(1, group_size=1000, group_count=50) == 1.0

    def test_grouped_columnar_is_expensive(self):
        grouped = estimate_hom_ciphertexts(4, group_size=1000, group_count=6, selectivity=1.0)
        assert grouped > 500  # ~one partial per row.

    def test_full_scan_single_group_is_cheap(self):
        full = estimate_hom_ciphertexts(8, group_size=10_000, group_count=1, selectivity=1.0)
        assert full < 10  # Near-total coverage folds into the product.

    def test_selective_scan_degrades(self):
        selective = estimate_hom_ciphertexts(8, 500, 1, selectivity=0.05)
        assert selective > 400


class TestSelectivityEstimator:
    @pytest.fixture(scope="class")
    def estimator(self):
        db = build_sales_db(num_orders=200, seed=2)
        schemas = {name: t.schema for name, t in db.tables.items()}
        bindings = BindingContext(
            {"orders": "orders", "customer": "customer"}, schemas
        )
        return SelectivityEstimator(db, bindings)

    def test_range_interpolation(self, estimator):
        low = estimator.conjunct(parse_expression("o_price > 4900"))
        high = estimator.conjunct(parse_expression("o_price > 100"))
        assert low < 0.1 < high

    def test_date_range(self, estimator):
        sel = estimator.conjunct(
            parse_expression("o_date >= DATE '1995-01-01'")
        )
        assert 0.8 < sel <= 1.0

    def test_equality_uses_ndv(self, estimator):
        sel = estimator.conjunct(parse_expression("o_status = 'OPEN'"))
        assert 0.2 < sel < 0.5  # Three statuses.

    def test_join_selectivity(self, estimator):
        sel = estimator.conjunct(parse_expression("o_custkey = c_custkey"))
        assert sel == pytest.approx(1.0 / 30, rel=0.2)

    def test_and_composes(self, estimator):
        a = estimator.conjunct(parse_expression("o_price > 2500"))
        b = estimator.conjunct(parse_expression("o_qty > 25"))
        both = estimator.conjunct(parse_expression("o_price > 2500 AND o_qty > 25"))
        assert both == pytest.approx(a * b)

    def test_between(self, estimator):
        sel = estimator.conjunct(parse_expression("o_discount BETWEEN 0 AND 10"))
        assert sel > 0.9


class TestDecryptionProfiler:
    def test_profiles_are_positive_and_ordered(self):
        provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
        profile = DecryptionProfiler.profile(provider)
        assert profile.det_int > 0
        assert profile.paillier > profile.hom_multiply
        # OPE decryption is the slow one (tree walk per value).
        assert profile.ope > profile.det_int

    def test_profile_cached(self):
        provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
        assert DecryptionProfiler.profile(provider) is DecryptionProfiler.profile(provider)

    def test_pinned_profile_is_returned_as_is(self):
        pinned = DecryptionProfile(
            det_int=1e-6, det_text=2e-6, ope=3e-6, rnd=4e-6, paillier=5e-6
        )
        provider = CryptoProvider(
            MASTER_KEY, paillier_bits=256, decryption_profile=pinned
        )
        assert DecryptionProfiler.profile(provider) is pinned

    @pytest.fixture
    def measured(self, monkeypatch) -> list:
        """Providers the profiler times, in call order."""
        calls: list = []
        real = DecryptionProfiler._measure

        def spy(provider, batch):
            calls.append(provider)
            return real(provider, batch)

        monkeypatch.setattr(DecryptionProfiler, "_measure", spy)
        return calls

    def test_pinned_profile_survives_pickling(self, measured):
        """A pin fixes plan choice on any host, so a shipped clone keeps it."""
        pinned = DecryptionProfile(
            det_int=1e-6, det_text=2e-6, ope=3e-6, rnd=4e-6, paillier=5e-6
        )
        provider = CryptoProvider(
            MASTER_KEY, paillier_bits=256, decryption_profile=pinned
        )
        clone = pickle.loads(pickle.dumps(provider))
        assert DecryptionProfiler.profile(clone) == pinned
        assert measured == []

    def test_measured_profile_is_not_shipped(self, measured):
        """A measured profile is host-specific timing: a clone re-times."""
        provider = CryptoProvider(MASTER_KEY, paillier_bits=256)
        DecryptionProfiler.profile(provider)
        clone = pickle.loads(pickle.dumps(provider))
        DecryptionProfiler.profile(clone)
        assert measured == [provider, clone]


class TestCostEstimator:
    @pytest.fixture(scope="class")
    def db(self):
        return build_sales_db(num_orders=200, seed=4)

    def test_bigger_tables_cost_more(self, db):
        estimator = CostEstimator(db)
        small = estimator.estimate(parse("SELECT c_name FROM customer"))
        big = estimator.estimate(
            parse("SELECT o_orderkey FROM orders")
        )
        assert big.cost_units > small.cost_units

    def test_table_bytes_override_scales_cost(self, db):
        plain = CostEstimator(db).estimate(parse("SELECT o_orderkey FROM orders"))
        doubled = CostEstimator(
            db, table_bytes_override={"orders": db.table("orders").total_bytes * 10}
        ).estimate(parse("SELECT o_orderkey FROM orders"))
        assert doubled.cost_units > plain.cost_units

    def test_selectivity_override(self, db):
        estimator = CostEstimator(db)
        query = parse("SELECT o_orderkey FROM orders WHERE o_price > 100")
        default = estimator.estimate(query)
        overridden = estimator.estimate(query, selectivity_override=0.01)
        assert overridden.rows < default.rows

    def test_group_estimate(self, db):
        estimator = CostEstimator(db)
        grouped = estimator.estimate(
            parse("SELECT o_custkey, SUM(o_price) FROM orders GROUP BY o_custkey")
        )
        assert 1 <= grouped.rows <= 100
        assert grouped.group_size > 1

    def test_plan_cost_components(self, db):
        provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
        model = MonomiCostModel(db, provider)
        from repro.core import Scheme, generate_query_plan
        from repro.core.candidates import base_design_for_plain

        design = base_design_for_plain(db)
        design.add("orders", "o_custkey", Scheme.DET)
        schemas = {name: t.schema for name, t in db.tables.items()}
        plan = generate_query_plan(
            normalize_query(parse("SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey")),
            design,
            schemas,
            provider,
        )
        cost = model.plan_cost(plan)
        assert cost.server_seconds > 0
        assert cost.transfer_seconds > 0
        assert cost.total_seconds == pytest.approx(
            cost.server_seconds + cost.transfer_seconds + cost.client_seconds
        )
