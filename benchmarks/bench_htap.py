"""HTAP benchmark: encrypted DML interleaved with analytics (PR 10).

A deterministic mixed workload — INSERT/UPDATE/DELETE batches alternating
with the analytic sales queries — runs on three backends (in-memory,
SQLite, and a 2-shard in-memory deployment) while a plaintext oracle is
kept in lockstep through ``testkit.apply_plain_dml``.  Everything is
equivalence-asserted, so the perf numbers are only reported if the write
path is *correct*:

* every statement's ``rows_affected`` matches the oracle;
* a freshness probe (one analytic query) matches the oracle after every
  single write — inserted rows are visible to hom aggregation at once;
* the per-operation trace (rows affected, probe rows, ledger byte
  counts) is byte-identical across all three backends;
* the incrementally maintained Paillier aggregate (MRV split counters)
  equals the scanning SUM query and survives a zero-sum re-balance.

Phases in the JSON payload:

* ``mixed``      — per-backend wall-clock split into insert / update /
                   delete / analytics buckets;
* ``maintained`` — read latency of the maintained aggregate (one
                   ``hom_read`` of the split vector, folded mod n² and
                   decrypted once) vs the scanning encrypted SUM query.

Writes ``BENCH_PR10.json`` (repo root by default).  Run:

    PYTHONPATH=src python benchmarks/bench_htap.py          # full
    PYTHONPATH=src python benchmarks/bench_htap.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time

from repro.core import (
    CryptoProvider,
    HomGroup,
    MaintainedAggregates,
    MonomiClient,
    normalize_query,
)
from repro.core.schemes import Scheme
from repro.engine import Executor
from repro.sql import parse
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    apply_plain_dml,
    build_sales_db,
    canonical,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


def pinned_design(db, provider):
    """The sales design with the orders hom groups pinned.

    The designer's hom choice depends on its launch-time decryption
    profile (a timing measurement); the benchmark pins one single-column
    and one two-column packed file so every run maintains the same
    ciphertexts.
    """
    donor = MonomiClient.setup(
        db,
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
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
    design.add_hom_group(HomGroup("orders", ("o_price",), rows_per_ciphertext=8))
    design.add_hom_group(
        HomGroup("orders", ("o_price * o_qty", "o_qty"), rows_per_ciphertext=4)
    )
    return design


def build_clients(num_orders: int, paillier_bits: int):
    db = build_sales_db(num_orders)
    provider = CryptoProvider(MASTER_KEY, paillier_bits=paillier_bits)
    design = pinned_design(db, provider)

    def make(backend: str, shards: int = 1):
        return MonomiClient.setup(
            build_sales_db(num_orders),
            SALES_WORKLOAD,
            master_key=MASTER_KEY,
            space_budget=2.5,
            provider=provider,
            design=design,
            backend=backend,
            shards=shards,
        )

    clients = {
        "memory": make("memory"),
        "sqlite": make("sqlite"),
        "memory-x2": make("memory", 2),
    }
    return clients, make


class OpStream:
    """Deterministic DML statement stream with width-safe values.

    Hom layouts freeze each packed column's bit width at load time, so
    generated prices/quantities are capped to the initial data's maxima
    (prices only ever decrease in updates; products of fresh rows stay
    under the observed product maximum).
    """

    def __init__(self, oracle, seed: int) -> None:
        self.rng = random.Random(seed)
        rows = oracle.table("orders").rows
        self.next_key = max(r[0] for r in rows) + 1
        self.max_price = max(r[2] for r in rows)
        self.max_qty = max(r[3] for r in rows)
        self.max_product = max(r[2] * r[3] for r in rows)

    def insert(self) -> tuple[str, dict]:
        values = []
        for _ in range(3):
            price = self.rng.randint(10, self.max_price)
            qty = self.rng.randint(
                1, max(1, min(self.max_qty, self.max_product // price))
            )
            values.append(
                f"({self.next_key}, {self.rng.randint(1, 30)}, {price}, "
                f"{qty}, {self.rng.randint(0, 10)}, DATE '1997-01-01', "
                f"'OPEN', 'htap batch row')"
            )
            self.next_key += 1
        return "INSERT INTO orders VALUES " + ", ".join(values), {}

    def update(self) -> tuple[str, dict]:
        discount = self.rng.randint(1, 9)
        return (
            "UPDATE orders SET o_price = o_price - :d "
            "WHERE o_price >= :lo AND o_custkey = :c",
            {"d": discount, "lo": discount + 10, "c": self.rng.randint(1, 30)},
        )

    def delete(self) -> tuple[str, dict]:
        return (
            "DELETE FROM orders WHERE o_custkey = :c AND o_qty <= :q",
            {"c": self.rng.randint(1, 30), "q": self.rng.randint(1, 25)},
        )


def run_mixed(client, oracle, cycles: int, seed: int):
    """One mixed stream on one backend; returns (point, trace)."""
    stream = OpStream(oracle, seed)
    plain = Executor(oracle)
    buckets = {"insert": 0.0, "update": 0.0, "delete": 0.0, "analytics": 0.0}
    affected = {"insert": 0, "update": 0, "delete": 0}
    trace = []
    for cycle in range(cycles):
        for kind, op in (
            ("insert", stream.insert),
            ("update", stream.update),
            ("delete", stream.delete),
        ):
            sql, params = op()
            start = time.perf_counter()
            outcome = client.execute(sql, params)
            buckets[kind] += time.perf_counter() - start
            expected = apply_plain_dml(oracle, sql, params)
            assert outcome.rows == [(expected,)], (kind, sql)
            affected[kind] += expected

            probe = SALES_WORKLOAD[(cycle * 3 + len(trace)) % len(SALES_WORKLOAD)]
            start = time.perf_counter()
            probe_outcome = client.execute(probe)
            buckets["analytics"] += time.perf_counter() - start
            probe_rows = canonical(probe_outcome.rows)
            want = canonical(plain.execute(normalize_query(parse(probe))).rows)
            assert probe_rows == want, ("stale analytics after", kind, sql)
            trace.append(
                (
                    expected,
                    ledger_bytes(outcome.ledger),
                    probe_rows,
                    ledger_bytes(probe_outcome.ledger),
                )
            )
    point = {
        "cycles": cycles,
        "inserted_rows": affected["insert"],
        "updated_rows": affected["update"],
        "deleted_rows": affected["delete"],
        "insert_seconds": buckets["insert"],
        "update_seconds": buckets["update"],
        "delete_seconds": buckets["delete"],
        "analytics_seconds": buckets["analytics"],
        "total_seconds": sum(buckets.values()),
    }
    return point, trace


def bench_mixed(clients, num_orders: int, cycles: int, seed: int):
    points = []
    reference_trace = None
    final_rows = None
    for backend, client in clients.items():
        oracle = build_sales_db(num_orders)
        point, trace = run_mixed(client, oracle, cycles, seed)
        point = {"backend": backend, **point}
        if reference_trace is None:
            reference_trace = trace
            final_rows = canonical(oracle.table("orders").rows)
        else:
            assert trace == reference_trace, (
                f"{backend}: per-op trace diverged from the in-memory "
                "reference (rows_affected / probe rows / ledger bytes)"
            )
        assert canonical(client.plain_db.table("orders").rows) == final_rows
        points.append(point)
        print(
            f"  {backend:9s}: {point['total_seconds']:.3f}s total "
            f"(ins {point['insert_seconds']:.3f}s / "
            f"upd {point['update_seconds']:.3f}s / "
            f"del {point['delete_seconds']:.3f}s / "
            f"read {point['analytics_seconds']:.3f}s), "
            f"+{point['inserted_rows']}/~{point['updated_rows']}"
            f"/-{point['deleted_rows']} rows"
        )
    return points


def bench_maintained(make, num_orders: int, cycles: int, seed: int, repeats: int):
    """Maintained split-counter reads vs the scanning encrypted SUM."""
    client = make("memory")  # fresh: the mixed phase mutated the others
    oracle = build_sales_db(num_orders)
    run_mixed(client, oracle, cycles, seed)  # warm state drifted from load
    aggs = MaintainedAggregates(client, splits=4, seed=seed)
    aggs.register("revenue", "orders", "o_price")
    stream = OpStream(oracle, seed + 1)
    for _ in range(cycles):
        for op in (stream.insert, stream.update, stream.delete):
            sql, params = op()
            client.execute(sql, params)
            apply_plain_dml(oracle, sql, params)
    expected = sum(r[2] for r in oracle.table("orders").rows)

    incremental = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = aggs.value("revenue")
        incremental = min(incremental, time.perf_counter() - start)
        assert value == expected
    scan = float("inf")
    scan_sql = "SELECT SUM(o_price) FROM orders"
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = client.execute(scan_sql)
        scan = min(scan, time.perf_counter() - start)
        assert outcome.rows == [(expected,)]
    aggs.balance_now("revenue")
    assert aggs.value("revenue") == expected  # zero-sum re-level
    values = aggs.split_values("revenue")
    assert max(values) - min(values) <= 1
    point = {
        "splits": aggs.splits,
        "incremental_read_seconds": incremental,
        "scan_query_seconds": scan,
        "speedup": scan / incremental if incremental > 0 else float("inf"),
    }
    print(
        f"  maintained read {incremental * 1e3:.2f}ms vs scan "
        f"{scan * 1e3:.2f}ms (x{point['speedup']:.1f}), "
        f"splits level after balance"
    )
    return point


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    # Order counts sit just past a power of two: the loader sizes the hom
    # files' overflow headroom (pad_bits) from the initial row count, and
    # the row space only grows under DML — 70 rows pads to 128, leaving
    # plenty of insert headroom, where 60 would pad to a tight 64.
    if args.quick:
        num_orders, paillier_bits, cycles, repeats = 70, 256, 4, 3
    else:
        num_orders, paillier_bits, cycles, repeats = 260, 512, 10, 5

    print(
        f"HTAP benchmark: {num_orders} orders, {paillier_bits}-bit "
        f"Paillier, {cycles} DML cycles, cpu_count={os.cpu_count()}"
    )
    clients, make = build_clients(num_orders, paillier_bits)

    print("mixed DML + analytics (freshness-asserted, trace-equal):")
    mixed = bench_mixed(clients, num_orders, cycles, seed=1010)
    print("maintained aggregate vs scanning SUM:")
    maintained = bench_maintained(
        make, num_orders, cycles, seed=2020, repeats=repeats
    )

    payload = {
        "benchmark": "htap",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "num_orders": num_orders,
        "paillier_bits": paillier_bits,
        "mixed": mixed,
        "maintained": maintained,
    }
    out_path = pathlib.Path(args.out) if args.out else REPO_ROOT / "BENCH_PR10.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
