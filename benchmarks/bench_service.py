"""Service-layer benchmark: throughput vs session count, plan-cache speedup.

Three phases over one encrypted sales database, all equivalence-asserted
against serial execution (identical plaintext rows and ledger byte
counts at every point — the sweep measures scheduling only):

* **session_sweep** — N sessions (N = 1, 2, 4, 8) each replay the sales
  workload concurrently through ``MonomiService``; reports queries/sec
  per backend.  On a 1-core host the sweep exercises the machinery
  (worker views, plan cache, per-session ledgers) without showing
  speedup — ``cpu_count`` is recorded alongside, as in BENCH_PR4.
* **plan_cache** — cold (planner runs) vs warm (cache hit) latency per
  workload query; reports the planning seconds a hit saves and verifies
  the planner is not re-invoked on the warm pass.
* **prepared** — ad-hoc execution (a plan-cache miss per value) vs the
  same bindings through a prepared statement (text-level hits in the
  same cache); asserts rows and ledger bytes match ad-hoc execution for
  every value and that the planner runs once per distinct binding.

Writes ``BENCH_PR5.json`` (repo root by default).  Run:

    PYTHONPATH=src python benchmarks/bench_service.py          # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core import CryptoProvider, MonomiClient
from repro.sql import parse
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db, canonical

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PREPARED_TEMPLATE = (
    "SELECT o_custkey, SUM(o_price) AS rev FROM orders "
    "WHERE o_price > :p GROUP BY o_custkey"
)


def ledger_bytes(ledger) -> tuple[int, int, int]:
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


def build_clients(num_orders: int, paillier_bits: int) -> dict[str, MonomiClient]:
    db = build_sales_db(num_orders)
    provider = CryptoProvider(MASTER_KEY, paillier_bits=paillier_bits)
    memory = MonomiClient.setup(
        db,
        SALES_WORKLOAD,
        provider=provider,
        paillier_bits=paillier_bits,
        space_budget=2.5,
    )
    sqlite = MonomiClient.setup(
        db,
        SALES_WORKLOAD,
        provider=provider,
        paillier_bits=paillier_bits,
        space_budget=2.5,
        design=memory.design,
        backend="sqlite",
    )
    return {"memory": memory, "sqlite": sqlite}


def serial_references(client) -> dict[str, tuple]:
    return {
        sql: (canonical(outcome.rows), ledger_bytes(outcome.ledger))
        for sql, outcome in (
            (sql, client.execute(sql)) for sql in SALES_WORKLOAD
        )
    }


def bench_session_sweep(
    clients: dict[str, MonomiClient], session_counts: list[int], repeats: int
) -> list[dict]:
    points = []
    for backend, client in clients.items():
        # The serial references plan every statement into the client's
        # plan cache, which the service shares: the sweep measures
        # execution scheduling, not first-plan latency (reported
        # separately).
        references = serial_references(client)
        for sessions in session_counts:
            before = client.plan_cache.stats()
            with client.service(workers=sessions) as service:
                handles = [service.open_session() for _ in range(sessions)]
                start = time.perf_counter()
                futures = [
                    (sql, session.submit(sql))
                    for session in handles
                    for _ in range(repeats)
                    for sql in SALES_WORKLOAD
                ]
                for sql, future in futures:
                    outcome = future.result()
                    want_rows, want_ledger = references[sql]
                    assert canonical(outcome.rows) == want_rows, (backend, sql)
                    assert ledger_bytes(outcome.ledger) == want_ledger, (
                        backend,
                        sql,
                    )
                elapsed = time.perf_counter() - start
                cache = service.stats().plan_cache
            hit_rate = (cache.hits - before.hits) / len(futures)
            points.append(
                {
                    "backend": backend,
                    "sessions": sessions,
                    "queries": len(futures),
                    "elapsed_seconds": elapsed,
                    "queries_per_second": len(futures) / elapsed,
                    "plan_cache_hit_rate": hit_rate,
                }
            )
            print(
                f"  {backend:7s} sessions={sessions}: "
                f"{points[-1]['queries_per_second']:8.1f} q/s "
                f"({len(futures)} queries in {elapsed:.2f}s, "
                f"hit rate {hit_rate:.2f})"
            )
    return points


class PlannerMeter:
    """Wraps ``planner.plan`` to count invocations and time them."""

    def __init__(self, client) -> None:
        self._client = client
        self._original = client.planner.plan
        self.calls = 0
        self.seconds = 0.0

    def __enter__(self) -> "PlannerMeter":
        def timed_plan(query):
            start = time.perf_counter()
            try:
                return self._original(query)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        self._client.planner.plan = timed_plan
        return self

    def __exit__(self, *exc_info) -> None:
        self._client.planner.plan = self._original


def bench_plan_cache(client) -> dict:
    """Cold vs warm latency, with the planner component isolated.

    End-to-end latency includes execution (identical either way), so the
    headline number is the planning seconds a cache hit removes — that
    holds on any host, however fast the executor is.  The cold pass starts
    from an empty plan cache: the client's, which the service shares.
    """
    client.plan_cache.clear()
    before = client.plan_cache.stats()
    with client.service(workers=1) as service:
        with PlannerMeter(client) as meter:
            cold, warm = [], []
            outcomes = {}
            for sql in SALES_WORKLOAD:
                start = time.perf_counter()
                outcomes[sql] = service.execute(sql)
                cold.append(time.perf_counter() - start)
            calls_after_cold = meter.calls
            cold_plan_seconds = meter.seconds
            for sql in SALES_WORKLOAD:
                start = time.perf_counter()
                repeat = service.execute(sql)
                warm.append(time.perf_counter() - start)
                assert canonical(repeat.rows) == canonical(outcomes[sql].rows)
                assert ledger_bytes(repeat.ledger) == ledger_bytes(
                    outcomes[sql].ledger
                )
            assert calls_after_cold == len(SALES_WORKLOAD)
            assert meter.calls == calls_after_cold  # warm pass: zero plans
            stats = service.stats().plan_cache
    hits = stats.hits - before.hits
    misses = stats.misses - before.misses
    result = {
        "queries": len(SALES_WORKLOAD),
        "cold_seconds": sum(cold),
        "warm_seconds": sum(warm),
        "cold_planning_seconds": cold_plan_seconds,
        "planning_seconds_saved_per_hit": cold_plan_seconds
        / len(SALES_WORKLOAD),
        "end_to_end_speedup": sum(cold) / max(sum(warm), 1e-9),
        "hits": hits,
        "misses": misses,
    }
    print(
        f"  plan cache: cold {result['cold_seconds']:.3f}s (planning "
        f"{cold_plan_seconds:.3f}s) -> warm {result['warm_seconds']:.3f}s; "
        f"a hit saves {result['planning_seconds_saved_per_hit'] * 1e3:.1f} "
        f"ms of planning ({hits} hits / {misses} misses)"
    )
    return result


def bench_prepared(client, values: list[int]) -> dict:
    with client.service(workers=1) as service:
        with PlannerMeter(client) as meter:
            adhoc_seconds = 0.0
            adhoc = {}
            for value in values:
                start = time.perf_counter()
                adhoc[value] = client.execute(PREPARED_TEMPLATE, {"p": value})
                adhoc_seconds += time.perf_counter() - start
            adhoc_plan_seconds = meter.seconds
            statement = service.prepare(PREPARED_TEMPLATE)
            prepared_seconds = 0.0
            for value in values:
                start = time.perf_counter()
                outcome = service.execute_prepared(statement, {"p": value})
                prepared_seconds += time.perf_counter() - start
                want = adhoc[value]
                assert canonical(outcome.rows) == canonical(want.rows)
                assert ledger_bytes(outcome.ledger) == ledger_bytes(want.ledger)
            # A binding is a plan-cache entry like any statement: the
            # planner ran once per distinct binding, all on the ad-hoc pass.
            assert meter.calls == len(set(values))
    per_adhoc = adhoc_seconds / len(values)
    per_prepared = prepared_seconds / len(values)
    per_adhoc_plan = adhoc_plan_seconds / len(values)
    result = {
        "values": len(values),
        "adhoc_seconds_per_query": per_adhoc,
        "adhoc_planning_seconds_per_query": per_adhoc_plan,
        "prepared_seconds_per_query": per_prepared,
        "end_to_end_speedup": per_adhoc / max(per_prepared, 1e-9),
    }
    print(
        f"  prepared: ad-hoc {per_adhoc * 1e3:.1f} ms/query "
        f"(planning {per_adhoc_plan * 1e3:.1f} ms) -> prepared "
        f"{per_prepared * 1e3:.1f} ms/query (plan-cache hits)"
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    if args.quick:
        num_orders, paillier_bits = 120, 256
        session_counts, repeats = [1, 2, 4], 1
        prepared_values = [400, 900, 2200]
    else:
        num_orders, paillier_bits = 400, 512
        session_counts, repeats = [1, 2, 4, 8], 3
        prepared_values = [200, 400, 900, 1500, 2200, 3000, 4100]

    print(
        f"service benchmark: {num_orders} orders, {paillier_bits}-bit "
        f"Paillier, cpu_count={os.cpu_count()}"
    )
    clients = build_clients(num_orders, paillier_bits)
    # Parse check: the prepared template is valid before any timing runs.
    parse(PREPARED_TEMPLATE)

    print("session sweep:")
    sweep = bench_session_sweep(clients, session_counts, repeats)
    print("plan cache (memory backend):")
    plan_cache = bench_plan_cache(clients["memory"])
    print("prepared statements (memory backend):")
    prepared = bench_prepared(clients["memory"], prepared_values)

    payload = {
        "benchmark": "service",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "num_orders": num_orders,
        "paillier_bits": paillier_bits,
        "session_sweep": sweep,
        "plan_cache": plan_cache,
        "prepared": prepared,
    }
    out_path = pathlib.Path(args.out) if args.out else REPO_ROOT / "BENCH_PR5.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
