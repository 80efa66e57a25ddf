"""Resilience benchmark: fault-free overhead and recovery under chaos.

Two phases over one encrypted sales database, both equivalence-asserted
(identical plaintext rows and primary ledger byte counts everywhere —
retried work is accounted separately, never in the primary totals):

* **overhead** — the full resilience plumbing armed but idle: a rate-0
  chaos proxy wrapping each backend plus a generous per-query deadline,
  versus the bare client.  The per-query cost is one seeded RNG draw per
  request/block and a monotonic-clock check per block, so the measured
  overhead must stay **under 3%** (asserted).  Bare and armed passes of
  the workload alternate in ABBA order, and the overhead is the median
  over rounds of the armed pass time over the bare pass beside it, so a
  stretch in which the machine runs slow lands on both sides of a ratio.
* **chaos_sweep** — fault rates swept over the workload on both
  backends with a fixed seed; reports wall-clock inflation, retries, and
  retry bytes as the injected fault rate grows, asserting byte-identical
  results at every point.

Writes ``benchmarks/results/faults.json`` by default.  Run:

    PYTHONPATH=src python benchmarks/bench_faults.py          # full
    PYTHONPATH=src python benchmarks/bench_faults.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

from repro.core import CryptoProvider, MonomiClient
from repro.server import FaultInjectingBackend
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db, canonical

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Far-future per-query deadline for the overhead phase: the deadline
#: machinery runs (armed, checked per block) without ever firing.
IDLE_TIMEOUT_SECONDS = 3600.0

OVERHEAD_LIMIT_PCT = 3.0

#: Timed workload passes per side in the overhead phase (ABBA rounds).
OVERHEAD_ROUNDS = 100


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


def chaos_client(base: MonomiClient, seed: int, rate: float) -> MonomiClient:
    """``base`` re-wrapped behind a seeded chaos proxy."""
    return MonomiClient(
        base.plain_db,
        base.design,
        base.provider,
        FaultInjectingBackend(base.backend, seed=seed, rate=rate),
        base.flags,
        base.network,
        base.disk,
    )


def serial_references(client) -> dict[str, tuple]:
    return {
        sql: (canonical(outcome.rows), ledger_bytes(outcome.ledger))
        for sql, outcome in (
            (sql, client.execute(sql)) for sql in SALES_WORKLOAD
        )
    }


def _pass_seconds(run_query, references) -> float:
    """Seconds one pass of the workload spends executing; every result is
    equivalence-checked against the serial references, outside the
    timing."""
    elapsed = 0.0
    for sql in SALES_WORKLOAD:
        start = time.perf_counter()
        outcome = run_query(sql)
        elapsed += time.perf_counter() - start
        want_rows, want_ledger = references[sql]
        assert canonical(outcome.rows) == want_rows, sql
        assert ledger_bytes(outcome.ledger) == want_ledger, sql
    return elapsed


def bench_overhead(clients: dict[str, MonomiClient], rounds: int) -> list[dict]:
    points = []
    for backend, client in clients.items():
        references = serial_references(client)
        armed_client = chaos_client(client, seed=0, rate=0.0)
        sides = {
            "bare": client.execute,
            "armed": lambda sql: armed_client.execute(
                sql, timeout=IDLE_TIMEOUT_SECONDS
            ),
        }
        times: dict[str, list[float]] = {"bare": [], "armed": []}
        for run_query in sides.values():  # warmup: lazy init out of the timing
            _pass_seconds(run_query, references)
        for index in range(rounds):
            order = ("bare", "armed") if index % 2 == 0 else ("armed", "bare")
            for side in order:
                times[side].append(_pass_seconds(sides[side], references))
        bare = statistics.median(times["bare"])
        armed = statistics.median(times["armed"])
        ratios = [a / b for a, b in zip(times["armed"], times["bare"])]
        overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)
        stats = armed_client.backend.stats()
        assert stats["injected_errors"] == 0 and stats["truncations"] == 0
        points.append(
            {
                "backend": backend,
                "rounds": rounds,
                "bare_seconds": bare,
                "armed_seconds": armed,
                "overhead_pct": overhead_pct,
                "chaos_draws": stats["draws"],
            }
        )
        print(
            f"  {backend:7s}: median pass bare {bare * 1e3:.2f}ms -> armed "
            f"{armed * 1e3:.2f}ms over {rounds} ABBA rounds "
            f"({overhead_pct:+.2f}%, {stats['draws']} idle draws)"
        )
        assert overhead_pct < OVERHEAD_LIMIT_PCT, (
            f"{backend}: fault-free resilience overhead {overhead_pct:.2f}% "
            f"exceeds the {OVERHEAD_LIMIT_PCT}% budget"
        )
    return points


def bench_chaos_sweep(
    clients: dict[str, MonomiClient], rates: list[float], seed: int
) -> list[dict]:
    points = []
    for backend, client in clients.items():
        references = serial_references(client)
        baseline_seconds = None
        for rate in rates:
            injected = chaos_client(client, seed=seed, rate=rate)
            retries = retry_bytes = 0
            start = time.perf_counter()
            for sql in SALES_WORKLOAD:
                outcome = injected.execute(sql)
                want_rows, want_ledger = references[sql]
                assert canonical(outcome.rows) == want_rows, (backend, rate, sql)
                assert ledger_bytes(outcome.ledger) == want_ledger, (
                    backend,
                    rate,
                    sql,
                )
                retries += outcome.ledger.retries
                retry_bytes += outcome.ledger.retry_bytes
            elapsed = time.perf_counter() - start
            if rate == 0.0:
                baseline_seconds = elapsed
            stats = injected.backend.stats()
            points.append(
                {
                    "backend": backend,
                    "rate": rate,
                    "elapsed_seconds": elapsed,
                    "slowdown": elapsed / baseline_seconds
                    if baseline_seconds
                    else 1.0,
                    "retries": retries,
                    "retry_bytes": retry_bytes,
                    "injected_errors": stats["injected_errors"],
                    "truncations": stats["truncations"],
                    "latency_spikes": stats["latency_spikes"],
                }
            )
            print(
                f"  {backend:7s} rate={rate:<5}: {elapsed:.3f}s "
                f"(x{points[-1]['slowdown']:.2f}), {retries} retries, "
                f"{retry_bytes} retry bytes, "
                f"{stats['injected_errors']}+{stats['truncations']} faults"
            )
    return points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    if args.quick:
        num_orders, paillier_bits = 120, 256
        rates = [0.0, 0.1]
    else:
        num_orders, paillier_bits = 400, 512
        rates = [0.0, 0.05, 0.1, 0.2]

    print(
        f"fault benchmark: {num_orders} orders, {paillier_bits}-bit "
        f"Paillier, cpu_count={os.cpu_count()}"
    )
    clients = build_clients(num_orders, paillier_bits)

    print("fault-free overhead (rate-0 chaos + armed deadline):")
    overhead = bench_overhead(clients, OVERHEAD_ROUNDS)
    print("chaos sweep (seed 7):")
    sweep = bench_chaos_sweep(clients, rates, seed=7)

    payload = {
        "benchmark": "faults",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "num_orders": num_orders,
        "paillier_bits": paillier_bits,
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
        "overhead": overhead,
        "chaos_sweep": sweep,
    }
    if args.out:
        out_path = pathlib.Path(args.out)
    else:
        out_path = REPO_ROOT / "benchmarks" / "results" / "faults.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
