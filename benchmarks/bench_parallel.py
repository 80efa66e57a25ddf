"""Multicore benchmark: worker-pool crypto.

Sweeps the worker count over the two phases the paper's client is
throughput-bound on (§8, Fig. 7), asserting at every point that parallel
execution is **equivalent** to serial — identical plaintext rows,
identical ledger byte counts, identical encrypted heap sizes — so the
sweep measures wall-clock only:

* **bulk_load** — ``EncryptedLoader.load_into`` with
  ``CryptoProvider(workers=N)``: every column batch shards across the
  process pool;
* **client_decrypt** — DET/OPE/RND and CRT-Paillier ``*_decrypt_batch``
  over result-sized ciphertext columns;
* **end_to_end** — full encrypted queries through ``MonomiClient``,
  serial vs pooled provider, rows and ledgers compared.

Speedups are relative to ``workers=1`` on the same host; the recorded
``cpu_count`` says how many cores were actually available (a 1-core CI
runner exercises the machinery but cannot show speedup — the ≥2x figures
in BENCH_PR4.json are meaningful on >=4 cores).

Writes ``BENCH_PR4.json`` (repo root by default).  Run:

    PYTHONPATH=src python benchmarks/bench_parallel.py          # full
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

from repro.core import CryptoProvider, EncryptedLoader, MonomiClient
from repro.server import make_backend
from repro.testkit import MASTER_KEY, build_sales_db, canonical

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOAD = [
    "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
    "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC",
    "SELECT o_orderkey, o_price, o_qty FROM orders WHERE o_price > 1500",
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
]


def ledger_bytes(ledger) -> tuple:
    return (ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips)


def make_provider(workers: int, paillier_bits: int, min_batch: int) -> CryptoProvider:
    provider = CryptoProvider(
        MASTER_KEY, paillier_bits=paillier_bits, workers=workers
    )
    provider.parallel_min_batch = min_batch
    return provider


def bench_bulk_load(db, design, providers) -> list[dict]:
    """Encrypt + load the whole database once per worker count."""
    points = []
    reference_sizes = None
    for workers, provider in providers.items():
        backend = make_backend("memory")
        start = time.perf_counter()
        EncryptedLoader(db, provider).load_into(backend, design)
        elapsed = time.perf_counter() - start
        sizes = {n: backend.table_bytes(n) for n in backend.table_names()}
        if reference_sizes is None:
            reference_sizes = sizes
        else:
            assert sizes == reference_sizes, "parallel load changed heap sizes"
        points.append({"workers": workers, "load_seconds": round(elapsed, 6)})
    base = points[0]["load_seconds"]
    for point in points:
        point["speedup"] = round(base / max(point["load_seconds"], 1e-9), 2)
    return points


def bench_client_decrypt(providers, num_values: int, hom_values: int) -> list[dict]:
    """Batch decryption sweeps: DET/OPE/RND columns + CRT Paillier."""
    serial = providers[1]
    ints = [i * 7919 % 1_000_003 for i in range(num_values)]
    texts = [f"customer-{i % 4096:05d}" for i in range(num_values)]
    det_int_cts = serial.det_encrypt_batch(ints)
    det_text_cts = serial.det_encrypt_batch(texts)
    ope_cts = serial.ope_encrypt_batch(ints)
    rnd_cts = serial.rnd_encrypt_batch(ints)
    hom_msgs = [i * 31 + 1 for i in range(hom_values)]
    hom_cts = serial.paillier_encrypt_batch(hom_msgs)

    expected = {
        "det_int": ints,
        "det_text": texts,
        "ope": ints,
        "rnd": ints,
        "paillier": hom_msgs,
    }
    points = []
    for workers, provider in providers.items():
        timings = {}
        outputs = {}
        start = time.perf_counter()
        outputs["det_int"] = provider.det_decrypt_batch(det_int_cts, "int")
        timings["det_int_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        outputs["det_text"] = provider.det_decrypt_batch(det_text_cts, "text")
        timings["det_text_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        outputs["ope"] = provider.ope_decrypt_batch(ope_cts, "int")
        timings["ope_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        outputs["rnd"] = provider.rnd_decrypt_batch(rnd_cts)
        timings["rnd_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        outputs["paillier"] = provider.paillier_decrypt_batch(hom_cts)
        timings["paillier_seconds"] = time.perf_counter() - start
        for name, plain in expected.items():
            assert outputs[name] == plain, f"{name} diverged at workers={workers}"
        timings["total_decrypt_seconds"] = sum(timings.values())
        points.append(
            {"workers": workers}
            | {k: round(v, 6) for k, v in timings.items()}
        )
    base = points[0]["total_decrypt_seconds"]
    for point in points:
        point["speedup"] = round(
            base / max(point["total_decrypt_seconds"], 1e-9), 2
        )
    return points


def bench_end_to_end(db, design, providers, paillier_bits: int) -> list[dict]:
    """Full encrypted queries: pooled providers vs the serial reference."""
    reference: dict[str, tuple] = {}
    points = []
    for workers, provider in providers.items():
        client = MonomiClient.setup(
            db,
            WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=paillier_bits,
            space_budget=2.5,
            provider=provider,
            design=design,
        )
        start = time.perf_counter()
        for sql in WORKLOAD:
            outcome = client.execute(sql)
            key = (canonical(outcome.rows), ledger_bytes(outcome.ledger))
            if workers == 1:
                reference[sql] = key
            else:
                assert key == reference[sql], (
                    f"workers={workers} diverged on {sql!r}"
                )
        elapsed = time.perf_counter() - start
        points.append({"workers": workers, "query_seconds": round(elapsed, 6)})
    base = points[0]["query_seconds"]
    for point in points:
        point["speedup"] = round(base / max(point["query_seconds"], 1e-9), 2)
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny keys/data")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR4.json"))
    args = parser.parse_args(argv)

    worker_counts = [1, 2] if args.quick else [1, 2, 4]
    num_orders = 300 if args.quick else 1500
    paillier_bits = 256 if args.quick else 768
    num_values = 4_000 if args.quick else 24_000
    hom_values = 64 if args.quick else 512
    min_batch = 64

    print(
        f"[bench_parallel] workers={worker_counts} orders={num_orders} "
        f"paillier={paillier_bits} bits cpus={os.cpu_count()}"
    )
    db = build_sales_db(num_orders=num_orders)
    design_client = MonomiClient.setup(
        db,
        WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=paillier_bits,
        space_budget=2.5,
        provider=make_provider(1, paillier_bits, min_batch),
    )
    design = design_client.design
    # Fresh providers for every sweep point — including workers=1 — so no
    # point starts with LRU caches warmed by the design/load above.
    providers = {
        workers: make_provider(workers, paillier_bits, min_batch)
        for workers in worker_counts
    }

    results: dict = {
        "benchmark": "bench_parallel",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "worker_counts": worker_counts,
        "num_orders": num_orders,
        "paillier_bits": paillier_bits,
        "bulk_load": bench_bulk_load(db, design, providers),
        "client_decrypt": bench_client_decrypt(providers, num_values, hom_values),
        "end_to_end": bench_end_to_end(db, design, providers, paillier_bits),
    }
    for phase in ("bulk_load", "client_decrypt", "end_to_end"):
        for point in results[phase]:
            print(f"  {phase:>16} workers={point['workers']}: {point}")
    print("  all parallel modes agree with serial (rows, ledgers, heap sizes)")

    for provider in providers.values():
        provider.close()
    design_client.provider.close()
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench_parallel] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
