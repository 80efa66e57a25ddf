"""OPE/DET hot-path benchmark: scalar loops vs column-batch crypto.

BENCH_PR4 showed client decryption throughput-bound on OPE: 24 000
values took ~9 s to decrypt one ciphertext at a time, each walking the
full BCLO descent tree alone.  PR 8 added shared-tree batch descent,
cross-query pivot memoization and HMAC pad-state templates; this
benchmark measures all three against the scalar path on the *same*
workload BENCH_PR4 recorded (``client_decrypt``, 24 000 ints of ~1M
cardinality, texts of 4 096 cardinality), then sweeps rows x
cardinality to show where the amortization comes from.

Every timed point is equivalence-asserted: batch output must be
element-wise identical to the scalar loop on a fresh provider, cold and
warm caches alike.  The speedup is therefore pure wall-clock — no
semantic drift.

Writes ``BENCH_PR8.json`` (repo root by default).  Run:

    PYTHONPATH=src python benchmarks/bench_ope.py          # full
    PYTHONPATH=src python benchmarks/bench_ope.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

from repro.core import CryptoProvider
from repro.testkit import MASTER_KEY

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PAILLIER_BITS = 256  # Paillier is untouched here; keep setup cheap.


def fresh_provider() -> CryptoProvider:
    return CryptoProvider(MASTER_KEY, paillier_bits=PAILLIER_BITS)


def pr4_workload(num_values: int) -> tuple[list[int], list[str]]:
    """The exact column recipes BENCH_PR4's client_decrypt phase used."""
    ints = [i * 7919 % 1_000_003 for i in range(num_values)]
    texts = [f"customer-{i % 4096:05d}" for i in range(num_values)]
    return ints, texts


def bench_client_decrypt(num_values: int) -> list[dict]:
    """Scalar-vs-batch on the BENCH_PR4 client_decrypt workload.

    The scalar point decrypts one value at a time (per-value tree walks,
    no batch dedup) on a fresh provider; the batch point uses the column
    APIs on another fresh provider whose pivot cache was warmed only by
    the encryption pass — the load-then-query shape a real client sees.
    """
    ints, texts = pr4_workload(num_values)
    points = []

    scalar = fresh_provider()
    ope_cts = scalar.ope_encrypt_batch(ints)
    det_text_cts = scalar.det_encrypt_batch(texts)
    scalar.reset_crypto_caches()
    start = time.perf_counter()
    scalar_ope = [scalar.ope_decrypt(c, "int") for c in ope_cts]
    scalar_ope_s = time.perf_counter() - start
    start = time.perf_counter()
    scalar_text = [scalar.det_decrypt(c, "text") for c in det_text_cts]
    scalar_text_s = time.perf_counter() - start
    assert scalar_ope == ints and scalar_text == texts
    points.append(
        {
            "label": "scalar",
            "ope_seconds": round(scalar_ope_s, 6),
            "det_text_seconds": round(scalar_text_s, 6),
        }
    )

    batch = fresh_provider()
    batch_ope_cts = batch.ope_encrypt_batch(ints)
    batch_text_cts = batch.det_encrypt_batch(texts)
    assert batch_ope_cts == ope_cts and batch_text_cts == det_text_cts
    batch._ope_dec_cache.clear()
    batch._det_cache.clear()
    start = time.perf_counter()
    batch_ope = batch.ope_decrypt_batch(batch_ope_cts, "int")
    batch_ope_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_text = batch.det_decrypt_batch(batch_text_cts, "text")
    batch_text_s = time.perf_counter() - start
    assert batch_ope == scalar_ope and batch_text == scalar_text
    points.append(
        {
            "label": "batch",
            "ope_seconds": round(batch_ope_s, 6),
            "det_text_seconds": round(batch_text_s, 6),
            "ope_speedup": round(scalar_ope_s / max(batch_ope_s, 1e-9), 2),
            "det_text_speedup": round(
                scalar_text_s / max(batch_text_s, 1e-9), 2
            ),
        }
    )
    return points


def bench_sweep(row_counts: list[int], cardinalities: list[int | None]) -> list[dict]:
    """Batch encrypt+decrypt across rows x cardinality.

    Cardinality ``None`` means all-distinct; smaller cardinalities show
    the per-batch dedup, all-distinct shows the shared-tree descent
    alone.  A fresh provider per point; a scalar spot-check on a prefix
    of each column guards equivalence without re-paying full scalar cost.
    """
    points = []
    for rows in row_counts:
        for card in cardinalities:
            if card is None:
                values = [i * 7919 % 1_000_003 for i in range(rows)]
            else:
                values = [(i * 7919 % card) * 251 for i in range(rows)]
            provider = fresh_provider()
            start = time.perf_counter()
            cts = provider.ope_encrypt_batch(values)
            encrypt_s = time.perf_counter() - start
            provider.reset_crypto_caches()
            start = time.perf_counter()
            plains = provider.ope_decrypt_batch(cts, "int")
            decrypt_s = time.perf_counter() - start
            assert plains == values, "batch decrypt diverged from input"
            checker = fresh_provider()
            prefix = min(rows, 200)
            assert cts[:prefix] == [
                checker.ope_encrypt(v) for v in values[:prefix]
            ], "batch encrypt diverged from scalar"
            pivots = provider.cache_stats()["ope_pivots_int"]
            points.append(
                {
                    "label": f"rows{rows}-card{card or 'distinct'}",
                    "rows": rows,
                    "cardinality": card or len(set(values)),
                    "encrypt_seconds": round(encrypt_s, 6),
                    "decrypt_seconds": round(decrypt_s, 6),
                    "pivot_hits": pivots.hits,
                    "pivot_misses": pivots.misses,
                    "pivot_evictions": pivots.evictions,
                }
            )
    return points


def bench_warm_cache(num_values: int) -> list[dict]:
    """Cross-query pivot memoization: repeat decrypts on one provider."""
    ints, _ = pr4_workload(num_values)
    provider = fresh_provider()
    cts = provider.ope_encrypt_batch(ints)
    reference = None
    points = []
    for run in range(3):
        provider._ope_dec_cache.clear()  # Value cache off; pivot cache kept.
        start = time.perf_counter()
        plains = provider.ope_decrypt_batch(cts, "int")
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = plains
        assert plains == reference == ints, "warm run diverged"
        points.append({"label": f"run{run}", "ope_seconds": round(elapsed, 6)})
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny columns")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR8.json"))
    args = parser.parse_args(argv)

    num_values = 2_000 if args.quick else 24_000
    row_counts = [1_000] if args.quick else [2_000, 8_000, 24_000]
    cardinalities = [64, None] if args.quick else [64, 4_096, None]

    print(f"[bench_ope] num_values={num_values} cpus={os.cpu_count()}")
    results: dict = {
        "benchmark": "bench_ope",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "num_values": num_values,
        "client_decrypt": bench_client_decrypt(num_values),
        "sweep": bench_sweep(row_counts, cardinalities),
        "warm_cache": bench_warm_cache(num_values),
    }
    pr4_path = REPO_ROOT / "BENCH_PR4.json"
    if not args.quick and pr4_path.exists():
        # The headline numbers: this workload is byte-for-byte the one
        # BENCH_PR4's client_decrypt phase recorded at workers=1.
        pr4 = json.loads(pr4_path.read_text())
        base = next(p for p in pr4["client_decrypt"] if p.get("workers") == 1)
        batch_point = next(
            p for p in results["client_decrypt"] if p["label"] == "batch"
        )
        results["vs_bench_pr4"] = {
            "pr4_ope_seconds": base["ope_seconds"],
            "pr4_det_text_seconds": base["det_text_seconds"],
            "ope_speedup": round(
                base["ope_seconds"] / max(batch_point["ope_seconds"], 1e-9), 2
            ),
            "det_text_speedup": round(
                base["det_text_seconds"]
                / max(batch_point["det_text_seconds"], 1e-9),
                2,
            ),
        }
        print(f"  vs BENCH_PR4: {results['vs_bench_pr4']}")
    for phase in ("client_decrypt", "sweep", "warm_cache"):
        for point in results[phase]:
            print(f"  {phase:>14} {point}")
    print("  all batch outputs identical to scalar loops")

    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench_ope] wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
