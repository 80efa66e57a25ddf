"""Batch-pipeline benchmark: before/after numbers for the columnar rewrite.

Measures two throughput-bound stages the paper cares about (load-time
bulk encryption and client-side result decryption) twice each:

* **before** — faithful replicas of the seed's scalar paths: row-at-a-time
  loading with per-value scheme dispatch and full-width Paillier
  randomness, and per-value client decryption with textbook (non-CRT)
  Paillier;
* **after** — the shipped batch pipeline: columnar loading through the
  ``*_batch`` provider APIs and the fixed-base encryption pool, and
  transposed client decryption with CRT Paillier.

Writes ``BENCH_PR1.json`` (repo root by default) so the perf trajectory is
tracked from this PR onward.  Run:

    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py          # full
    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py --quick  # CI smoke

Quick mode shrinks keys and data so the whole script takes seconds; it
still asserts scalar/batch equivalence, but skips the speedup thresholds
(tiny keys deflate the Paillier share of the work).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.common.errors import DesignError
from repro.core import CryptoProvider, Scheme
from repro.core.design import HomGroup, PhysicalDesign
from repro.core.loader import (
    ROW_ID_COLUMN,
    EncryptedLoader,
    complete_design,
    server_column_type,
)
from repro.core.pexec import PlanExecutor
from repro.core.plan import DecryptSpec
from repro.core.typing import infer_type
from repro.crypto.packing import PackedLayout
from repro.engine.aggregates import HomAggResult
from repro.engine.catalog import Database
from repro.engine.eval import Env, EvalContext, Scope, evaluate
from repro.engine.executor import ResultSet
from repro.engine.schema import ColumnDef, TableSchema
from repro.sql import parse_expression
from repro.storage.ciphertext_store import CiphertextFile
from repro.testkit import MASTER_KEY, build_sales_db

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def build_design() -> PhysicalDesign:
    design = PhysicalDesign()
    design.add("orders", "o_price", Scheme.OPE)
    design.add("orders", "o_date", Scheme.OPE)
    design.add_hom_group(
        HomGroup(
            table="orders",
            expr_sqls=("o_price", "o_qty", "o_price * o_qty"),
            rows_per_ciphertext=16,
        )
    )
    return design


# ---------------------------------------------------------------------------
# "Before": the seed's scalar loader, replicated verbatim
# ---------------------------------------------------------------------------


def scalar_load(plain_db: Database, provider: CryptoProvider, design: PhysicalDesign) -> Database:
    """Row-at-a-time load with per-value scheme dispatch — the seed path."""
    design = complete_design(design, plain_db)
    server = Database(name=f"{plain_db.name}_enc_scalar")
    for table_name in sorted(plain_db.tables):
        plain = plain_db.table(table_name)
        schemas = {table_name: plain.schema}
        entries = [
            e for e in design.table_entries(table_name) if e.scheme is not Scheme.HOM
        ]
        hom_groups = [g for g in design.hom_groups if g.table == table_name]
        columns: list[ColumnDef] = []
        exprs = []
        for entry in entries:
            expr = parse_expression(entry.expr_sql)
            plain_type = infer_type(expr, schemas)
            columns.append(
                ColumnDef(entry.column_name, server_column_type(entry, plain_type))
            )
            exprs.append(expr)
        if hom_groups:
            columns.append(ColumnDef(ROW_ID_COLUMN, "int"))
        enc_table = server.create_table(
            TableSchema(name=table_name, columns=tuple(columns))
        )
        scope = Scope([(table_name, c) for c in plain.schema.column_names])
        ctx = EvalContext()
        for row_id, row in enumerate(plain.rows):
            env = Env(scope, row)
            values: list[object] = []
            for entry, expr in zip(entries, exprs):
                plain_value = evaluate(expr, env, ctx)
                if entry.scheme is Scheme.SEARCH:
                    values.append(provider.search_encrypt(plain_value))
                else:
                    values.append(provider.encrypt(plain_value, entry.scheme.value))
            if hom_groups:
                values.append(row_id)
            enc_table.insert(tuple(values))
        for group in hom_groups:
            _scalar_load_hom_group(server, group, plain, scope, provider)
    return server


def _scalar_load_hom_group(server, group, plain, scope, provider) -> None:
    ctx = EvalContext()
    exprs = [parse_expression(sql) for sql in group.expr_sqls]
    matrix: list[list[int]] = []
    for row in plain.rows:
        env = Env(scope, row)
        values = []
        for expr in exprs:
            value = evaluate(expr, env, ctx)
            if value is None:
                value = 0
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise DesignError(f"bad homomorphic value {value!r}")
            values.append(value)
        matrix.append(values)
    column_bits = tuple(
        max(1, max((row[i] for row in matrix), default=0).bit_length())
        for i in range(len(exprs))
    )
    pad_bits = max(4, plain.num_rows.bit_length())
    public = provider.paillier_public
    layout = PackedLayout(
        column_bits=column_bits,
        pad_bits=pad_bits,
        plaintext_bits=public.plaintext_bits,
    )
    rows_per_ct = min(group.rows_per_ciphertext, layout.rows_per_ciphertext)
    layout = PackedLayout(
        column_bits=column_bits,
        pad_bits=pad_bits,
        plaintext_bits=min(public.plaintext_bits, layout.row_bits * rows_per_ct),
    )
    file = CiphertextFile(
        name=group.file_name + "_scalar",
        public_key=public,
        layout=layout,
        column_names=group.expr_sqls,
        num_rows=plain.num_rows,
    )
    for start in range(0, len(matrix), rows_per_ct):
        chunk = matrix[start : start + rows_per_ct]
        # Seed path: fresh full-width randomness per ciphertext.
        file.ciphertexts.append(public.encrypt(layout.encode_rows(chunk)))
    server.ciphertext_store.add(file)


# ---------------------------------------------------------------------------
# "Before": the seed's per-value client decryption, replicated verbatim
# ---------------------------------------------------------------------------


def scalar_decrypt_rows(provider, specs, result: ResultSet):
    columns: list[str] = []
    for spec in specs:
        columns.extend(spec.output_names)
    rows: list[tuple] = []
    for row in result.rows:
        out: list[object] = []
        for spec, value in zip(specs, row):
            out.extend(_scalar_decrypt_value(provider, spec, value))
        rows.append(tuple(out))
    return columns, rows


def _scalar_decrypt_value(provider, spec, value):
    if spec.kind == "plain":
        return [value]
    if spec.kind in ("det", "ope", "rnd"):
        return [provider.decrypt(value, spec.kind, spec.sql_type)]
    if spec.kind == "grp":
        if value is None:
            return [[]]
        return [
            [provider.decrypt(e, spec.elem_kind, spec.sql_type) for e in value]
        ]
    if spec.kind == "hom":
        return _scalar_decrypt_hom(provider, spec, value)
    raise ValueError(f"unknown decrypt spec kind {spec.kind!r}")


def _scalar_decrypt_hom(provider, spec, value):
    width = len(spec.hom_output_names)
    if value is None:
        return [None] * width
    layout = value.layout
    totals = [0] * width
    saw_any = False
    private = provider.paillier_private
    if value.product is not None:
        # Seed decryption: the textbook (non-CRT) lambda/mu form.
        sums = layout.decode_column_sums(private.decrypt_textbook(value.product))
        totals = [t + s for t, s in zip(totals, sums)]
        saw_any = True
    for ciphertext, offsets in value.partials:
        plaintext = layout.decode_rows(
            private.decrypt_textbook(ciphertext), layout.rows_per_ciphertext
        )
        for offset in offsets:
            for c in range(width):
                totals[c] += plaintext[offset][c]
        saw_any = True
    if not saw_any:
        return [None] * width
    return list(totals)


# ---------------------------------------------------------------------------
# Benchmark sections
# ---------------------------------------------------------------------------


def bench_load(db, provider, results: dict) -> None:
    design = build_design()

    provider.reset_crypto_caches()
    start = time.perf_counter()
    scalar_server = scalar_load(db, provider, design)
    scalar_seconds = time.perf_counter() - start

    provider.reset_crypto_caches()
    start = time.perf_counter()
    batch_server = EncryptedLoader(db, provider).load(design)
    batch_seconds = time.perf_counter() - start

    # Equivalence: deterministic schemes must agree column-for-column.
    checked = 0
    for name, table in batch_server.tables.items():
        scalar_table = scalar_server.table(name)
        for i, col in enumerate(table.schema.columns):
            if col.name.endswith(("_det", "_ope")) or col.name == ROW_ID_COLUMN:
                ours = [row[i] for row in table.rows]
                theirs = [row[i] for row in scalar_table.rows]
                assert ours == theirs, f"load mismatch in {name}.{col.name}"
                checked += 1
    assert checked > 0, "no deterministic columns compared"
    # Paillier files: same plaintexts under fresh randomness.
    for file_name in batch_server.ciphertext_store.names():
        file = batch_server.ciphertext_store.get(file_name)
        twin = scalar_server.ciphertext_store.get(file_name + "_scalar")
        assert provider.paillier_decrypt_batch(file.ciphertexts) == [
            provider.paillier_private.decrypt_textbook(c) for c in twin.ciphertexts
        ], f"hom plaintext mismatch in {file_name}"

    hom_cts = sum(
        len(batch_server.ciphertext_store.get(n).ciphertexts)
        for n in batch_server.ciphertext_store.names()
    )
    results["load"] = {
        "rows": sum(t.num_rows for t in db.tables.values()),
        "hom_ciphertexts": hom_cts,
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(scalar_seconds / batch_seconds, 2),
    }


def bench_client_decrypt(provider, num_rows: int, results: dict) -> None:
    import random

    rng = random.Random(7)
    public = provider.paillier_public
    layout = PackedLayout(
        column_bits=(34, 34), pad_bits=10, plaintext_bits=public.plaintext_bits
    )
    group_rows = layout.rows_per_ciphertext

    det_ints = [rng.randint(-(10 ** 6), 10 ** 6) for _ in range(num_rows)]
    det_texts = [f"Customer#{rng.randint(0, 10 ** 6):07d}" for _ in range(num_rows)]
    ope_ints = [rng.randint(0, 10 ** 6) for _ in range(num_rows)]
    rnd_vals = [rng.randint(0, 10 ** 9) for _ in range(num_rows)]
    hom_plain = [
        [[rng.randint(0, 10 ** 9), rng.randint(0, 10 ** 9)] for _ in range(group_rows)]
        for _ in range(num_rows)
    ]

    hom_column = [
        HomAggResult(
            file_name="bench_hom",
            column_names=("sum_a", "sum_b"),
            product=ct,
            partials=(),
            multiplications=group_rows - 1,
            ciphertext_bytes=public.ciphertext_bytes,
            layout=layout,
        )
        for ct in provider.paillier_encrypt_batch(
            [layout.encode_rows(rows) for rows in hom_plain]
        )
    ]
    server_rows = list(
        zip(
            provider.det_encrypt_batch(det_ints),
            provider.det_encrypt_batch(det_texts),
            provider.ope_encrypt_batch(ope_ints),
            provider.rnd_encrypt_batch(rnd_vals),
            hom_column,
        )
    )
    specs = [
        DecryptSpec("det", "c_int", "int"),
        DecryptSpec("det", "c_name", "text"),
        DecryptSpec("ope", "c_ope", "int"),
        DecryptSpec("rnd", "c_rnd", "int"),
        DecryptSpec(
            "hom",
            "",
            hom_output_names=("sum_a", "sum_b"),
            hom_expr_sqls=("a", "b"),
        ),
    ]
    result = ResultSet([spec.output_name or "hom" for spec in specs], server_rows)

    provider.reset_crypto_caches()
    start = time.perf_counter()
    scalar_columns, scalar_rows = scalar_decrypt_rows(provider, specs, result)
    scalar_seconds = time.perf_counter() - start

    executor = PlanExecutor(Database("bench_server"), provider)
    provider.reset_crypto_caches()
    batch_columns = [name for spec in specs for name in spec.output_names]
    start = time.perf_counter()
    in_columns = list(zip(*result.rows))
    batch_rows = list(zip(*executor._decrypt_columns(specs, in_columns)))
    batch_seconds = time.perf_counter() - start

    assert batch_columns == scalar_columns
    assert batch_rows == scalar_rows
    expected_sums = [
        tuple(sum(row[c] for row in rows) for c in range(2)) for rows in hom_plain
    ]
    assert [(r[-2], r[-1]) for r in batch_rows] == expected_sums

    results["client_decrypt"] = {
        "rows": num_rows,
        "specs": [s.kind for s in specs],
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(scalar_seconds / batch_seconds, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: tiny keys/data")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR1.json"))
    args = parser.parse_args(argv)

    if args.quick:
        paillier_bits, load_orders, decrypt_rows = 384, 150, 30
    else:
        paillier_bits, load_orders, decrypt_rows = 2048, 900, 100

    print(f"[bench] generating data (quick={args.quick}) ...", flush=True)
    load_db = build_sales_db(num_orders=load_orders)

    print(f"[bench] Paillier keygen at {paillier_bits} bits ...", flush=True)
    start = time.perf_counter()
    provider = CryptoProvider(MASTER_KEY, paillier_bits=paillier_bits)
    keygen_seconds = time.perf_counter() - start

    results: dict = {
        "meta": {
            "benchmark": "bench_batch_pipeline",
            "pr": 1,
            "quick": args.quick,
            "paillier_bits": paillier_bits,
            "keygen_seconds": round(keygen_seconds, 2),
            "python": sys.version.split()[0],
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
    }

    print("[bench] load: scalar vs columnar batch ...", flush=True)
    bench_load(load_db, provider, results)
    print(f"  -> {results['load']}", flush=True)

    print("[bench] client decrypt: scalar/textbook vs batch/CRT ...", flush=True)
    bench_client_decrypt(provider, decrypt_rows, results)
    print(f"  -> {results['client_decrypt']}", flush=True)

    if not args.quick:
        # Acceptance thresholds for this PR (ISSUE 1).
        assert results["client_decrypt"]["speedup"] >= 3.0, results["client_decrypt"]
        assert results["load"]["speedup"] >= 2.0, results["load"]

    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench] wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
