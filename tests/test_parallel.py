"""Multicore execution layer: sharded crypto and the prefetch pipeline.

The parallel layer's contract is strict equivalence: for every worker
count and prefetch depth, the system must produce the same plaintext
rows, the same ledger byte counts, and the same plan choices as the
serial path — only wall-clock time may differ.  These tests pin that
contract, plus the :class:`ConfigError` cases where a requested mode
cannot be honored and must fail loudly instead of silently degrading.
"""

from __future__ import annotations

import datetime
import os
import threading

import pytest

from repro.common.errors import ConfigError, DomainError
from repro.common.parallel import WorkerPool, resolve_workers, shard_spans
from repro.core import CryptoProvider, MonomiClient, PlanExecutor, normalize_query
from repro.core.pexec import _resolve_prefetch
from repro.engine import schema
from repro.engine.executor import ResultSet
from repro.server import make_backend, make_sharded_backend
from repro.server.backend import ServerBackend
from repro.sql import parse
from repro.testkit import (
    MASTER_KEY,
    SALES_WORKLOAD,
    build_sales_db,
    canonical,
    extra_threads,
)

WORKER_COUNTS = [1, 2, 4]

PARALLEL_WORKLOAD = [
    "SELECT o_custkey, SUM(o_price * o_qty) AS rev FROM orders "
    "WHERE o_price > 500 GROUP BY o_custkey ORDER BY rev DESC",
    "SELECT o_orderkey, o_price, o_qty FROM orders WHERE o_price > 2500",
    "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%brown%'",
]


def ledger_bytes(ledger) -> tuple:
    return (ledger.transfer_bytes, ledger.server_bytes_scanned, ledger.round_trips)


def _raise_for_marker(value: int) -> int:
    """Module-level (picklable) task that fails on the marker value."""
    if value == 1:
        raise RuntimeError("task failed")
    return value


# ---------------------------------------------------------------------------
# Policy helpers
# ---------------------------------------------------------------------------


class TestResolvers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("MONOMI_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv("MONOMI_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("MONOMI_WORKERS")
        assert resolve_workers(None) == 1

    def test_zero_means_per_core(self, monkeypatch):
        assert resolve_workers(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("MONOMI_WORKERS", "0")
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("MONOMI_WORKERS", "many")
        with pytest.raises(ConfigError):
            resolve_workers(None)
        monkeypatch.setenv("MONOMI_WORKERS", "-2")
        with pytest.raises(ConfigError):
            resolve_workers(None)

    def test_negative_explicit_raises(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1)

    def test_prefetch_env(self, monkeypatch):
        monkeypatch.setenv("MONOMI_PREFETCH", "6")
        assert _resolve_prefetch(None) == 6
        monkeypatch.setenv("MONOMI_PREFETCH", "soon")
        with pytest.raises(ConfigError):
            _resolve_prefetch(None)
        with pytest.raises(ConfigError):
            _resolve_prefetch(-1)

    def test_shard_spans_partition_range(self):
        for total in (0, 1, 7, 100, 101):
            for parts in (1, 2, 3, 8):
                spans = shard_spans(total, parts)
                assert len(spans) == min(parts, total)
                covered = [i for lo, hi in spans for i in range(lo, hi)]
                assert covered == list(range(total))
                sizes = {hi - lo for lo, hi in spans}
                assert len(sizes) <= 2  # Near-equal: sizes differ by <= 1.

    def test_shard_spans_rejects_bad_parts(self):
        with pytest.raises(ConfigError):
            shard_spans(10, 0)


class TestWorkerPoolFallback:
    def test_creation_failure_degrades_to_serial(self, monkeypatch):
        import repro.common.parallel as parallel_mod

        def broken(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", broken)
        pool = WorkerPool(4)
        assert pool.map_ordered(len, [[1], [1, 2]]) == [1, 2]
        assert not pool.parallel
        pool.close()

    def test_map_finishes_serially_when_pool_breaks_midstream(self):
        """Workers dying mid-call must not surface BrokenProcessPool: the
        call finishes in-process, in order — and a single break respawns
        the pool on its next use instead of disabling it."""
        from concurrent.futures.process import BrokenProcessPool

        class _DyingExecutor:
            def map(self, fn, payloads):
                yield fn(payloads[0])
                raise BrokenProcessPool("worker died")

            def shutdown(self, **kwargs):
                pass

        pool = WorkerPool(2)
        pool._executor = _DyingExecutor()
        assert pool.map_ordered(len, [[1], [1, 2], [1, 2, 3]]) == [1, 2, 3]
        stats = pool.stats()
        assert stats.breaks == 1 and stats.serial_tasks == 3
        assert pool.parallel  # One break does not cost parallelism forever.
        assert pool.map_ordered(len, [[1], [1, 2]]) == [1, 2]  # Respawned.
        assert pool.stats().respawns == 1
        pool.close()

    def test_circuit_opens_after_consecutive_breaks(self):
        """Repeated breaks with no healthy call in between must open the
        circuit: the pool goes permanently serial after max_respawns."""
        from concurrent.futures.process import BrokenProcessPool

        class _AlwaysDying:
            def map(self, fn, payloads):
                raise BrokenProcessPool("worker died")
                yield  # pragma: no cover - makes this a generator

            def shutdown(self, **kwargs):
                pass

        pool = WorkerPool(2, max_respawns=1)
        for _ in range(3):
            if pool._ensure() is not None:
                pool._executor = _AlwaysDying()
            assert pool.map_ordered(len, [[1], [1, 2]]) == [1, 2]
        stats = pool.stats()
        assert stats.circuit_open and not pool.parallel
        assert stats.breaks == 2  # Break, respawn, break again, open.
        pool.close()

    def test_task_errors_propagate_without_disabling_pool(self):
        """An exception raised *by the task* is not a pool failure: it must
        propagate unchanged (no serial re-execution) and leave the pool
        healthy for subsequent calls."""
        pool = WorkerPool(2)
        with pytest.raises(RuntimeError, match="task failed"):
            pool.map_ordered(_raise_for_marker, [0, 1])
        assert pool.parallel
        assert pool.map_ordered(_raise_for_marker, [0, 2]) == [0, 2]
        pool.close()


# ---------------------------------------------------------------------------
# Sharded batch crypto
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serial_provider() -> CryptoProvider:
    return CryptoProvider(MASTER_KEY, paillier_bits=256)


@pytest.fixture(scope="module", params=[2, 4])
def pooled_provider(request) -> CryptoProvider:
    provider = CryptoProvider(MASTER_KEY, paillier_bits=256, workers=request.param)
    provider.parallel_min_batch = 16  # Force pool traffic on small batches.
    yield provider
    provider.close()


MIXED_VALUES = (
    [None, 0, 1, -1, 7_777_777, "a", "brown fox", "x" * 40]
    + [datetime.date(1997, 3, 14), datetime.date(2031, 12, 1), True, False]
    + [i * 37 % 1009 for i in range(220)]
    + [f"value-{i % 53}" for i in range(180)]
)


class TestShardedCrypto:
    def test_det_batch_matches_serial(self, serial_provider, pooled_provider):
        expected = serial_provider.det_encrypt_batch(MIXED_VALUES)
        assert pooled_provider.det_encrypt_batch(MIXED_VALUES) == expected

    def test_det_decrypt_batch_matches_serial(self, serial_provider, pooled_provider):
        ints = [None] + [i * 11 - 4000 for i in range(400)]
        cts = serial_provider.det_encrypt_batch(ints)
        assert pooled_provider.det_decrypt_batch(cts, "int") == ints
        texts = [None] + [f"t-{i % 91}" for i in range(300)]
        cts = serial_provider.det_encrypt_batch(texts)
        assert pooled_provider.det_decrypt_batch(cts, "text") == texts

    def test_ope_batches_match_serial(self, serial_provider, pooled_provider):
        values = [None] + [i * 53 % 4999 for i in range(450)]
        expected = serial_provider.ope_encrypt_batch(values)
        assert pooled_provider.ope_encrypt_batch(values) == expected
        assert pooled_provider.ope_decrypt_batch(expected, "int") == values

    def test_rnd_round_trips_through_pool(self, pooled_provider):
        cts = pooled_provider.rnd_encrypt_batch(MIXED_VALUES)
        assert pooled_provider.rnd_decrypt_batch(cts) == MIXED_VALUES

    def test_search_batch_matches_serial(self, serial_provider, pooled_provider):
        values = [None] + [f"quick brown no {i % 13}" for i in range(200)]
        expected = serial_provider.search_encrypt_batch(values)
        got = pooled_provider.search_encrypt_batch(values)
        assert got == expected  # SWP tags are PRF outputs: deterministic.
        trapdoor = serial_provider.search_trapdoor("%brown%")
        assert all(trapdoor in tags for tags in got[1:])

    def test_paillier_batches_shard(self, serial_provider, pooled_provider):
        messages = [i * 997 for i in range(60)]
        cts = pooled_provider.paillier_encrypt_batch(messages)
        assert pooled_provider.paillier_decrypt_batch(cts) == messages
        assert serial_provider.paillier_decrypt_batch(cts) == messages

    def test_worker_errors_propagate(self, pooled_provider):
        with pytest.raises(DomainError):
            pooled_provider.det_decrypt_batch(list(range(100)), "float")

    def test_provider_pickles_without_pool(self, pooled_provider):
        import pickle

        pooled_provider.det_encrypt_batch(list(range(64)))
        clone = pickle.loads(pickle.dumps(pooled_provider))
        assert clone.det_encrypt(12345) == pooled_provider.det_encrypt(12345)
        clone.close()


# ---------------------------------------------------------------------------
# End-to-end worker equivalence (plaintexts, ledgers, plan choices)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_sales_db():
    return build_sales_db(num_orders=600)


@pytest.fixture(scope="module")
def worker_clients(parallel_sales_db) -> dict[int, MonomiClient]:
    """One client per worker count, sharing the serial client's design so
    loads are comparable; each has its own provider (its own pool)."""
    clients: dict[int, MonomiClient] = {}
    design = None
    for workers in WORKER_COUNTS:
        provider = CryptoProvider(MASTER_KEY, paillier_bits=256, workers=workers)
        provider.parallel_min_batch = 32
        clients[workers] = MonomiClient.setup(
            parallel_sales_db,
            PARALLEL_WORKLOAD,
            master_key=MASTER_KEY,
            paillier_bits=256,
            space_budget=2.5,
            provider=provider,
            design=design,
        )
        design = clients[workers].design
    yield clients
    for client in clients.values():
        client.provider.close()


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_rows_and_ledger_bytes_match_serial(self, worker_clients, workers, sql):
        serial = worker_clients[1].execute(sql)
        pooled = worker_clients[workers].execute(sql)
        assert canonical(pooled.rows) == canonical(serial.rows)
        assert ledger_bytes(pooled.ledger) == ledger_bytes(serial.ledger)

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_load_sizes_match_serial(self, worker_clients, workers):
        serial, pooled = worker_clients[1], worker_clients[workers]
        for name in serial.backend.table_names():
            assert pooled.backend.table_bytes(name) == serial.backend.table_bytes(
                name
            )
        assert pooled.server_bytes() == serial.server_bytes()

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_plan_choices_match_serial(self, worker_clients, workers, sql):
        """Worker pools must not perturb the decryption-profile-driven
        plan choice: same design, same candidate ranking, same plan."""
        query = normalize_query(parse(sql))
        serial_plan = worker_clients[1].plan(query).plan.explain()
        pooled_plan = worker_clients[workers].plan(query).plan.explain()
        assert pooled_plan == serial_plan


# ---------------------------------------------------------------------------
# Streaming scan paths
# ---------------------------------------------------------------------------


def _load_big(backend):
    backend.create_table(
        schema("big", ("a", "int"), ("b", "int"), ("c", "int"))
    )
    backend.insert_rows("big", [(i, i * 7 % 1013, i % 97) for i in range(5000)])
    return backend


def _scan_backend(kind: str):
    return _load_big(make_backend(kind))


@pytest.fixture(
    params=["memory", "sqlite", "sqlite-view", "sharded-memory", "sharded-sqlite"]
)
def scan_path(request):
    """Every streaming scan path a server offers, over the same table:
    each backend's native stream, a SQLite worker view's own connection,
    and the sharded scatter-gather over either shard kind."""
    kind = request.param
    if kind.startswith("sharded-"):
        owner = _load_big(make_sharded_backend(kind.split("-")[1], 2))
        backend = owner
    elif kind == "sqlite-view":
        owner = _scan_backend("sqlite")
        backend = owner.worker_view()
    else:
        owner = backend = _scan_backend(kind)
    yield backend
    if backend is not owner:
        backend.close()
    if hasattr(owner, "close"):
        owner.close()


class TestScanPaths:
    """Each path must stream exactly what a serial in-memory scan returns:
    same rows in the same order, same scan accounting."""

    def test_rows_order_and_stats_match_serial(self, scan_path):
        reference = _scan_backend("memory")
        query = normalize_query(parse("SELECT a, b FROM big WHERE c < 80"))
        serial = reference.execute_stream(query, block_rows=256)
        serial_rows = serial.drain_rows()
        stream = scan_path.execute_stream(query, block_rows=256)
        assert stream.drain_rows() == serial_rows  # Order preserved exactly.
        assert stream.stats.bytes_scanned == serial.stats.bytes_scanned
        assert stream.stats.rows_output == serial.stats.rows_output

    def test_order_by_output_order_is_preserved(self, scan_path):
        """A blocking ORDER BY keeps the exact serial output order, run
        after run."""
        query = normalize_query(
            parse("SELECT a, b FROM big WHERE c < 30 ORDER BY b DESC, a LIMIT 40")
        )
        expected = _scan_backend("memory").execute_stream(query).drain_rows()
        for _ in range(3):
            assert scan_path.execute_stream(query).drain_rows() == expected

    def test_early_close_leaks_no_threads(self, scan_path):
        baseline = set(threading.enumerate())
        query = normalize_query(parse("SELECT a FROM big"))
        stream = scan_path.execute_stream(query, block_rows=64)
        blocks = iter(stream)
        assert len(next(blocks)) == 64
        stream.close()  # Must not deadlock or leave a producer running.
        leaked = extra_threads(baseline)
        assert not leaked, f"leaked threads after close: {leaked}"

    def test_where_subquery_matches_serial(self, scan_path):
        """A streamable scan whose WHERE carries a subquery must see the
        whole inner table on every path."""
        query = normalize_query(
            parse(
                "SELECT a FROM big WHERE c < 40 AND "
                "a IN (SELECT b FROM big WHERE c = 3)"
            )
        )
        expected = _scan_backend("memory").execute_stream(query).drain_rows()
        assert scan_path.execute_stream(query).drain_rows() == expected


# ---------------------------------------------------------------------------
# ConfigError contract
# ---------------------------------------------------------------------------


class _MaterializingBackend(ServerBackend):
    """A third-party-style backend with no native streaming override."""

    kind = "thirdparty"

    def __init__(self, inner):
        self.inner = inner
        self.last_stats = None

    @property
    def ciphertext_store(self):
        return self.inner.ciphertext_store

    def create_table(self, table_schema):
        self.inner.create_table(table_schema)

    def insert_rows(self, table_name, rows):
        self.inner.insert_rows(table_name, rows)

    def table_names(self):
        return self.inner.table_names()

    def table_bytes(self, table_name):
        return self.inner.table_bytes(table_name)

    def execute(self, query, params=None) -> ResultSet:
        result = self.inner.execute(query, params=params)
        self.last_stats = self.inner.last_stats
        return result


class TestConfigErrors:
    def test_non_native_backend_streamable_scan_runs_serial(self):
        backend = _MaterializingBackend(_scan_backend("memory"))
        query = normalize_query(parse("SELECT a FROM big WHERE c < 5"))
        rows = backend.execute_stream(query).drain_rows()
        assert rows == backend.execute(query).rows

    def test_non_native_backend_blocking_root_materializes(self):
        """The base stream materializes and re-blocks a blocking root, so
        a backend without native streaming still streams every shape."""
        backend = _MaterializingBackend(_scan_backend("memory"))
        blocking = normalize_query(
            parse("SELECT c, COUNT(*) FROM big GROUP BY c")
        )
        stream = backend.execute_stream(blocking, block_rows=10)
        blocks = list(stream)
        assert max(len(block) for block in blocks) == 10
        assert [row for block in blocks for row in block.rows()] == (
            backend.execute(blocking).rows
        )

    def test_narrow_signature_backend_streams_through_pexec(self, sales_client):
        """A backend overriding execute_stream with only (query, params,
        block_rows) — no deadline — runs through the plan executor."""
        from repro.core.plan import DecryptSpec, RemoteRelation, SplitPlan

        class _NarrowBackend(_MaterializingBackend):
            kind = "narrow"

            def execute_stream(self, query, params=None, block_rows=4096):
                return super().execute_stream(
                    query, params=params, block_rows=block_rows
                )

        backend = _NarrowBackend(_scan_backend("memory"))
        executor = PlanExecutor(backend, sales_client.provider)
        query = normalize_query(parse("SELECT a FROM big WHERE c < 5"))
        plan = SplitPlan(
            relations=(
                RemoteRelation(
                    alias="r",
                    query=query,
                    specs=[DecryptSpec("plain", "a", "int")],
                ),
            ),
            residual=None,
        )
        assert executor.execute_iter(plan).drain().rows == (
            backend.execute(query).rows
        )

    def test_bad_workers_env_fails_provider_construction(self, monkeypatch):
        monkeypatch.setenv("MONOMI_WORKERS", "turbo")
        with pytest.raises(ConfigError):
            CryptoProvider(MASTER_KEY, paillier_bits=256)

    @pytest.mark.parametrize("block_rows", [0, -1])
    def test_nonpositive_block_rows_raises(self, sales_client, block_rows):
        """A negative block size used to re-block a result into zero rows;
        the plan executor refuses it before any server call."""
        with pytest.raises(ConfigError, match="block_rows"):
            sales_client.execute_iter(SALES_WORKLOAD[0], block_rows=block_rows)


# ---------------------------------------------------------------------------
# Prefetch pipeline
# ---------------------------------------------------------------------------


class TestPrefetch:
    @pytest.mark.parametrize("sql", PARALLEL_WORKLOAD)
    def test_prefetch_matches_unprefetched(self, worker_clients, sql):
        client = worker_clients[1]
        query = normalize_query(parse(sql))
        planned = client.plan(query)
        outcomes = {}
        for depth in (0, 3):
            executor = PlanExecutor(
                client.backend,
                client.provider,
                client.network,
                client.disk,
                prefetch_blocks=depth,
            )
            stream = executor.execute_iter(planned.plan, block_rows=128)
            outcomes[depth] = (stream.drain().rows, ledger_bytes(stream.ledger))
        assert outcomes[0][0] == outcomes[3][0]
        assert outcomes[0][1] == outcomes[3][1]

    def test_early_close_joins_producer(self, worker_clients):
        client = worker_clients[1]
        query = normalize_query(
            parse("SELECT o_orderkey, o_price FROM orders WHERE o_price > 0")
        )
        planned = client.plan(query)
        executor = PlanExecutor(
            client.backend,
            client.provider,
            client.network,
            client.disk,
            prefetch_blocks=2,
        )
        stream = executor.execute_iter(planned.plan, block_rows=32)
        blocks = iter(stream)
        assert next(blocks) is not None
        stream.close()  # Must not deadlock.
