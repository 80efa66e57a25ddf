"""Resilience suite: chaos equivalence, deadlines, crash-safe load, retries.

The invariant under test everywhere: under any injected fault schedule, a
query either returns rows and primary ledger byte counts **identical** to
the fault-free run, or raises a typed error — and retried work lands in
``ledger.retries`` / ``ledger.retry_bytes``, never in the primary totals.

Chaos schedules are seeded (``FaultInjectingBackend(seed, rate)``), so
every test here is deterministic: a fixed seed replays the exact same
faults in single-threaded runs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    InjectedFaultError,
    LoadJournalError,
    TransientError,
)
from repro.common.retry import NO_RETRY, Deadline, RetryPolicy, retry_call
from repro.core.client import MonomiClient
from repro.core.loader import EncryptedLoader, complete_design
from repro.core.loadjournal import LoadJournal
from repro.core.schemes import Scheme
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS
from repro.server import FaultInjectingBackend, make_backend
from repro.server.backend import DelegatingView
from repro.service import MonomiService
from repro.sql import parse
from repro.testkit import SALES_WORKLOAD, canonical, parse_chaos, with_chaos

REPO_ROOT = Path(__file__).resolve().parents[1]


def _primary(ledger) -> tuple[int, int, int]:
    """The byte-identical contract's fields."""
    return (
        ledger.transfer_bytes,
        ledger.server_bytes_scanned,
        ledger.round_trips,
    )


# -- retry / deadline primitives ---------------------------------------------


class TestRetryPrimitives:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0
        )
        delays = [policy.delay(k) for k in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_transient_errors_retry_until_success(self):
        calls = {"n": 0}
        retried = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise InjectedFaultError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        out = retry_call(flaky, policy, on_retry=lambda a, e: retried.append(a))
        assert out == "ok"
        assert calls["n"] == 3
        assert retried == [1, 2]

    def test_fatal_errors_do_not_retry(self):
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(fatal, RetryPolicy(base_delay=0.0))
        assert calls["n"] == 1

    def test_exhaustion_reraises_the_typed_error(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise InjectedFaultError("still down")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(InjectedFaultError):
            retry_call(always, policy)
        assert calls["n"] == 3

    def test_no_retry_policy_is_single_attempt(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise InjectedFaultError("down")

        with pytest.raises(InjectedFaultError):
            retry_call(always, NO_RETRY)
        assert calls["n"] == 1

    def test_deadline_stops_a_retry_loop(self):
        deadline = Deadline.after(0.02)

        def always():
            raise InjectedFaultError("down")

        policy = RetryPolicy(max_attempts=50, base_delay=0.01, jitter=0.0)
        with pytest.raises(DeadlineExceededError):
            retry_call(always, policy, deadline=deadline)

    def test_deadline_basics(self):
        with pytest.raises(ConfigError):
            Deadline.after(0.0)
        past = Deadline(time.monotonic() - 1.0)
        assert past.expired
        with pytest.raises(DeadlineExceededError):
            past.check("unit test")
        future = Deadline.after(60.0)
        assert not future.expired
        future.check("unit test")  # must not raise


# -- the chaos proxy ----------------------------------------------------------


class TestChaosProxy:
    def test_parse_chaos(self):
        assert parse_chaos("7:0.05") == (7, 0.05)
        for bad in ("7", "x:0.1", "7:nope", ""):
            with pytest.raises(ConfigError):
                parse_chaos(bad)

    @pytest.mark.parametrize("rate", [1.5, -0.2, 7.0, float("nan")])
    @pytest.mark.parametrize("arm", ["proxy", "server"])
    def test_explicit_rate_out_of_range_is_rejected(self, arm, rate):
        from repro.net import MonomiServer

        with pytest.raises(ConfigError, match="rate must be in"):
            if arm == "proxy":
                FaultInjectingBackend(make_backend("memory"), seed=1, rate=rate)
            else:
                MonomiServer(make_backend("memory"), chaos=(1, rate))

    def test_same_seed_replays_the_same_schedule(self, sales_client):
        runs = []
        for _ in range(2):
            client = with_chaos(sales_client, seed=5, rate=0.3)
            rows = [canonical(client.execute(q).rows) for q in SALES_WORKLOAD[:2]]
            runs.append((rows, client.backend.stats()))
        assert runs[0] == runs[1]
        assert runs[0][1]["draws"] > 0

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_chaos_equivalence(self, each_backend_client, seed, chaos_spec):
        """Rows and primary ledger bytes are identical under chaos."""
        base = each_backend_client
        client = with_chaos(base, seed=seed, rate=0.2)
        for sql in SALES_WORKLOAD[:3]:
            reference = base.execute(sql)
            outcome = client.execute(sql)
            assert canonical(outcome.rows) == canonical(reference.rows)
            assert _primary(outcome.ledger) == _primary(reference.ledger)
            if chaos_spec is None:
                assert reference.ledger.retries == 0
        assert client.backend.stats()["draws"] > 0

    def test_retries_are_accounted_outside_primary_totals(self, sales_client):
        client = with_chaos(sales_client, seed=1, rate=0.35)
        total_retries = 0
        for sql in SALES_WORKLOAD:
            reference = sales_client.execute(sql)
            outcome = client.execute(sql)
            assert canonical(outcome.rows) == canonical(reference.rows)
            assert _primary(outcome.ledger) == _primary(reference.ledger)
            total_retries += outcome.ledger.retries
        stats = client.backend.stats()
        assert stats["injected_errors"] + stats["truncations"] > 0
        assert total_retries > 0

    def test_rate_zero_injects_nothing(self, sales_client):
        client = with_chaos(sales_client, seed=1, rate=0.0)
        outcome = client.execute(SALES_WORKLOAD[0])
        reference = sales_client.execute(SALES_WORKLOAD[0])
        assert canonical(outcome.rows) == canonical(reference.rows)
        stats = client.backend.stats()
        assert stats["injected_errors"] == 0
        assert stats["truncations"] == 0
        assert outcome.ledger.retries == 0
        assert outcome.ledger.retry_bytes == 0


# -- no environment knobs -----------------------------------------------------


def test_environment_configures_nothing(monkeypatch):
    """``src/`` reads no ``MONOMI_*`` variable: with both old knobs set, a
    client sets up unsharded with no chaos proxy, and a server hosts its
    store unwrapped.  It runs in a fresh interpreter, because ``--shards``
    and ``--chaos`` patch the builders in this one."""
    monkeypatch.setenv("MONOMI_SHARDS", "4")
    monkeypatch.setenv("MONOMI_CHAOS", "7:0.5")
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    child = textwrap.dedent(
        """
        from repro.core import MonomiClient
        from repro.net import MonomiServer
        from repro.server import InMemoryBackend
        from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db

        client = MonomiClient.setup(
            build_sales_db(40),
            SALES_WORKLOAD[:1],
            master_key=MASTER_KEY,
            paillier_bits=256,
        )
        assert type(client.backend) is InMemoryBackend, client.backend.kind
        server = MonomiServer(client.backend)
        assert server.backend is client.backend, server.backend.kind
        assert "chaos" not in server.stats()
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_chaos_option_arms_each_client_once(chaos_spec, sales_client, sales_server):
    """``--chaos`` arms the suites' clients, and a server hosting an armed
    store does not arm it again; without the option nothing is armed."""
    store = sales_client.backend
    assert isinstance(store, FaultInjectingBackend) == (chaos_spec is not None)
    assert sales_server.backend is store
    if chaos_spec is not None:
        assert (store.stats()["seed"], store.stats()["rate"]) == chaos_spec
        assert not isinstance(store._parent, FaultInjectingBackend)


# -- deadlines at the client API ----------------------------------------------


class TestDeadlines:
    def test_expired_timeout_raises_typed_error(self, each_backend_client):
        with pytest.raises(DeadlineExceededError):
            each_backend_client.execute(SALES_WORKLOAD[0], timeout=1e-6)

    def test_invalid_timeout_rejected(self, sales_client):
        with pytest.raises(ConfigError):
            sales_client.execute(SALES_WORKLOAD[0], timeout=0)

    def test_slow_stream_consumer_times_out(self, each_backend_client):
        """The one block-boundary check fires on both backends: the
        server stream is pulled on the consumer's thread, so a consumer
        that dawdles past the deadline times out at its next pull."""
        stream = each_backend_client.execute_iter(
            "SELECT o_orderkey FROM orders", block_rows=16, timeout=0.15
        )
        blocks = iter(stream)
        next(blocks)  # first block arrives well inside the deadline
        time.sleep(0.3)
        try:
            with pytest.raises(DeadlineExceededError):
                for _ in blocks:
                    pass
        finally:
            stream.close()

    def test_generous_timeout_changes_nothing(self, sales_client):
        reference = sales_client.execute(SALES_WORKLOAD[0])
        outcome = sales_client.execute(SALES_WORKLOAD[0], timeout=60.0)
        assert canonical(outcome.rows) == canonical(reference.rows)
        assert _primary(outcome.ledger) == _primary(reference.ledger)

    @pytest.mark.parametrize("kind", ["memory", "sqlite", "remote"])
    def test_deadline_through_a_forwarding_view(self, request, kind):
        """A view that forwards its read keywords hands the deadline to
        whatever store it wraps; every store takes it, so a timed query
        through the view returns the bare client's rows and ledger."""
        base = request.getfixturevalue(_CLIENT_FIXTURES[kind])
        client = MonomiClient(
            base.plain_db,
            base.design,
            base.provider,
            _ForwardingView(base.backend),
            base.flags,
            base.network,
            base.disk,
        )
        for sql in SALES_WORKLOAD:
            reference = base.execute(sql)
            outcome = client.execute(sql, timeout=30.0)
            assert canonical(outcome.rows) == canonical(reference.rows), sql
            assert _primary(outcome.ledger) == _primary(reference.ledger), sql


_CLIENT_FIXTURES = {
    "memory": "sales_client",
    "sqlite": "sales_client_sqlite",
    "remote": "sales_client_remote",
}


class _ForwardingView(DelegatingView):
    """Passes every keyword of a read on to its parent, as a tracing or
    recording wrapper does."""

    def execute_stream(self, query, params=None, **kwargs):
        return self._parent.execute_stream(query, params=params, **kwargs)


# -- service-level resilience -------------------------------------------------


class _FlakyView(DelegatingView):
    """Fails the first N query calls with a transient error, then heals.

    Worker views share one state, so ``calls`` counts every query call
    that reached the backend, from any view.
    """

    def __init__(self, parent, failures: int, state: dict | None = None):
        super().__init__(parent)
        self._state = state if state is not None else {"left": failures, "calls": 0}

    @property
    def calls(self) -> int:
        return self._state["calls"]

    def _maybe_fail(self) -> None:
        self._state["calls"] += 1
        if self._state["left"] > 0:
            self._state["left"] -= 1
            raise InjectedFaultError("flaky backend")

    def execute_stream(
        self, query, params=None, block_rows=DEFAULT_BLOCK_ROWS, deadline=None
    ):
        self._maybe_fail()
        return self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )

    def worker_view(self):
        return _FlakyView(self._parent.worker_view(), 0, state=self._state)


def _flaky_client(sales_client, failures: int) -> tuple[MonomiClient, _FlakyView]:
    """A client over the fixture's store whose first ``failures`` query
    calls fault, and no others: the flaky view sits on the bare store
    (any chaos proxy peeled off), under a rate-0 proxy that injects
    nothing and keeps ``--chaos`` from arming this client."""
    base = sales_client.backend
    while isinstance(base, FaultInjectingBackend):
        base = base._parent
    flaky = _FlakyView(base, failures)
    client = MonomiClient(
        sales_client.plain_db,
        sales_client.design,
        sales_client.provider,
        FaultInjectingBackend(flaky, rate=0.0),
        sales_client.flags,
        sales_client.network,
        sales_client.disk,
    )
    return client, flaky


class TestServiceResilience:
    """The service adds no retry loop: the worker's executor is the client
    hop's one loop, with the executor's budget of 5 attempts."""

    def test_faults_within_the_budget_recover(self, sales_client):
        reference = sales_client.execute(SALES_WORKLOAD[0])
        client, _ = _flaky_client(sales_client, failures=4)
        with MonomiService(client, workers=1) as service:
            outcome = service.execute(SALES_WORKLOAD[0])
        assert canonical(outcome.rows) == canonical(reference.rows)
        assert _primary(outcome.ledger) == _primary(reference.ledger)
        assert outcome.ledger.retries == 4

    def test_exhausted_budget_is_not_retried_again(self, sales_client):
        client, flaky = _flaky_client(sales_client, failures=5)
        with MonomiService(client, workers=1) as service:
            with pytest.raises(InjectedFaultError):
                service.execute(SALES_WORKLOAD[0])
        assert flaky.calls == 5

    def test_retry_budget_exhaustion_raises_typed_error(self, sales_client):
        client, _ = _flaky_client(sales_client, failures=10**6)
        fast = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        client.executor.retry_policy = fast
        with MonomiService(client, workers=1) as service:
            with pytest.raises(InjectedFaultError):
                service.execute(SALES_WORKLOAD[0])

    def test_submit_timeout_covers_queue_wait(self, sales_client):
        with MonomiService(sales_client, workers=1) as service:
            future = service.submit(SALES_WORKLOAD[0], timeout=1e-6)
            with pytest.raises(DeadlineExceededError):
                future.result()


# -- the load journal ---------------------------------------------------------


class TestLoadJournal:
    def test_begin_and_resume(self, tmp_path):
        journal = LoadJournal(tmp_path / "j")
        assert journal.begin("fp1") is False
        journal.note_table_created("t")
        journal.note_batch("t", 50)
        journal.note_batch("t", 100)
        reopened = LoadJournal(tmp_path / "j")
        assert reopened.begin("fp1") is True
        assert reopened.rows_recorded("t") == 100
        assert not reopened.complete
        reopened.note_load_done()
        assert LoadJournal(tmp_path / "j").complete

    def test_fingerprint_mismatch_is_fatal(self, tmp_path):
        journal = LoadJournal(tmp_path / "j")
        journal.begin("fp1")
        with pytest.raises(LoadJournalError):
            LoadJournal(tmp_path / "j").begin("fp2")

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = LoadJournal(tmp_path / "j")
        journal.begin("fp1")
        journal.note_batch("t", 64)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "batch", "table": "t", "rows_d')  # torn write
        reopened = LoadJournal(tmp_path / "j")
        assert [e["event"] for e in reopened.events] == ["begin", "batch"]
        assert reopened.rows_recorded("t") == 64

    def test_corrupt_interior_line_is_fatal(self, tmp_path):
        journal = LoadJournal(tmp_path / "j")
        journal.begin("fp1")
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("garbage not json\n")
            fh.write('{"event": "batch", "table": "t", "rows_done": 64}\n')
        with pytest.raises(LoadJournalError):
            LoadJournal(tmp_path / "j")


# -- crash-safe resumable load ------------------------------------------------


def _fresh_design(sales_client):
    """The completed design actually loaded on the server."""
    return complete_design(sales_client.design, sales_client.plain_db)


def _server_column(backend, table: str, column: str) -> list:
    result = backend.execute(parse(f"SELECT {column} FROM {table}"))
    return sorted(row[0] for row in result.rows)


class TestCrashSafeLoad:
    def _reference_backend(self, sales_client, provider, tmp_path):
        backend = make_backend(
            "sqlite", name="ref", path=str(tmp_path / "reference.db")
        )
        EncryptedLoader(sales_client.plain_db, provider).load_into(
            backend, sales_client.design
        )
        return backend

    def _assert_stores_equal(self, sales_client, reference, resumed):
        completed = _fresh_design(sales_client)
        assert reference.table_names() == resumed.table_names()
        for table in reference.table_names():
            assert reference.row_count(table) == resumed.row_count(table)
            assert reference.table_bytes(table) == resumed.table_bytes(table)
        # DET and OPE are deterministic under the (PRF-derived, hence
        # cross-process identical) keys: those columns must match bitwise.
        for entry in completed.entries:
            if entry.scheme in (Scheme.DET, Scheme.OPE):
                assert _server_column(
                    reference, entry.table, entry.column_name
                ) == _server_column(resumed, entry.table, entry.column_name)
        assert reference.total_bytes == resumed.total_bytes

    def test_journaled_load_equals_plain_load(self, sales_client, provider, tmp_path):
        reference = self._reference_backend(sales_client, provider, tmp_path)
        backend = make_backend("sqlite", name="j", path=str(tmp_path / "journaled.db"))
        EncryptedLoader(sales_client.plain_db, provider).load_into(
            backend,
            sales_client.design,
            journal=tmp_path / "journal",
            batch_rows=64,
        )
        self._assert_stores_equal(sales_client, reference, backend)
        assert LoadJournal(tmp_path / "journal").complete

    def test_killed_load_resumes_without_reencrypting(
        self, sales_client, sales_db, provider, tmp_path
    ):
        """A load hard-killed mid-table resumes to an identical store.

        The child process dies via ``os._exit`` after 3 committed batches
        (customer done, orders partway) — no cleanup, no flush beyond the
        journal's fsync, same file-state semantics as ``kill -9``.
        """
        design_file = tmp_path / "design.pkl"
        with open(design_file, "wb") as fh:
            pickle.dump(sales_client.design, fh)
        db_file = tmp_path / "crash.db"
        journal_dir = tmp_path / "journal"

        child = textwrap.dedent(
            """
            import os, pickle, sys
            from repro.core import CryptoProvider
            from repro.core.loader import EncryptedLoader
            from repro.server import make_backend
            from repro.testkit import MASTER_KEY, build_sales_db

            design = pickle.load(open(sys.argv[1], "rb"))
            backend = make_backend("sqlite", name="crash", path=sys.argv[2])
            committed = {"n": 0}
            real_insert = backend.insert_rows

            def dying_insert(table, rows):
                real_insert(table, rows)
                committed["n"] += 1
                if committed["n"] >= 3:
                    os._exit(137)  # hard kill: no cleanup runs

            backend.insert_rows = dying_insert
            provider = CryptoProvider(MASTER_KEY, paillier_bits=384)
            loader = EncryptedLoader(build_sales_db(), provider)
            loader.load_into(
                backend, design, journal=sys.argv[3], batch_rows=64
            )
            raise SystemExit("load finished without crashing")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", child, str(design_file), str(db_file),
             str(journal_dir)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 137, proc.stderr

        journal = LoadJournal(journal_dir)
        assert not journal.complete
        assert journal.rows_recorded("customer") == 30

        # Resume in this process: a fresh backend over the same file and
        # a fresh loader (keys re-derived from the master key, exactly as
        # a restarted load daemon would).
        resumed = make_backend("sqlite", name="crash", path=str(db_file))
        # The kill hit after the insert committed but before the journal
        # append, so the backend is one batch *ahead* of the journal —
        # resume must trust the backend's committed count, not the
        # journal's trailing watermark.
        committed_before = resumed.row_count("orders")
        assert 0 < committed_before < 240
        assert committed_before >= journal.rows_recorded("orders")
        inserts = {"n": 0}
        real_insert = resumed.insert_rows

        def counting_insert(table, rows):
            inserts["n"] += 1
            rows = list(rows)
            assert all(len(row) > 0 for row in rows)
            return real_insert(table, rows)

        resumed.insert_rows = counting_insert
        EncryptedLoader(sales_db, provider).load_into(
            resumed, sales_client.design, journal=journal_dir, batch_rows=64
        )
        # Only the uncommitted orders batches were (re-)encrypted and
        # inserted: 240 rows minus what survived the kill, in 64-row
        # batches — never the already-committed work.
        expected = -(-(240 - committed_before) // 64)
        assert inserts["n"] == expected
        assert LoadJournal(journal_dir).complete

        reference = self._reference_backend(sales_client, provider, tmp_path)
        self._assert_stores_equal(sales_client, reference, resumed)

        # The resumed store decrypts correctly end to end, with the same
        # primary ledger bytes as the fault-free in-memory client.
        client = MonomiClient(
            sales_client.plain_db,
            sales_client.design,
            provider,
            resumed,
            sales_client.flags,
            sales_client.network,
            sales_client.disk,
        )
        for sql in SALES_WORKLOAD[:3]:
            expected_outcome = sales_client.execute(sql)
            outcome = client.execute(sql)
            assert canonical(outcome.rows) == canonical(expected_outcome.rows)
            assert _primary(outcome.ledger) == _primary(expected_outcome.ledger)

    def test_saved_hom_files_skip_paillier_reencryption(
        self, sales_client, sales_db, provider, tmp_path, monkeypatch
    ):
        """Packed Paillier files persisted by the journal are reused: a
        resume into an empty backend re-inserts rows but must never rerun
        the (expensive) Paillier packing."""
        completed = _fresh_design(sales_client)
        if not completed.hom_groups:
            pytest.skip("sales design carries no homomorphic groups")
        journal_dir = tmp_path / "journal"
        first = make_backend("sqlite", name="a", path=str(tmp_path / "first.db"))
        loader = EncryptedLoader(sales_db, provider)
        loader.load_into(first, sales_client.design, journal=journal_dir, batch_rows=64)
        saved = [
            e["file"] for e in LoadJournal(journal_dir).events
            if e["event"] == "hom_saved"
        ]
        assert saved

        def no_paillier(*args, **kwargs):
            raise AssertionError("Paillier packing ran again on resume")

        monkeypatch.setattr(provider, "paillier_encrypt_batch", no_paillier)
        second = make_backend("sqlite", name="b", path=str(tmp_path / "second.db"))
        EncryptedLoader(sales_db, provider).load_into(
            second, sales_client.design, journal=journal_dir, batch_rows=64
        )
        store = second.ciphertext_store
        for name in saved:
            assert name in store.names()

    def test_resume_with_wrong_design_is_rejected(
        self, sales_client, sales_db, provider, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        backend = make_backend("sqlite", name="a", path=str(tmp_path / "a.db"))
        loader = EncryptedLoader(sales_db, provider)
        loader.load_into(
            backend, sales_client.design, journal=journal_dir, batch_rows=64
        )
        other = sales_client.design.copy()
        other.add("orders", parse(
            "SELECT o_orderkey FROM orders").items[0].expr, Scheme.OPE)
        fresh = make_backend("sqlite", name="b", path=str(tmp_path / "b.db"))
        with pytest.raises(LoadJournalError):
            loader.load_into(fresh, other, journal=journal_dir, batch_rows=64)


class TestErrorTaxonomy:
    def test_transient_hierarchy(self):
        from repro.common.errors import (
            BackendBusyError,
            TruncatedStreamError,
        )

        for cls in (InjectedFaultError, BackendBusyError, TruncatedStreamError):
            assert issubclass(cls, TransientError)
        for cls in (DeadlineExceededError, LoadJournalError):
            assert not issubclass(cls, TransientError)
