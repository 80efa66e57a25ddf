"""Fault injection: a chaos proxy over any :class:`ServerBackend`.

:class:`FaultInjectingBackend` wraps a real backend and injects the
failures a networked MONOMI deployment would actually see — transient
request errors, result streams cut off mid-flight, latency spikes — at
the seam where the client library talks to the untrusted server.  The
rest of the stack is untouched: the resilience layer (retries in
:mod:`repro.common.retry`, stream resume in the plan executor, deadline
propagation) is exercised by the *same* query paths the production
configuration runs, which is the point.

Determinism: every injection decision comes from one seeded
``random.Random`` shared (under a lock) by the wrapper and all of its
worker views, so a single-threaded run with a given ``(seed, rate)``
replays the exact same fault schedule.  Concurrent service runs
interleave draws nondeterministically — there the guarantee under test
is the *invariant*, not the schedule: whatever faults land, a query
either returns byte-identical results to a fault-free run or raises a
typed error.

Arming is always explicit: wrap a backend yourself, or pass
``chaos=(seed, rate)`` to :class:`~repro.net.MonomiServer`.  The test
suites' ``--chaos`` option wraps every client they build, which turns
the whole equivalence suite into a chaos suite.

Failure-probability design note: injection is a Bernoulli draw per
*point* (one per request, one per streamed block), so long streams see
more faults than short ones — realistic, and safe because the
executor's stream resume resets its retry budget whenever an attempt
receives any block at all (a resume replays already-delivered rows
through fresh fault draws, so a budget keyed on *new* rows would
compound with stream depth).  A query fails permanently only after
``max_attempts`` faults with zero blocks received in between,
probability ``rate ** max_attempts`` per point — negligible at the
rates CI runs.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Iterable, Iterator

from repro.common.errors import (
    ConfigError,
    InjectedFaultError,
    TruncatedStreamError,
)
from repro.common.retry import Deadline
from repro.engine.rowblock import DEFAULT_BLOCK_ROWS, BlockStream, RowBlock
from repro.server.backend import DelegatingView, ServerBackend
from repro.sql import ast

#: Upper bound on one injected latency spike (seconds) — large enough to
#: perturb scheduling, small enough that chaos CI stays fast.
_MAX_LATENCY_SPIKE = 0.005


class _ChaosCore:
    """The shared heart of one chaos configuration: RNG, lock, counters.

    One core is shared by a :class:`FaultInjectingBackend` and every
    worker view it hands out, so the whole service sees one fault
    schedule and one set of counters.
    """

    def __init__(self, seed: int, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"chaos rate must be in [0, 1], got {rate}")
        self.seed = seed
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.draws = 0
        self.injected_errors = 0
        self.truncations = 0
        self.latency_spikes = 0

    def rng_copy(self) -> random.Random:
        """An independently seeded RNG for retry jitter (not the fault RNG:
        backoff draws must not shift the fault schedule)."""
        return random.Random(self.seed ^ 0x5EED)

    def decide_call(self, what: str) -> None:
        """One injection point before a request: maybe raise, else return."""
        with self._lock:
            self.draws += 1
            if self.rate <= 0.0 or self._rng.random() >= self.rate:
                return
            self.injected_errors += 1
        raise InjectedFaultError(f"injected fault before {what}")

    def decide_after(self, what: str) -> None:
        """One injection point *after* a write applied: the lost-ack
        fault.  The server committed; the client sees a transient error
        and will retry — exactly the case the write path's idempotency
        discipline (watermarks, exact-tuple matching, apply tokens)
        exists to survive."""
        with self._lock:
            self.draws += 1
            if self.rate <= 0.0 or self._rng.random() >= self.rate:
                return
            self.injected_errors += 1
        raise InjectedFaultError(
            f"injected fault after {what}: apply committed, ack lost"
        )

    def decide_stream_point(self) -> tuple[str, float] | None:
        """One injection point per streamed block.

        Returns ``None`` (no fault), ``("latency", seconds)`` or a
        ``("error" | "truncate", 0.0)`` verdict the caller turns into the
        matching exception.  The sleep itself happens outside the lock.
        """
        with self._lock:
            self.draws += 1
            if self.rate <= 0.0 or self._rng.random() >= self.rate:
                return None
            kind_draw = self._rng.random()
            if kind_draw < 0.4:
                self.injected_errors += 1
                return ("error", 0.0)
            if kind_draw < 0.7:
                self.truncations += 1
                return ("truncate", 0.0)
            self.latency_spikes += 1
            return ("latency", self._rng.uniform(0.0005, _MAX_LATENCY_SPIKE))

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            return {
                "seed": self.seed,
                "rate": self.rate,
                "draws": self.draws,
                "injected_errors": self.injected_errors,
                "truncations": self.truncations,
                "latency_spikes": self.latency_spikes,
            }


class FaultInjectingBackend(DelegatingView):
    """A chaos proxy: delegates to a real backend, injecting faults.

    Injection points (each a Bernoulli draw at the configured rate):

    * **before** every ``execute_stream`` (``execute`` drains one) and
      every write
      (``insert_rows`` / ``delete_rows`` / ``replace_rows`` /
      ``hom_apply``) — a transient :class:`InjectedFaultError`, as if
      the request never reached the server (no server work is wasted,
      matching a connection failure);
    * **after** every write — the lost-ack fault: the server applied
      the change, the client sees a transient error and retries.  Only
      the write path's idempotency discipline (insert watermarks,
      exact-tuple delete/replace matching, hom apply tokens) keeps a
      retried request from double-applying;
    * **per block** of a streamed result —
      :class:`InjectedFaultError` (connection dropped),
      :class:`TruncatedStreamError` (result cut off mid-flight), or a
      latency spike (the block arrives late but intact).

    Loads through ``create_table`` / ``add_ciphertext_file`` and all
    introspection pass through untouched — chaos targets the query and
    write paths the resilience layer defends.
    """

    def __init__(
        self,
        parent: ServerBackend,
        seed: int = 0,
        rate: float = 0.0,
        core: _ChaosCore | None = None,
    ) -> None:
        super().__init__(parent)
        self._core = core if core is not None else _ChaosCore(seed, rate)

    @property
    def kind(self) -> str:  # type: ignore[override]
        return f"chaos({self._parent.kind})"

    @property
    def chaos_rng(self) -> random.Random:
        """Seeded jitter RNG for the retry layer (deterministic runs)."""
        return self._core.rng_copy()

    def stats(self) -> dict[str, int | float]:
        """Injection counters so tests can assert chaos actually fired."""
        return self._core.stats()

    def worker_view(self) -> ServerBackend:
        """Wrap the parent's worker view; all views share one fault RNG."""
        return FaultInjectingBackend(self._parent.worker_view(), core=self._core)

    def close(self) -> None:
        """Release the wrapped view/backend's resources.

        Without this delegation, closing a service whose worker views are
        chaos-wrapped would silently leak the underlying views' SQLite
        connections (and a remote backend's sockets): the service closes
        the view it was handed, which is the wrapper.
        """
        self._parent.close()

    # -- faulted paths -------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> None:
        # Materialize first: a retried call must re-send identical rows
        # even when the caller handed us a one-shot iterable.
        rows = list(rows)
        self._core.decide_call(f"insert_rows({table_name!r})")
        self._parent.insert_rows(table_name, rows)
        self._core.decide_after(f"insert_rows({table_name!r})")

    def delete_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        rows = list(rows)
        self._core.decide_call(f"delete_rows({table_name!r})")
        count = self._parent.delete_rows(table_name, rows)
        self._core.decide_after(f"delete_rows({table_name!r})")
        return count

    def replace_rows(
        self, table_name: str, pairs: Iterable[tuple[tuple, tuple]]
    ) -> int:
        pairs = list(pairs)
        self._core.decide_call(f"replace_rows({table_name!r})")
        count = self._parent.replace_rows(table_name, pairs)
        self._core.decide_after(f"replace_rows({table_name!r})")
        return count

    def hom_apply(
        self,
        file_name: str,
        updates: Iterable[tuple[int, int]] = (),
        appended: Iterable[int] = (),
        num_rows: int | None = None,
        token: str | None = None,
    ) -> None:
        updates = list(updates)
        appended = list(appended)
        self._core.decide_call(f"hom_apply({file_name!r})")
        self._parent.hom_apply(
            file_name,
            updates=updates,
            appended=appended,
            num_rows=num_rows,
            token=token,
        )
        self._core.decide_after(f"hom_apply({file_name!r})")

    def execute_stream(
        self,
        query: ast.Select,
        params: dict[str, object] | None = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        deadline: Deadline | None = None,
    ) -> BlockStream:
        self._core.decide_call("execute_stream")
        parent_stream = self._parent.execute_stream(
            query, params=params, block_rows=block_rows, deadline=deadline
        )
        blocks = self._faulted_blocks(parent_stream)
        return BlockStream(parent_stream.columns, blocks, parent_stream.stats)

    def _faulted_blocks(self, parent_stream: BlockStream) -> Iterator[RowBlock]:
        try:
            for block in parent_stream:
                verdict = self._core.decide_stream_point()
                if verdict is not None:
                    kind, sleep_for = verdict
                    if kind == "latency":
                        time.sleep(sleep_for)
                    elif kind == "error":
                        raise InjectedFaultError(
                            "injected fault while streaming result blocks"
                        )
                    else:
                        raise TruncatedStreamError(
                            "injected truncation: stream cut off mid-result"
                        )
                yield block
        finally:
            parent_stream.close()
