"""Shared multicore plumbing: worker-count policy and a resilient pool.

Batch crypto in :class:`~repro.core.encdata.CryptoProvider` fans work out
across cores through this module, so the policy questions are answered
exactly once:

* **How many workers?**  An explicit ``workers=N`` wins; ``workers=None``
  consults the ``MONOMI_WORKERS`` environment variable and defaults to 1
  (serial).  ``0`` means "one per core".  Anything unparseable raises
  :class:`~repro.common.errors.ConfigError` instead of silently running
  serial — a misconfigured deployment should fail loudly, not slowly.
* **What if processes are unavailable?**  Sandboxes without working
  semaphores (or fork) exist; :class:`WorkerPool` degrades to in-process
  execution on pool-creation failure and remembers the decision, so the
  parallel and serial code paths stay byte-identical by construction
  (the same worker functions run either way).
* **What if workers crash later?**  A worker killed mid-batch
  (``BrokenProcessPool``) finishes the in-flight call serially, then the
  pool **respawns** on its next use — a one-off crash (OOM kill, signal)
  does not cost parallelism forever.  A circuit breaker bounds the
  optimism: after ``max_respawns`` consecutive breaks without an
  intervening healthy call, the pool falls back to serial permanently.
  Every health transition is counted (:meth:`WorkerPool.stats`) and the
  first serial fallback is logged once at WARNING — a degraded pool is
  visible, never silent.
* **How is work split?**  :func:`shard_spans` cuts ``n`` items into at
  most ``parts`` contiguous, near-equal spans.  Contiguity is what makes
  ordered re-merge trivial: concatenating span results in span order
  reproduces the serial output order exactly.
"""

from __future__ import annotations

import logging
import os
import queue as queue_mod
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.errors import ConfigError

WORKERS_ENV = "MONOMI_WORKERS"

logger = logging.getLogger("repro.parallel")


def _parse_count(raw: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV} must be an integer (0 = one per core), got {raw!r}"
        ) from None
    if count < 0:
        raise ConfigError(f"{WORKERS_ENV} must be >= 0, got {count}")
    return count if count > 0 else (os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker count: explicit value > ``MONOMI_WORKERS`` > serial.

    ``0`` (explicit or via env) means one worker per CPU core.  Negative
    or unparseable values raise :class:`ConfigError`.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            return 1
        return _parse_count(raw)
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


def shard_spans(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous spans.

    Spans are near-equal (sizes differ by at most one) and returned in
    order, so concatenating per-span results preserves the serial order.
    Empty spans are never produced; fewer than ``parts`` spans come back
    when ``total < parts``.
    """
    if parts < 1:
        raise ConfigError(f"partition count must be >= 1, got {parts}")
    parts = min(parts, total)
    if parts <= 0:
        return []
    base, extra = divmod(total, parts)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


@dataclass(frozen=True)
class PoolStats:
    """Point-in-time health counters for one :class:`WorkerPool`.

    ``spawn_failures`` — pool-creation attempts that failed (no
    semaphores / fork blocked); ``breaks`` — live pools whose workers
    died mid-call (``BrokenProcessPool``); ``respawns`` — executors
    recreated after a break; ``serial_tasks`` — payloads that ran
    in-process because no healthy pool was available (includes the
    serial halves of broken calls); ``circuit_open`` — the breaker
    tripped, the pool is permanently serial.
    """

    workers: int
    parallel: bool
    spawn_failures: int
    breaks: int
    respawns: int
    serial_tasks: int
    circuit_open: bool


class WorkerPool:
    """A lazily created process pool with respawn and a serial fallback.

    The pool spins up on first use and persists for the owner's lifetime
    (worker initialization — key derivation, cipher setup — is paid once
    per process, not per batch).  Failure handling is layered:

    * **Creation failure** (no semaphores, fork blocked): environmental
      and permanent — the pool opens its circuit immediately and every
      call runs the same worker function in-process.
    * **Worker crash mid-call** (``BrokenProcessPool``): the in-flight
      call finishes serially — correctness first — then the executor is
      recreated on the next use.  After ``max_respawns`` consecutive
      breaks with no healthy call in between, the circuit opens and the
      pool stays serial (a crash loop is not worth chasing).

    Either way callers never need a second code path, and the first
    fallback is logged once at WARNING with the pool's counters.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
        max_respawns: int = 2,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"pool needs at least 1 worker, got {workers}")
        self.workers = workers
        self.max_respawns = max_respawns
        self._initializer = initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None
        self._failed = False
        self._local_initialized = False
        # Concurrent service sessions share one pool: creation must not
        # race two executors into existence (the loser would leak worker
        # processes for the owner's lifetime).
        self._create_lock = threading.Lock()
        # Health counters (mutated under _create_lock where racy).
        self._spawn_failures = 0
        self._breaks = 0
        self._respawns = 0
        self._serial_tasks = 0
        self._consecutive_breaks = 0
        self._respawn_pending = False
        self._warned = False

    @property
    def parallel(self) -> bool:
        """True when calls actually fan out across processes."""
        return self.workers > 1 and not self._failed

    def stats(self) -> PoolStats:
        return PoolStats(
            workers=self.workers,
            parallel=self.parallel,
            spawn_failures=self._spawn_failures,
            breaks=self._breaks,
            respawns=self._respawns,
            serial_tasks=self._serial_tasks,
            circuit_open=self._failed,
        )

    def _warn_once(self, reason: str) -> None:
        if self._warned:
            return
        self._warned = True
        logger.warning(
            "worker pool degraded to in-process execution (%s); "
            "workers=%d spawn_failures=%d breaks=%d respawns=%d",
            reason,
            self.workers,
            self._spawn_failures,
            self._breaks,
            self._respawns,
        )

    def _note_break(self) -> None:
        """Record a mid-call pool break and decide respawn vs circuit-open."""
        with self._create_lock:
            self._breaks += 1
            self._consecutive_breaks += 1
            if self._consecutive_breaks > self.max_respawns:
                self._failed = True
                self._warn_once(
                    f"circuit opened after {self._consecutive_breaks} "
                    "consecutive worker-pool breaks"
                )
            else:
                self._respawn_pending = True
        self.close()

    def _note_healthy(self) -> None:
        """A parallel call completed: the respawned pool earned its keep."""
        if self._consecutive_breaks:
            with self._create_lock:
                self._consecutive_breaks = 0

    def _ensure(self) -> ProcessPoolExecutor | None:
        if self.workers <= 1 or self._failed:
            return None
        if self._executor is None:
            with self._create_lock:
                if self._executor is not None or self._failed:
                    return self._executor
                try:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=self._initializer,
                        initargs=self._initargs,
                    )
                except (OSError, ValueError):
                    # No semaphores / no fork: environmental, permanent.
                    self._spawn_failures += 1
                    self._failed = True
                    self._warn_once("process pool creation failed")
                    return None
                if self._respawn_pending:
                    self._respawn_pending = False
                    self._respawns += 1
        return self._executor

    def _ensure_local_init(self) -> None:
        if self._initializer is not None and not self._local_initialized:
            self._initializer(*self._initargs)
            self._local_initialized = True

    def _run_local(self, fn: Callable, payloads: Sequence) -> list:
        self._ensure_local_init()
        self._serial_tasks += len(payloads)
        return [fn(payload) for payload in payloads]

    def map_ordered(self, fn: Callable, payloads: Sequence) -> list:
        """Run ``fn`` over ``payloads``, results in submission order.

        Falls back to in-process execution when the pool is serial or
        broke at creation; a worker crash (``BrokenProcessPool``) retries
        the call serially, then the pool respawns on its next use (until
        the circuit breaker opens) — correctness over parallelism.
        Exceptions *raised by the task function* are not pool failures:
        they propagate unchanged and leave the pool healthy.
        """
        executor = self._ensure()
        if executor is None:
            return self._run_local(fn, payloads)
        try:
            results = list(executor.map(fn, payloads))
        except (OSError, BrokenProcessPool):
            # OSError: worker processes spawn lazily on first submit, so a
            # sandbox that allows semaphores but blocks process creation
            # fails here, not in _ensure.  Task functions in this codebase
            # do no file/socket IO, so an OSError is pool machinery.
            self._note_break()
            return self._run_local(fn, payloads)
        self._note_healthy()
        return results

    def close(self) -> None:
        """Shut the pool down; it re-creates lazily if used again."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def queue_put_bounded(
    out: queue_mod.Queue, item: object, stop: threading.Event
) -> bool:
    """Bounded queue put that gives up once ``stop`` is set.

    The producer half of every bounded pipeline in this codebase (the
    plan executor's prefetch queue, the sharded stream producers): block on
    a full queue, but poll the stop flag so a consumer that closed early
    never strands the producer.  Returns False when it gave up.
    """
    while not stop.is_set():
        try:
            out.put(item, timeout=0.05)
            return True
        except queue_mod.Full:
            continue
    return False
