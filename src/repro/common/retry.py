"""Retries and deadlines: the resilience layer's two shared primitives.

A transient fault is retried by exactly one loop, the one on the hop
where it happened (the table in ``docs/fault-model.md``):

* **client ↔ its backend handle** — the plan executor, the DML executor,
  the loader and the maintained aggregates, each through
  :func:`retry_call` (one request) or
  :class:`~repro.engine.rowblock.ResilientStream` (one block stream);
* **server ↔ its hosted store** — :class:`~repro.net.server.MonomiServer`
  retries every WRITE and the open of every EXECUTE itself;
* **coordinator ↔ shard** — :class:`~repro.server.sharded.ShardedBackend`
  retries each shard's request or stream alone.

Every loop runs under one :class:`RetryPolicy` shape and sleeps through
:func:`backoff`, so backoff and attempt caps are decided exactly once.
The taxonomy is the one in :mod:`repro.common.errors`: only
:class:`~repro.common.errors.TransientError` subclasses are retried;
everything else is fatal and propagates on the first attempt.

:class:`Deadline` is the cancellation half: a monotonic-clock expiry
created at query entry (``execute(timeout=...)``) and threaded through
planner → executor → backend → shard stream producers, checked at block
boundaries so streams and producer threads shut down cleanly instead of
running to completion for a caller that stopped listening.
Backoff sleeps are capped by the deadline's remaining time, so a retrying
query can never sleep past its own expiry.

Determinism: backoff jitter draws from a caller-supplied
``random.Random`` (the chaos harness seeds it), never from global
process randomness — a fault schedule plus a seed reproduces the exact
same retry timing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    TransientError,
)

T = TypeVar("T")


class Deadline:
    """A monotonic-clock expiry for one query execution.

    Cheap to check (one ``perf_counter`` read), safe to share across the
    threads cooperating on a query: the shard stream producers and the
    consuming client all poll the same instance.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0:
            raise ConfigError(f"timeout must be > 0 seconds, got {seconds}")
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past it)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, what: str = "query") -> None:
        """Raise :class:`DeadlineExceededError` once the deadline passed."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"{what} exceeded its deadline by {-remaining:.3f}s"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with proportional jitter.

    Delay before retry *k* (1-based) is
    ``min(max_delay, base_delay * multiplier**(k-1))`` scaled by a
    jitter factor uniform in ``[1 - jitter/2, 1 + jitter/2]``.  The
    defaults keep total worst-case sleep under ~1 s across all attempts
    — transient faults in this stack (lock contention, injected chaos)
    clear in milliseconds, and tests exercise the full attempt budget.
    """

    max_attempts: int = 5
    base_delay: float = 0.004
    max_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("retry delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if rng is None or self.jitter == 0:
            return raw
        return raw * (1 - self.jitter / 2 + self.jitter * rng.random())


#: One retry disabled everywhere: handy for tests and overhead benches.
NO_RETRY = RetryPolicy(max_attempts=1)


def is_transient(exc: BaseException) -> bool:
    """The taxonomy rule: only :class:`TransientError` subclasses retry."""
    return isinstance(exc, TransientError)


def backoff(
    policy: RetryPolicy,
    attempt: int,
    rng: random.Random | None,
    deadline: Deadline | None,
    cause: BaseException,
) -> None:
    """Sleep the policy's backoff before retry ``attempt``, capped by the
    deadline's remaining time; raise :class:`DeadlineExceededError` (from
    ``cause``) when the deadline has already passed."""
    pause = policy.delay(attempt, rng)
    if deadline is not None:
        remaining = deadline.remaining()
        if remaining <= 0:
            raise DeadlineExceededError(
                "deadline expired while retrying transient error"
            ) from cause
        pause = min(pause, remaining)
    if pause > 0:
        time.sleep(pause)


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy,
    deadline: Deadline | None = None,
    rng: random.Random | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Call ``fn`` with transient-error retries under ``policy``.

    Fatal errors propagate on the first raise.  Transient errors retry
    up to ``policy.max_attempts`` total attempts, sleeping the policy's
    backoff between them (capped by the deadline's remaining time); the
    final transient error re-raises unchanged, so callers always see the
    typed error that actually occurred.  ``on_retry(attempt, exc)`` runs
    before each sleep — the hook every layer uses to count retries.
    """
    attempt = 0
    while True:
        if deadline is not None:
            deadline.check()
        try:
            return fn()
        except TransientError as exc:
            attempt += 1
            if attempt >= policy.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            backoff(policy, attempt, rng, deadline, exc)
