"""Exception hierarchy for the MONOMI reproduction.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library errors without catching programming mistakes (``TypeError`` and
friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ReproError):
    """A failure that is expected to succeed if the operation is retried.

    The resilience layer's taxonomy root: anything the stack may retry
    (with capped exponential backoff, accounted in the ledger's
    ``retry_bytes``/``retries`` counters) derives from this class.
    Everything else in the :class:`ReproError` hierarchy is *fatal* —
    retrying a planning error or a corrupt ciphertext repeats the
    failure, so those surface to the caller on the first attempt.
    """


class BackendBusyError(TransientError):
    """The server engine is transiently unavailable (SQLITE_BUSY/LOCKED).

    Raised by backends after their own bounded in-engine retries are
    exhausted; the query-level retry layer may still re-run the whole
    statement.
    """


class TruncatedStreamError(TransientError):
    """A result stream ended before delivering its full result.

    In a networked deployment the wire protocol detects this via
    framing; here the fault-injection proxy raises it directly.  The
    plan executor recovers by re-running the (deterministic) server
    query and fast-forwarding past the rows it already delivered.
    """


class InjectedFaultError(TransientError):
    """A fault deliberately injected by the chaos harness.

    Never raised in production configurations; exists so tests can tell
    injected faults from organic ones while exercising the same retry
    paths.
    """


class ConnectionLostError(TransientError):
    """The transport connection to the server died mid-request.

    Raised by the network client when a socket closes, resets, or times
    out idle-side between frames.  Transient: the request is re-sent on a
    fresh connection (deterministic server queries make the replay safe),
    and the stream-resume layer fast-forwards past rows already
    delivered, exactly as it does for :class:`TruncatedStreamError`.
    """


class DeadlineExceededError(ReproError):
    """A query ran past its deadline.  Fatal: deadlines are not retried."""


class LoadJournalError(ReproError):
    """A bulk-load journal cannot be used to resume (corrupt, or written
    for a different design/database than the one being loaded)."""


class ConfigError(ReproError):
    """An execution-layer configuration is contradictory or unusable.

    Raised instead of silently falling back when the caller explicitly
    asked for a mode the stack cannot honor — e.g. a ``block_rows`` below
    one, a DML statement on a backend without a write path, or a
    maintained-aggregate ``splits`` that is not an int of at least one.
    """


class WireError(ReproError):
    """Base class for wire-protocol errors.  Fatal: a peer that violates
    the protocol cannot be negotiated with by retrying."""


class FramingError(WireError):
    """A frame violated the framing layer: bad magic, unknown frame type,
    an oversized length prefix, or bytes left over where a frame boundary
    was required."""


class UnsupportedVersionError(WireError):
    """The peer speaks a protocol version this build does not."""


class CodecError(WireError):
    """A frame payload could not be decoded (truncated value, unknown
    type tag, malformed structure).  The framing was intact — the bytes
    inside it were not."""


class RemoteError(ReproError):
    """A fatal error relayed from the remote server whose concrete type
    this client does not know.  Carries the remote message verbatim."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, corrupt ciphertext, ...)."""


class DomainError(CryptoError):
    """A plaintext fell outside the domain an encryption scheme supports."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class LexError(SQLError):
    """The lexer met a character sequence it cannot tokenize."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """The parser met an unexpected token."""


class EngineError(ReproError):
    """Base class for execution engine errors."""


class CatalogError(EngineError):
    """Unknown table/column, duplicate definition, or schema mismatch."""


class ExecutionError(EngineError):
    """A query failed while executing (type error, bad aggregate use, ...)."""


class PlanningError(ReproError):
    """The MONOMI planner could not produce a plan for a query."""


class UnsupportedQueryError(PlanningError):
    """The query uses a construct MONOMI does not support (paper §7).

    Mirrors the paper's documented limitations: views and multi-pattern
    ``LIKE`` (TPC-H queries 13, 15, 16).
    """


class DesignError(ReproError):
    """The designer could not produce a physical design."""


class InfeasibleDesignError(DesignError):
    """No design satisfies the space constraint (requires S >= 1)."""
