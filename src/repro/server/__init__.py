"""Untrusted-server backends: the seam behind MONOMI's server half.

`make_backend("memory" | "sqlite")` builds a fresh backend;
`as_backend(database_or_backend)` adapts the pre-backend calling
convention (a raw `engine.Database`); `make_sharded_backend` puts N
fresh backends behind the scatter-gather coordinator.
"""

from __future__ import annotations

from repro.server.backend import ServerBackend, as_backend
from repro.server.chaos import FaultInjectingBackend
from repro.server.inmemory import InMemoryBackend
from repro.server.sharded import ShardedBackend, make_sharded_backend
from repro.server.sqlite import SQLiteBackend

BACKEND_KINDS = ("memory", "sqlite")


def make_backend(kind: str, name: str = "server", **options) -> ServerBackend:
    """Build a fresh backend by kind name ("memory" or "sqlite")."""
    if kind == "memory":
        return InMemoryBackend(name=name)
    if kind == "sqlite":
        return SQLiteBackend(name=name, **options)
    raise ValueError(f"unknown backend kind {kind!r} (expected {BACKEND_KINDS})")


__all__ = [
    "BACKEND_KINDS",
    "FaultInjectingBackend",
    "InMemoryBackend",
    "SQLiteBackend",
    "ServerBackend",
    "ShardedBackend",
    "as_backend",
    "make_backend",
    "make_sharded_backend",
]
