"""Shared fixtures: a small sales database and a loaded MONOMI client.

Expensive artifacts (Paillier keys, encrypted loads, TPC-H generation) are
session-scoped; tests must not mutate them.  The data builders and
comparison helpers live in :mod:`repro.testkit` so the benchmark harness
can share them without cross-conftest imports.
"""

from __future__ import annotations

import pytest

from repro.core import CryptoProvider, MonomiClient
from repro.engine import Database, Executor
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db


@pytest.fixture(scope="session")
def sales_db() -> Database:
    return build_sales_db()


@pytest.fixture(scope="session")
def provider() -> CryptoProvider:
    return CryptoProvider(MASTER_KEY, paillier_bits=384)


@pytest.fixture(scope="session")
def sales_client(sales_db, provider) -> MonomiClient:
    return MonomiClient.setup(
        sales_db,
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
    )


@pytest.fixture(scope="session")
def sales_client_sqlite(sales_db, provider, sales_client) -> MonomiClient:
    """Same design and key chain as ``sales_client``, but the untrusted
    server is a real SQLite database.  Sharing the provider keeps the
    launch-time decryption profile (and hence plan choice) identical, so
    ledgers are comparable byte-for-byte across backends."""
    return MonomiClient.setup(
        sales_db,
        SALES_WORKLOAD,
        master_key=MASTER_KEY,
        paillier_bits=384,
        space_budget=2.5,
        provider=provider,
        design=sales_client.design,
        backend="sqlite",
    )


@pytest.fixture(params=["memory", "sqlite"])
def each_backend_client(request, sales_client, sales_client_sqlite) -> MonomiClient:
    """Parametrizes a test over both untrusted-server backends."""
    if request.param == "memory":
        return sales_client
    return sales_client_sqlite


@pytest.fixture(scope="session")
def plain_executor(sales_db) -> Executor:
    return Executor(sales_db)


@pytest.fixture(scope="session")
def sales_server(sales_client):
    """A live TCP loopback server hosting ``sales_client``'s backend.

    The in-process client and the network client below share one
    encrypted database, so rows *and* ledger byte counts must be
    byte-identical between them — that is the invariant most of the
    network suite asserts.
    """
    from repro.net import MonomiServer

    with MonomiServer(sales_client.backend) as server:
        yield server


@pytest.fixture(scope="session")
def sales_client_remote(sales_db, provider, sales_client, sales_server):
    """``sales_client``'s twin, across the wire: same design, same
    provider (hence the same key chain and plan choices), but every
    server request crosses a real TCP socket."""
    client = MonomiClient.connect(
        sales_server.address,
        sales_db,
        design=sales_client.design,
        provider=provider,
    )
    yield client
    client.close()
