"""Shared fixtures: a small sales database and a loaded MONOMI client.

Expensive artifacts (Paillier keys, encrypted loads, TPC-H generation) are
session-scoped; tests must not mutate them.  The data builders and
comparison helpers live in :mod:`repro.testkit` so the benchmark harness
can share them without cross-conftest imports.

Two options re-run whole suites as a matrix (CI's shard and chaos legs):

* ``--shards=N`` sets up every client that names a backend kind and no
  ``shards=`` of its own over N shards;
* ``--chaos=seed:rate`` arms a :class:`FaultInjectingBackend` around
  every client's backend and every hosted store not armed already.
"""

from __future__ import annotations

import functools
import inspect

import pytest

from repro.core import CryptoProvider, MonomiClient
from repro.engine import Database, Executor
from repro.net import MonomiServer
from repro.server import FaultInjectingBackend, as_backend
from repro.testkit import MASTER_KEY, SALES_WORKLOAD, build_sales_db, parse_chaos


def pytest_addoption(parser):
    group = parser.getgroup("monomi", "MONOMI suite matrix")
    group.addoption(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="set up clients that name a backend kind over N shards",
    )
    group.addoption(
        "--chaos",
        default=None,
        metavar="SEED:RATE",
        help="arm a chaos proxy around every client backend and hosted store",
    )


def _rewrite_arguments(mp: pytest.MonkeyPatch, owner, name: str, edit) -> None:
    """Patch ``owner.name`` so ``edit`` may rewrite the arguments a call
    passed (a dict keyed by parameter name) before the original runs."""
    original = inspect.getattr_static(owner, name)
    is_classmethod = isinstance(original, classmethod)
    func = original.__func__ if is_classmethod else original
    signature = inspect.signature(func)

    @functools.wraps(func)
    def patched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        edit(bound.arguments)
        return func(*bound.args, **bound.kwargs)

    mp.setattr(owner, name, classmethod(patched) if is_classmethod else patched)


@pytest.fixture(scope="session")
def chaos_spec(pytestconfig) -> tuple[int, float] | None:
    """The ``--chaos`` ``(seed, rate)``, or None when the run is fault-free."""
    spec = pytestconfig.getoption("chaos")
    return None if spec is None else parse_chaos(spec)


@pytest.fixture(scope="session", autouse=True)
def suite_matrix(pytestconfig, chaos_spec):
    """Apply ``--shards`` and ``--chaos`` to every client and server the
    suites build, through the explicit arguments ``src/`` already has.

    A call that picks its own shard count or a backend instance keeps it;
    a store that is a chaos proxy already (a test's own, or the hosted
    backend of a client armed here) is never wrapped twice, and a server
    given its own ``chaos=`` wraps as asked.
    """
    shards = pytestconfig.getoption("shards")

    def shard(arguments):
        kind = arguments.get("backend", "memory")
        if "shards" not in arguments and isinstance(kind, str):
            arguments["shards"] = shards

    def arm(key):
        def edit(arguments):
            store = arguments[key]
            chosen = arguments.get("chaos") is not None  # MonomiServer(chaos=...)
            if not chosen and not isinstance(store, FaultInjectingBackend):
                seed, rate = chaos_spec
                arguments[key] = FaultInjectingBackend(
                    as_backend(store), seed=seed, rate=rate
                )

        return edit

    with pytest.MonkeyPatch.context() as mp:
        if shards != 1:
            _rewrite_arguments(mp, MonomiClient, "setup", shard)
        if chaos_spec is not None:
            _rewrite_arguments(mp, MonomiClient, "__init__", arm("server_db"))
            _rewrite_arguments(mp, MonomiServer, "__init__", arm("backend"))
        yield


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
