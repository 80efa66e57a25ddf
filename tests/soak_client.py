"""Subprocess driver for the network concurrency soak test.

Not a test module (pytest collects ``test_*.py`` only): the soak test
launches N copies of this script, each a separate OS process holding its
own :class:`RemoteBackend` connections to the server under test.  Each
process opens a service with M sessions and pushes a mixed ad-hoc +
prepared workload through them concurrently, verifying every result
against the expected canonical rows pickled by the parent.  Exit status
0 means every query in every session matched; anything else fails the
soak with this process's traceback on stderr.

Usage: python soak_client.py <state.pickle> <host:port> <sessions> <repeats>
"""

from __future__ import annotations

import pickle
import sys

from repro.core.client import MonomiClient
from repro.net.client import RemoteBackend
from repro.testkit import canonical

PREPARED_TEMPLATE = (
    "SELECT o_custkey, SUM(o_price) AS rev FROM orders "
    "WHERE o_price > :p GROUP BY o_custkey"
)
PREPARED_VALUES = (400, 1500, 3000)


def main() -> int:
    state_path, address, sessions_text, repeats_text = sys.argv[1:5]
    sessions_count = int(sessions_text)
    repeats = int(repeats_text)
    with open(state_path, "rb") as handle:
        state = pickle.load(handle)

    backend = RemoteBackend(address)
    client = MonomiClient(
        state["plain_db"],
        state["design"],
        state["provider"],
        backend,
        state["flags"],
        state["network"],
        state["disk"],
    )
    expected_adhoc: dict[str, list[str]] = state["expected_adhoc"]
    expected_prepared: dict[int, list[str]] = state["expected_prepared"]

    with client.service(workers=sessions_count) as service:
        sessions = [service.open_session() for _ in range(sessions_count)]
        statement = service.prepare(PREPARED_TEMPLATE)
        futures = []
        for _ in range(repeats):
            for session in sessions:
                for sql in expected_adhoc:
                    futures.append(("adhoc", sql, session.submit(sql)))
            for value in PREPARED_VALUES:
                futures.append(
                    (
                        "prepared",
                        value,
                        service.submit_prepared(statement, {"p": value}),
                    )
                )
        for kind, key, future in futures:
            outcome = future.result()
            want = (
                expected_adhoc[key]
                if kind == "adhoc"
                else expected_prepared[key]
            )
            if canonical(outcome.rows) != want:
                raise AssertionError(f"{kind} result mismatch for {key!r}")
    client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
