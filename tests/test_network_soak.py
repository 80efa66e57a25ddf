"""Concurrency soak: many client processes, no leaked resources.

N separate OS processes (``soak_client.py``), each running M concurrent
service sessions of mixed ad-hoc and prepared queries against one
:class:`~repro.net.MonomiServer` — the closest this suite gets to a
production deployment.  Every result in every process must match the
fault-free reference, and when the clients exit the server must be
clean: no connection threads alive, no open connections in ``stats()``,
no file descriptors beyond the listener.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from repro.net import MonomiServer
from repro.testkit import SALES_WORKLOAD, canonical, extra_threads

PROCESSES = 3
SESSIONS = 2
REPEATS = 2

SOAK_SCRIPT = pathlib.Path(__file__).with_name("soak_client.py")
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

PREPARED_TEMPLATE = (
    "SELECT o_custkey, SUM(o_price) AS rev FROM orders "
    "WHERE o_price > :p GROUP BY o_custkey"
)
PREPARED_VALUES = (400, 1500, 3000)


def _open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-procfs platforms
        return -1


@pytest.mark.slow
def test_multiprocess_soak_leaves_server_clean(sales_client, tmp_path):
    state = {
        "plain_db": sales_client.plain_db,
        "design": sales_client.design,
        "provider": sales_client.provider,
        "flags": sales_client.flags,
        "network": sales_client.network,
        "disk": sales_client.disk,
        "expected_adhoc": {
            sql: canonical(sales_client.execute(sql).rows)
            for sql in SALES_WORKLOAD
        },
        "expected_prepared": {
            value: canonical(
                sales_client.execute(PREPARED_TEMPLATE, {"p": value}).rows
            )
            for value in PREPARED_VALUES
        },
    }
    state_path = tmp_path / "soak_state.pickle"
    state_path.write_bytes(pickle.dumps(state))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    thread_baseline = set(threading.enumerate())
    fd_baseline = _open_fds()
    with MonomiServer(sales_client.backend) as server:
        # Baseline after start: the accept loop is expected to live for
        # the server's lifetime; connection threads are not.
        serving_baseline = set(threading.enumerate())
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    str(SOAK_SCRIPT),
                    str(state_path),
                    server.address,
                    str(SESSIONS),
                    str(REPEATS),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(PROCESSES)
        ]
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=600)
            assert worker.returncode == 0, f"soak client failed:\n{stderr}"

        # Every process drove SESSIONS service sessions plus the pool's
        # dialing; all of them must have checked back in and hung up.
        stats = server.stats()
        assert stats["connections_total"] >= PROCESSES * SESSIONS
        assert stats["queries"] >= PROCESSES * len(SALES_WORKLOAD)
        assert stats["errors_sent"] == 0
        # Every per-connection thread must exit once its client hangs up.
        lingering = extra_threads(serving_baseline, timeout=10.0)
        assert not lingering, lingering
        assert server.stats()["connections_open"] == 0

    leaked_threads = extra_threads(thread_baseline, timeout=10.0)
    assert not leaked_threads, leaked_threads
    if fd_baseline >= 0:
        # The listener and every connection socket are closed; transient
        # slack (one fd) tolerated for procfs races.
        assert _open_fds() <= fd_baseline + 1
