"""The end-to-end tracer's hooks name code that exists.

``benchmarks/e2e/tracing.install`` wraps module attributes and methods of
``src/`` by name (``normalize_for_execution`` on the client and service
modules, ``Planner.plan``, the crypto batch calls, ...).  Renaming or
deleting one of them breaks every traced benchmark pass with an
``AttributeError``; this test catches that in the unit suite.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_source():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks" / "e2e")]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import tracing; tracing.install(tracing.Tracer())",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
