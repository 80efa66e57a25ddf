"""End-to-end benchmark of the MONOMI reproduction — the one command.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/e2e/run.py --selfcheck K N [--seconds <s>]

Each pass runs ``child.py`` in a fresh interpreter with ``PYTHONHASHSEED=0``
and no ``MONOMI_*`` variable, and relays its output; the last line is the
result object.  ``--selfcheck K N`` runs K sets of N passes of the same
code and seed per workload and prints how far the sets' medians are apart.
README.md in this directory has the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def child_environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONOMI_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # SQLite and anything else that wants scratch space stays in the checkout.
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def child_command(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]


def run_pass(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass, output captured; returns the parsed result object."""
    done = subprocess.run(
        child_command(workload, seed, seconds, trace),
        env=child_environment(), capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def selfcheck(sets: int, passes: int, seconds: float, seed: int, names: list[str]) -> int:
    """K sets of N passes of the same code and seed; gap between set medians.

    A time metric fails at half its bound — the driver's own two sets must
    agree within the bound, and this box has days worse than today — and a
    count-type metric at its bound.
    """
    if sets < 2 or passes < 3:
        raise SystemExit("--selfcheck needs K >= 2 sets of N >= 3 passes")
    lines = [
        "| workload | metric | " + " | ".join(f"set {i + 1}" for i in range(sets))
        + " | gap | limit | |",
        "|---|---|" + "---|" * (sets + 3),
    ]
    failed = False
    for workload in names:
        medians: dict[str, list[float]] = {}
        for _ in range(sets):
            results = [run_pass(workload, seed, seconds, 0) for _ in range(passes)]
            for result in results:
                if not result["correct"]:
                    raise SystemExit(f"{workload}: a pass had failed ops")
            for name, *_ in metrics.END_TO_END:
                values = [r["metrics"][name]["value"] for r in results]
                medians.setdefault(name, []).append(statistics.median(values))
        for name, unit, _better, bound in metrics.END_TO_END:
            row = medians[name]
            gap = (max(row) - min(row)) / min(row) if min(row) else 0.0
            limit = bound / 2 if unit in metrics.TIME_UNITS else bound
            ok = gap <= limit
            failed |= not ok
            lines.append(
                f"| {workload} | {name} | " + " | ".join(f"{v:.4f}" for v in row)
                + f" | {gap:.4f} | {limit:.3f} | {'ok' if ok else 'FAIL'} |"
            )
            print(lines[-1], file=sys.stderr, flush=True)  # progress
    print("\n".join(lines))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", nargs=2, type=int, metavar=("K", "N"))
    args, extra = parser.parse_known_args(argv)

    from workloads import WORKLOADS

    if args.selfcheck:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return selfcheck(*args.selfcheck, args.seconds, args.seed, names)
    if args.workload is None:
        parser.error("--workload is required (one of: " + ", ".join(WORKLOADS) + ")")
    command = child_command(args.workload, args.seed, args.seconds, args.trace) + extra
    return subprocess.run(command, env=child_environment(), check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
