"""Benchmark regression tripwire: smoke outputs vs checked-in baselines.

CI runs every benchmark in ``--quick`` mode and hands the smoke JSON plus
the committed ``BENCH_PR*.json`` baseline to this script.  It walks both
trees in parallel and compares every ``*_seconds`` number present at the
same place in both; a smoke phase slower than **3x** its baseline fails
the build.  Quick mode runs smaller keys and data than the full-mode
baselines, so a healthy smoke number sits far *below* its baseline — the
3x threshold (plus a 50 ms absolute floor that keeps micro-phase jitter
out) only trips on pathological regressions: an accidentally serialized
hot path, a dropped cache, a quadratic slip.

Tree alignment: dicts recurse over shared keys; lists of dicts pair
elements by their discriminator fields (``label``, ``backend``,
``table_rows``, ``rate``) when present, falling back to index order.
Paths only in one file are ignored — benchmarks may grow phases without
breaking older baselines.

Usage:

    python benchmarks/compare_baselines.py smoke.json=BENCH_PR1.json ...
    python benchmarks/compare_baselines.py --auto

``--auto`` discovers every ``bench_*_smoke.json`` in the working
directory and pairs it with its checked-in baseline via ``BASELINES``
(keyed by benchmark script stem).  A smoke file whose stem is not
registered fails the run — adding a benchmark means registering its
baseline here, so the tripwire can never silently skip one.
"""

from __future__ import annotations

import json
import pathlib
import sys

FACTOR = 3.0
ABSOLUTE_FLOOR_SECONDS = 0.05

_IDENTITY_KEYS = ("label", "backend", "table_rows", "rate")

#: Benchmark script stem -> checked-in full-mode baseline (repo root).
BASELINES = {
    "bench_batch_pipeline": "BENCH_PR1.json",
    "bench_backends": "BENCH_PR2.json",
    "bench_service": "BENCH_PR5.json",
    "bench_faults": "BENCH_PR6.json",
    "bench_network": "BENCH_PR7.json",
    "bench_ope": "BENCH_PR8.json",
    "bench_shards": "BENCH_PR9.json",
    "bench_htap": "BENCH_PR10.json",
}

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def discover_pairs() -> list[str] | None:
    """smoke=baseline pairs for every bench_*_smoke.json in the cwd."""
    pairs: list[str] = []
    for smoke_path in sorted(pathlib.Path.cwd().glob("bench_*_smoke.json")):
        stem = smoke_path.name[: -len("_smoke.json")]
        baseline = BASELINES.get(stem)
        if baseline is None:
            print(
                f"unregistered smoke output {smoke_path.name}: add "
                f"{stem!r} to BASELINES in compare_baselines.py"
            )
            return None
        pairs.append(f"{smoke_path.name}={_REPO_ROOT / baseline}")
    if not pairs:
        print("no bench_*_smoke.json files found — did the benchmarks run?")
        return None
    return pairs


def _identity(entry: object) -> tuple | None:
    if not isinstance(entry, dict):
        return None
    found = tuple(
        (key, entry[key]) for key in _IDENTITY_KEYS if key in entry
    )
    return found or None


def _pair_lists(smoke: list, baseline: list) -> list[tuple[object, object, str]]:
    by_identity = {}
    for entry in baseline:
        identity = _identity(entry)
        if identity is not None:
            by_identity[identity] = entry
    pairs = []
    for index, entry in enumerate(smoke):
        identity = _identity(entry)
        if identity is not None and identity in by_identity:
            pairs.append((entry, by_identity[identity], f"[{identity}]"))
        elif identity is None and index < len(baseline):
            pairs.append((entry, baseline[index], f"[{index}]"))
    return pairs


def compare(smoke: object, baseline: object, path: str, failures: list[str]) -> None:
    if isinstance(smoke, dict) and isinstance(baseline, dict):
        for key in smoke.keys() & baseline.keys():
            sub_smoke, sub_base = smoke[key], baseline[key]
            sub_path = f"{path}.{key}" if path else key
            if (
                key.endswith("_seconds")
                and isinstance(sub_smoke, (int, float))
                and isinstance(sub_base, (int, float))
            ):
                limit = max(FACTOR * sub_base, sub_base + ABSOLUTE_FLOOR_SECONDS)
                if sub_smoke > limit:
                    failures.append(
                        f"{sub_path}: smoke {sub_smoke:.4f}s > "
                        f"limit {limit:.4f}s (baseline {sub_base:.4f}s)"
                    )
            else:
                compare(sub_smoke, sub_base, sub_path, failures)
    elif isinstance(smoke, list) and isinstance(baseline, list):
        for sub_smoke, sub_base, suffix in _pair_lists(smoke, baseline):
            compare(sub_smoke, sub_base, path + suffix, failures)


def main(argv: list[str]) -> int:
    if argv == ["--auto"]:
        discovered = discover_pairs()
        if discovered is None:
            return 2
        argv = discovered
    if not argv:
        print("usage: compare_baselines.py [--auto] smoke.json=baseline.json ...")
        return 2
    failures: list[str] = []
    compared = 0
    for pair in argv:
        smoke_name, _, baseline_name = pair.partition("=")
        if not baseline_name:
            print(f"malformed pair {pair!r} (expected smoke.json=baseline.json)")
            return 2
        smoke_path = pathlib.Path(smoke_name)
        baseline_path = pathlib.Path(baseline_name)
        if not smoke_path.exists():
            print(f"missing smoke output {smoke_path} — did the benchmark run?")
            return 2
        if not baseline_path.exists():
            print(f"no baseline {baseline_path}; skipping {smoke_path}")
            continue
        before = len(failures)
        compare(
            json.loads(smoke_path.read_text()),
            json.loads(baseline_path.read_text()),
            smoke_path.name,
            failures,
        )
        compared += 1
        status = "OK" if len(failures) == before else "REGRESSED"
        print(f"{smoke_path.name} vs {baseline_path.name}: {status}")
    for failure in failures:
        print(f"  FAIL {failure}")
    if failures:
        print(f"{len(failures)} phase(s) regressed beyond {FACTOR}x baseline")
        return 1
    print(f"compared {compared} file pair(s); no phase beyond {FACTOR}x baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
