"""Names, units and arithmetic of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root repeats the two tables below;
``tests/test_cli.py`` fails if the two ever disagree.  The arithmetic is
kept free of any import from the program, so the unit tests drive it
with made-up samples.

Every time metric is built from *class estimates*: the median of one
statement class's speed-adjusted samples over the timed rounds.  No gated
number is a percentile over pooled samples of unlike classes — on a mix
whose classes sit at 1, 10 and 15 ms a pooled p90 falls in the gap
between two classes, and a handful of samples crossing it moves the
"percentile" by 10 % with no code change.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Iterable, Sequence

#: ``run_seconds`` of BENCHMARK.json: the ``--seconds`` at which a workload
#: runs its own ``timed_rounds``.
RUN_SECONDS = 10

#: (name, unit, better, bound) — printed by ``--trace 0`` on every workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_gm_ms", "ms", "lower", 0.15),
    ("latency_worst_ms", "ms", "lower", 0.15),
    ("throughput_qps", "1/s", "higher", 0.15),
    ("transfer_bytes_per_stmt", "bytes", "lower", 0.03),
    ("space_overhead_x", "x", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: (name, unit, better) — printed by ``--trace 1`` on every workload; a
#: layer a workload does not reach reports 0.  Times are speed-adjusted
#: milliseconds of *self* time per traced statement unless the name ends
#: in ``_s`` (seconds of one set-up); counts are per traced statement.
PER_LAYER = (
    ("read_gm_ms", "ms", "lower"),
    ("write_gm_ms", "ms", "lower"),
    ("sql.parse_ms", "ms", "lower"),
    ("sql.normalize_ms", "ms", "lower"),
    ("core.planner.plan_ms", "ms", "lower"),
    ("core.planner.candidates", "count", "lower"),
    ("core.planner.plans_changed", "count", "lower"),
    ("service.dispatch_ms", "ms", "lower"),
    ("service.plan_cache_hit_ratio", "ratio", "higher"),
    ("core.pexec.self_ms", "ms", "lower"),
    ("core.pexec.round_trips", "count", "lower"),
    ("core.pexec.residual_ms", "ms", "lower"),
    ("core.pexec.first_block_ms", "ms", "lower"),
    ("core.encdata.det_decrypt_ms", "ms", "lower"),
    ("core.encdata.ope_decrypt_ms", "ms", "lower"),
    ("core.encdata.rnd_decrypt_ms", "ms", "lower"),
    ("core.encdata.hom_decrypt_ms", "ms", "lower"),
    ("core.encdata.det_values", "count", "lower"),
    ("core.encdata.ope_values", "count", "lower"),
    ("core.encdata.rnd_values", "count", "lower"),
    ("core.encdata.hom_ciphertexts", "count", "lower"),
    ("core.encdata.encrypt_ms", "ms", "lower"),
    ("core.encdata.det_cache_hit_ratio", "ratio", "higher"),
    ("core.encdata.ope_cache_hit_ratio", "ratio", "higher"),
    ("core.encdata.pivot_cache_hit_ratio", "ratio", "higher"),
    ("core.dml.self_ms", "ms", "lower"),
    ("core.dml.rows_fetched", "count", "lower"),
    ("core.dml.rows_affected", "count", "higher"),
    ("core.dml.affected_per_fetched", "ratio", "higher"),
    ("core.incagg.read_ms", "ms", "lower"),
    ("core.incagg.on_change_ms", "ms", "lower"),
    ("server.inmemory.exec_ms", "ms", "lower"),
    ("server.sqlite.exec_ms", "ms", "lower"),
    ("server.sharded.coord_ms", "ms", "lower"),
    ("server.sharded.shard_exec_ms", "ms", "lower"),
    ("server.sharded.fanout", "count", "lower"),
    ("server.write_ms", "ms", "lower"),
    ("server.hom_ms", "ms", "lower"),
    ("server.hom_patches", "count", "lower"),
    ("server.rows_returned", "count", "lower"),
    ("server.bytes_scanned", "bytes", "lower"),
    ("net.client.wire_ms", "ms", "lower"),
    ("net.blocks_sent", "count", "lower"),
    ("engine.plain_gm_ms", "ms", "lower"),
    ("engine.slowdown_gm_x", "x", "lower"),
    ("core.designer.design_s", "s", "lower"),
    ("core.loader.load_s", "s", "lower"),
    ("core.loader.encrypt_s", "s", "lower"),
    ("core.loader.insert_s", "s", "lower"),
    ("core.loader.rows", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("harness.kernel_cv", "ratio", "lower"),
    ("harness.kernel_ms_median", "ms", "lower"),
    ("harness.samples_per_class_min", "count", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
TIME_UNITS = ("s", "ms", "1/s")


def adjusted_ms(raw_ms: float, kernel_ms: Sequence[float], ref_ms: float) -> float:
    """A raw time as it would read on a box where the kernel takes ``ref_ms``.

    ``kernel_ms`` are the reference-kernel readings taken around (or
    during) the timed call.  Time is an integral over the call, so the
    readings enter as the mean of their *rates*: a call that spent half
    its time at half speed took 1.5x as long, not 1.33x.
    """
    return raw_ms * ref_ms * statistics.fmean(1.0 / k for k in kernel_ms)


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def class_estimates(samples: Iterable[tuple[str, float]]) -> dict[str, float]:
    """Median adjusted time per statement class, in first-seen order."""
    by_class: dict[str, list[float]] = {}
    for cls, adj_ms in samples:
        by_class.setdefault(cls, []).append(adj_ms)
    return {cls: statistics.median(times) for cls, times in by_class.items()}


def throughput_qps(estimates: dict[str, float], round_classes: Sequence[str]) -> float:
    """Statements per second of one closed-loop client running rounds.

    Built from class estimates, not from elapsed wall time, so it carries
    the same speed adjustment as the latencies: statements per round over
    the sum of (class estimate x how often the class runs in a round).
    """
    counts = Counter(round_classes)
    round_ms = sum(estimates[cls] * n for cls, n in counts.items() if cls in estimates)
    if round_ms <= 0:
        return 0.0
    return 1000.0 * sum(n for cls, n in counts.items() if cls in estimates) / round_ms


def latency_metrics(
    samples: Iterable[tuple[str, float]], round_classes: Sequence[str]
) -> dict[str, float]:
    estimates = class_estimates(samples)
    return {
        "latency_gm_ms": geometric_mean(estimates.values()),
        "latency_worst_ms": max(estimates.values(), default=0.0),
        "throughput_qps": throughput_qps(estimates, round_classes),
    }


def pooled_percentiles(times: Sequence[float]) -> dict[str, float]:
    """Pooled p50/p90 over all classes — printed for humans, never gated."""
    if not times:
        return {"p50": 0.0, "p90": 0.0}
    ordered = sorted(times)
    return {
        "p50": ordered[len(ordered) // 2],
        "p90": ordered[min(len(ordered) - 1, (len(ordered) * 9) // 10)],
    }

