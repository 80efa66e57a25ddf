"""One pass of one workload, in a fresh interpreter that ``run.py`` starts.

Sets the workload up (several times where that is cheap), warms it up
while checking every result against the plaintext engine, measures the
timed rounds, and prints one JSON object as the last line of standard
output: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Everything a human wants besides goes to the lines
above it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import metrics  # noqa: E402

OUT = HERE / "out"


def say(*parts) -> None:
    print(*parts, flush=True)


# -- machine guard ---------------------------------------------------------------


def guard_environment(environ) -> None:
    """Refuse a polluted environment: every ``MONOMI_*`` variable switches
    an execution mode, and the baseline is the default mode."""
    polluted = sorted(k for k in environ if k.startswith("MONOMI_"))
    if polluted:
        raise SystemExit(f"refusing to measure with {', '.join(polluted)} set")
    if environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("refusing to measure without PYTHONHASHSEED=0 (use run.py)")


def pin_to_one_cpu(kernel: harness.ReferenceKernel) -> int | None:
    """Run every thread of this process on one core: the calmer one.

    The interpreter lock serializes the client, service and server threads
    anyway, but left to the scheduler they wake on whichever core is free —
    and on a shared VM the other core is often not there when called.  The
    reference kernel, being one thread, never sees that wait.  Pinned, the
    same 120 SSB rounds read 3.26-3.35 ms in blocks of 20; unpinned,
    3.62-4.01 ms.  Which core a noisy neighbour sits on changes by the
    hour, so each allowed core gets a short burst of kernel readings and
    the one with the lowest mean wins.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    means = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        means[cpu] = statistics.fmean(kernel.read() for _ in range(60))
    calmest = min(means, key=means.get)
    os.sched_setaffinity(0, {calmest})
    return calmest


def guard_parallelism(threads: int, connections: int, cpus: int) -> list[str]:
    """A closed-loop client that runs more threads or holds more
    connections than the box has cores measures the scheduler."""
    warnings = []
    if threads > cpus:
        warnings.append(f"{threads} client threads on {cpus} cores")
    if connections > cpus:
        warnings.append(f"{connections} connections on {cpus} cores")
    return warnings


def guard_kernel(kernel: harness.ReferenceKernel) -> float:
    """How far this box is from the one the reference time was taken on."""
    factor = statistics.median(kernel.read() for _ in range(15)) / harness.KERNEL_REF_MS
    if not 0.5 <= factor <= 2.0:
        say(f"WARNING: reference kernel runs at {factor:.2f}x its reference time; "
            "adjusted times on this machine are extrapolated")
    return factor


# -- pins ------------------------------------------------------------------------------


def load_pins(workload_name: str, seed: int) -> dict | None:
    """The committed pins, if they cover this seed (``"seed": null`` pins a
    workload whose inputs do not depend on the seed)."""
    path = HERE / "pins" / f"{workload_name}.json"
    if not path.exists():
        return None
    pins = json.loads(path.read_text())
    return pins if pins["seed"] in (None, seed) else None


def compare_pins(workload, seed: int, design: str, plans: dict, write: bool) -> list[str]:
    """Compare this run's design and plans with the pins (or, with
    ``--write-pins``, make them the pins); returns what changed."""
    pins = load_pins(workload.name, seed)
    changed = changed_plans(pins, design, plans)
    if write:
        path = HERE / "pins" / f"{workload.name}.json"
        body = {"seed": seed if workload.seeded else None, "design": design, "plans": plans}
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        say(f"wrote {path}")
    elif pins is None:
        say(f"no pins for {workload.name} seed {seed}: plans not compared")
    for cls in changed:
        say(f"WARNING: plan changed against pins: {cls}")
    return changed


def changed_plans(pins: dict | None, design: str, plans: dict[str, str]) -> list[str]:
    """Classes whose plan (or the design under all of them) differs from
    the committed pin."""
    if pins is None:
        return []
    changed = [cls for cls, digest in plans.items() if pins["plans"].get(cls) != digest]
    if pins["design"] != design:
        changed.insert(0, "design")
    return changed


# -- reporting ---------------------------------------------------------------------------


def ratio(after: dict, before: dict, hits: str, lookups: str) -> float:
    done = after.get(lookups, 0) - before.get(lookups, 0)
    return (after.get(hits, 0) - before.get(hits, 0)) / done if done else 0.0


def estimates_gm(samples) -> float:
    """Geometric mean of the class estimates of ``samples``."""
    estimates = metrics.class_estimates((s.cls, s.adj_ms) for s in samples)
    return metrics.geometric_mean(estimates.values())


def end_to_end(measurement, setup_times, facts) -> dict[str, float]:
    samples = measurement.timed()
    out = {"setup_s": statistics.median(setup_times)}
    out.update(
        metrics.latency_metrics(
            ((s.cls, s.adj_ms) for s in samples), measurement.round_classes
        )
    )
    out["transfer_bytes_per_stmt"] = (
        statistics.fmean(s.outcome.transfer_bytes for s in samples) if samples else 0.0
    )
    out["space_overhead_x"] = facts["space_overhead_x"]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(measurement, tracer, workload, kernel, before, after, changed) -> dict:
    import tracing

    out = dict.fromkeys((name for name, *_ in metrics.PER_LAYER), 0.0)
    out.update(tracing.statement_metrics(tracer))
    out.update(tracing.setup_metrics(tracer))
    traced, plain = measurement.timed(True), measurement.timed(False)
    out["read_gm_ms"] = estimates_gm(s for s in plain if s.kind == "read")
    out["write_gm_ms"] = estimates_gm(s for s in plain if s.kind == "write")
    out["core.planner.plans_changed"] = float(len(changed))
    out["core.pexec.round_trips"] = (
        statistics.fmean(s.outcome.round_trips for s in traced) if traced else 0.0
    )
    first = [
        s.outcome.first_block_ms * s.factor
        for s in traced
        if s.outcome.first_block_ms is not None
    ]
    out["core.pexec.first_block_ms"] = statistics.fmean(first) if first else 0.0
    out["service.plan_cache_hit_ratio"] = ratio(after, before, "plan_hits", "plan_lookups")
    for scheme in ("det", "ope", "pivot"):
        out[f"core.encdata.{scheme}_cache_hit_ratio"] = ratio(
            after, before, f"{scheme}_hits", f"{scheme}_lookups"
        )
    statements = len(measurement.samples)
    blocks = after.get("blocks_sent", 0) - before.get("blocks_sent", 0)
    out["net.blocks_sent"] = blocks / statements if statements else 0.0
    # Plaintext times were taken once per class, while warm-up verified the
    # results, with no kernel reading beside them; the median reading of
    # the timed rounds is the nearest there is.
    speed = harness.KERNEL_REF_MS / kernel.median() if kernel.readings else 1.0
    plain_gm = metrics.geometric_mean(workload.plain_ms.values()) * speed
    untraced_gm = estimates_gm(plain)
    out["engine.plain_gm_ms"] = plain_gm
    out["engine.slowdown_gm_x"] = untraced_gm / plain_gm if plain_gm else 0.0
    out["trace.overhead_ratio"] = (
        estimates_gm(traced) / untraced_gm - 1.0 if untraced_gm else 0.0
    )
    out["harness.kernel_cv"] = kernel.cv()
    out["harness.kernel_ms_median"] = kernel.median()
    per_class: dict[str, int] = {}
    for s in traced:
        per_class[s.cls] = per_class.get(s.cls, 0) + 1
    out["harness.samples_per_class_min"] = float(min(per_class.values(), default=0))
    return out


def result_line(values: dict[str, float], names, measurement) -> str:
    return json.dumps(
        {
            "correct": not measurement.failures,
            "attempted": measurement.attempted,
            "failed": len(measurement.failures),
            "metrics": {
                name: {"value": values[name], "unit": metrics.UNITS[name]}
                for name in names
            },
        }
    )


# -- entry point -------------------------------------------------------------------------


def main(argv=None, registry=None, environ=os.environ) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="commit this run's plan digests as the pins")
    args = parser.parse_args(argv)

    guard_environment(environ)
    if registry is None:
        if not (SRC / "repro").is_dir():
            raise SystemExit(f"the program is not here: no {SRC / 'repro'}")
        from workloads import WORKLOADS as registry
    if args.workload not in registry:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(registry)}")

    kernel = harness.ReferenceKernel()
    say(f"pinned to cpu {pin_to_one_cpu(kernel)} of {os.cpu_count()}")
    say(f"reference kernel at {guard_kernel(kernel):.2f}x of {harness.KERNEL_REF_MS} ms")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = registry[args.workload](args.seed, tracer)
    for warning in guard_parallelism(workload.threads, workload.connections,
                                     os.cpu_count() or 1):
        say("WARNING:", warning)

    setup_times = harness.measure_setup(workload, kernel, tracer)
    facts = workload.facts()
    say(f"{workload.name}: set up {len(setup_times)}x, adjusted "
        + " ".join(f"{t:.2f}s" for t in setup_times))

    counters: list[dict] = []

    def after_warmup() -> None:
        # Everything allocated so far lives for the rest of the run; take
        # it out of the collector's way so a full collection of set-up
        # leftovers does not land inside a timed statement.
        gc.collect()
        gc.freeze()
        counters.append(workload.counters())
        # From here on the readings describe the timed phase.
        kernel.readings.clear()

    rounds = harness.timed_rounds_for(workload, args.seconds, metrics.RUN_SECONDS)
    measurement = harness.measure(workload, kernel, rounds, tracer, after_warmup)
    counters.append(workload.counters())
    workload.teardown()

    changed = compare_pins(
        workload, args.seed, facts["design"], measurement.plans, args.write_pins
    )
    say(f"reference kernel over the timed rounds: median {kernel.median():.2f} ms, "
        f"CV {kernel.cv():.2f}")
    if kernel.cv() > 0.25:
        say(f"WARNING: reference kernel CV {kernel.cv():.2f} over the run; "
            "the box was unsteady")

    untraced = measurement.timed(False if tracer else None)
    pooled = metrics.pooled_percentiles([s.adj_ms for s in untraced])
    say(f"{len(untraced)} samples over {rounds} rounds, pooled p50 {pooled['p50']:.2f} ms "
        f"p90 {pooled['p90']:.2f} ms (for reading, never gated); "
        f"{measurement.attempted} attempted, {len(measurement.failures)} failed")
    estimates = metrics.class_estimates((s.cls, s.adj_ms) for s in untraced)
    say("class estimates (ms): "
        + ", ".join(f"{cls} {ms:.2f}" for cls, ms in estimates.items()))

    if tracer is None:
        values = end_to_end(measurement, setup_times, facts)
        names = [name for name, *_ in metrics.END_TO_END]
    else:
        values = per_layer(measurement, tracer, workload, kernel,
                           counters[0], counters[-1], changed)
        names = [name for name, *_ in metrics.PER_LAYER]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}.json"
        tracer.dump(path, {"workload": workload.name, "seed": args.seed,
                           "kernel_ref_ms": harness.KERNEL_REF_MS})
        say(f"wrote {path}")
    for name in names:
        say(f"  {name:40s} {values[name]:14.4f} {metrics.UNITS[name]}")
    say(result_line(values, names, measurement))
    return 0


if __name__ == "__main__":
    sys.exit(main())
