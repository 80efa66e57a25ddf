"""Speed adjustment and class-median / gm / worst / throughput arithmetic."""

import math
import statistics

from fakes import FakeWorkload, ScriptedKernel

import harness
import metrics


def test_adjusted_time_divides_by_the_adjacent_kernel_readings():
    # Kernel at its reference time: nothing changes.
    assert metrics.adjusted_ms(10.0, (2.5, 2.5), 2.5) == 10.0
    # The box ran at half speed around the statement: the time halves.
    assert metrics.adjusted_ms(10.0, (5.0, 5.0), 2.5) == 5.0
    # Readings enter as rates: half the call at full, half at half speed.
    assert math.isclose(metrics.adjusted_ms(15.0, (2.5, 5.0), 2.5), 11.25)


def test_class_estimate_is_the_median_of_that_class_only():
    samples = [("fast", 1.0), ("fast", 1.2), ("fast", 50.0), ("slow", 10.0),
               ("slow", 11.0), ("slow", 12.0)]
    assert metrics.class_estimates(samples) == {"fast": 1.2, "slow": 11.0}


def test_gm_worst_and_throughput_come_from_class_estimates():
    samples = [("a", 2.0)] * 3 + [("b", 8.0)] * 3
    out = metrics.latency_metrics(samples, ["a", "b", "b"])
    assert math.isclose(out["latency_gm_ms"], 4.0)
    assert out["latency_worst_ms"] == 8.0
    # Three statements per round take 2 + 8 + 8 ms.
    assert math.isclose(out["throughput_qps"], 3 / 0.018)


def test_one_outlier_sample_moves_no_metric():
    steady = [("a", 2.0)] * 9 + [("b", 8.0)] * 9
    spiked = steady[:-1] + [("b", 800.0)]
    assert metrics.latency_metrics(steady, ["a", "b"]) == metrics.latency_metrics(
        spiked, ["a", "b"]
    )


def test_measure_takes_counted_rounds_and_adjusts_every_sample():
    workload = FakeWorkload()
    kernel = ScriptedKernel([5.0])  # the box at half of reference speed
    measurement = harness.measure(workload, kernel, timed_rounds=9)
    assert measurement.attempted == 27 and not measurement.failures
    assert measurement.round_classes == ["a", "b", "w"]
    assert len(measurement.samples) == 27  # warm-up rounds leave no sample
    assert {s.round for s in measurement.samples} == set(range(1, 10))
    for sample in measurement.samples:
        expected = sample.raw_ms * harness.KERNEL_REF_MS / 5.0
        assert math.isclose(sample.adj_ms, expected)
        assert math.isclose(sample.factor, harness.KERNEL_REF_MS / 5.0)
    # Plans are digested in warm-up, outside any timed region.
    assert set(measurement.plans) == {"a", "b", "w"}


def test_seconds_only_scales_the_round_count():
    workload = FakeWorkload()
    assert harness.timed_rounds_for(workload, 10, 10) == 9
    assert harness.timed_rounds_for(workload, 20, 10) == 18
    assert harness.timed_rounds_for(workload, 1, 10) == 9  # never under nine


def test_setup_is_repeated_and_metered():
    workload = FakeWorkload()
    kernel = ScriptedKernel([2.5])
    times = harness.measure_setup(workload, kernel)
    assert len(times) == 3 and workload.setups == 3 and workload.prepared == 3
    assert workload.teardowns == 2  # the last set-up is left standing
    assert all(0.015 < t < 0.5 for t in times)
    assert statistics.median(times) > 0


def test_setup_meter_reads_the_kernel_while_the_call_runs():
    import time

    kernel = harness.ReferenceKernel()
    with harness.SetupMeter(kernel) as meter:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(meter.readings) >= 4  # before, after, and ticks in between
    assert meter.raw_s >= 0.35 and meter.adjusted_s > 0
