"""A raised statement, a wrong result and a stale read are failed ops:
counted, without a latency sample, and never the end of the run."""

from fakes import FakeWorkload, ScriptedKernel

import harness


def run(faults):
    workload = FakeWorkload(faults=faults)
    return workload, harness.measure(workload, ScriptedKernel([2.5]), timed_rounds=9)


def test_each_kind_of_failure_is_counted_and_has_no_sample():
    faults = {(2, "a"): "raise", (3, "b"): "wrong", (4, "w"): "stale"}
    workload, measurement = run(faults)
    assert measurement.attempted == 27
    assert sorted((f.round, f.cls, f.reason) for f in measurement.failures) == [
        (2, "a", "raised"), (3, "b", "wrong"), (4, "w", "stale"),
    ]
    assert len(measurement.samples) == 24
    sampled = {(s.round, s.cls) for s in measurement.samples}
    assert not sampled & set(faults)
    assert "boom" in measurement.failures[0].detail


def test_a_failure_does_not_end_the_round_or_the_run():
    workload, measurement = run({(1, "a"): "raise"})
    # Every statement of every round still ran, the failed round included.
    assert len(workload.ran) == 30
    assert (1, "b") in workload.ran and (9, "w") in workload.ran


def test_warmup_failures_are_reported_but_not_counted_as_timed_ops():
    workload, measurement = run({(0, "a"): "wrong"})
    assert measurement.attempted == 27 and not measurement.failures
    assert "a" not in measurement.plans  # no verified result to pin
