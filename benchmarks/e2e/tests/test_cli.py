"""The command's last line, and BENCHMARK.json naming exactly what it prints."""

import json
import pathlib

import pytest
from fakes import FakeWorkload

import child
import metrics
import tracing

ROOT = pathlib.Path(__file__).resolve().parents[3]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
CLEAN = {"PYTHONHASHSEED": "0"}


def last_line(capsys, argv):
    assert child.main(argv, registry={"fake": FakeWorkload}, environ=CLEAN) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def no_side_effects(monkeypatch, tmp_path):
    # The fakes never enter the program, so there is nothing to wrap, and
    # the trace file of a fake run does not belong in out/.
    monkeypatch.setattr(tracing, "install", lambda tracer: None)
    monkeypatch.setattr(child, "OUT", tmp_path)
    monkeypatch.setattr(child, "pin_to_one_cpu", lambda kernel: None)  # not the test runner


def test_last_line_with_trace_off_holds_every_end_to_end_metric(capsys):
    result = last_line(capsys, ["--workload", "fake", "--seed", "3", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 27
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for spec in MANIFEST["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0, spec["name"]
    assert result["metrics"]["space_overhead_x"]["value"] == 1.5
    assert result["metrics"]["transfer_bytes_per_stmt"]["value"] == 100


def test_last_line_with_trace_on_holds_every_per_layer_metric(capsys, tmp_path):
    result = last_line(capsys, ["--workload", "fake", "--trace", "1"])
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    for spec in MANIFEST["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["read_gm_ms"] > 0 and values["write_gm_ms"] > 0
    assert values["service.plan_cache_hit_ratio"] == 0.5
    assert values["harness.samples_per_class_min"] == 5  # rounds 0, 2, 4, 6, 8
    trace = json.loads((tmp_path / "trace-fake.json").read_text())
    assert trace["span_fields"] == ["id", "name", "start", "end", "parent", "stmt", "n"]
    assert len(trace["statements"]) == 15 and all(
        s[1] == "stmt" for s in trace["spans"]
    )


def test_failed_ops_make_the_run_incorrect_but_still_reported(capsys):
    def faulty(seed, tracer=None):
        return FakeWorkload(seed, tracer, faults={(2, "a"): "raise", (5, "w"): "stale"})

    assert child.main(["--workload", "fake"], registry={"fake": faulty}, environ=CLEAN) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (27, 2)


def test_manifest_matches_the_metric_tables_and_workloads():
    assert [tuple(m.values()) for m in MANIFEST["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [tuple(m.values()) for m in MANIFEST["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["run_seconds"] == metrics.RUN_SECONDS
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert all(m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_a_polluted_environment_is_refused():
    with pytest.raises(SystemExit, match="MONOMI_SHARDS"):
        child.guard_environment({"PYTHONHASHSEED": "0", "MONOMI_SHARDS": "2"})
    with pytest.raises(SystemExit, match="PYTHONHASHSEED"):
        child.guard_environment({})
    child.guard_environment(CLEAN)


def test_more_threads_or_connections_than_cores_warns():
    assert child.guard_parallelism(1, 2, cpus=2) == []
    assert len(child.guard_parallelism(4, 3, cpus=2)) == 2


def test_changed_plans_names_the_class():
    pins = {"seed": 1, "design": "d1", "plans": {"q1": "aa", "q2": "bb"}}
    assert child.changed_plans(pins, "d1", {"q1": "aa", "q2": "bb"}) == []
    assert child.changed_plans(pins, "d1", {"q1": "aa", "q2": "XX"}) == ["q2"]
    assert child.changed_plans(pins, "d2", {"q1": "aa", "q2": "bb"}) == ["design"]
    assert child.changed_plans(None, "d2", {"q1": "zz"}) == []
