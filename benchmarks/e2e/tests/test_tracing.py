"""Span bookkeeping: self time, cross-thread parents, per-layer sums."""

import math
import threading

import fakes  # noqa: F401  (puts the benchmark directory on the path)

import tracing
from tracing import END, ID, NAME, PARENT, START


def span(id_, name, start, end, parent=None, stmt=0, n=0):
    return [id_, name, start, end, parent, stmt, n]


def test_self_time_is_duration_minus_the_union_of_children():
    spans = [
        span(0, "parent", 0.0, 10.0),
        span(1, "child", 1.0, 4.0, parent=0),
        span(2, "child", 3.0, 6.0, parent=0),  # overlaps the first by 1 s
        span(3, "child", 8.0, 12.0, parent=0),  # runs past the parent
        span(4, "grandchild", 1.0, 2.0, parent=1),
    ]
    selfs = tracing.self_times(spans)
    # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds.
    assert math.isclose(selfs[0], 3.0)
    assert math.isclose(selfs[1], 2.0)
    assert math.isclose(selfs[2], 3.0) and math.isclose(selfs[3], 4.0)


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4.0
    assert tracing.union_length([]) == 0.0


def test_nested_spans_get_their_parent_from_the_thread_stack():
    tracer = tracing.Tracer()
    tracer.begin_statement("q", 0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("sibling"):
            pass
    tracer.end_statement()
    by_name = {s[NAME]: s for s in tracer.spans}
    assert by_name["outer"][PARENT] == by_name["stmt"][ID]
    assert by_name["inner"][PARENT] == by_name["outer"][ID]
    assert by_name["sibling"][PARENT] == by_name["outer"][ID]
    assert all(s[END] >= s[START] for s in tracer.spans)


def test_work_on_another_thread_is_parented_to_the_handoff_span():
    tracer = tracing.Tracer()
    tracer.begin_statement("q", 0)

    def shard():
        with tracer.span("shard_exec"):
            pass

    with tracer.span("coordinator", handoff=True):
        workers = [threading.Thread(target=shard) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=5)
    tracer.end_statement()
    coordinator = next(s for s in tracer.spans if s[NAME] == "coordinator")
    shards = [s for s in tracer.spans if s[NAME] == "shard_exec"]
    # Both shards hang under the coordinator, not under each other.
    assert [s[PARENT] for s in shards] == [coordinator[ID]] * 2


def test_nothing_is_recorded_between_statements():
    tracer = tracing.Tracer()
    with tracer.span("idle"):
        pass
    assert tracer.spans == []


def test_statement_metrics_scale_self_time_by_the_statement_factor():
    tracer = tracing.Tracer()
    tracer.statements = [
        {"id": 0, "cls": "q", "round": 1, "factor": 0.5,
         "counts": {"server.rows_returned": 10, "server.bytes_scanned": 400}},
        {"id": 1, "cls": "q", "round": 2, "factor": None, "counts": {}},  # failed
    ]
    tracer.spans = [
        span(0, "stmt", 0.0, 1.0),
        span(1, "core.planner.plan", 0.0, 0.4, parent=0, n=64),
        span(2, "core.pexec", 0.4, 1.0, parent=0),
        span(3, "server.inmemory.exec", 0.5, 0.7, parent=2),
        span(4, "core.encdata.det_decrypt", 0.7, 0.9, parent=2, n=1000),
        span(5, "stmt", 2.0, 3.0, stmt=1),
        span(6, "core.planner.plan", 2.0, 3.0, parent=5, stmt=1, n=64),
    ]
    out = tracing.statement_metrics(tracer)
    assert math.isclose(out["core.planner.plan_ms"], 200.0)  # 0.4 s x 0.5
    assert math.isclose(out["core.pexec.self_ms"], 100.0)  # 0.6 - 0.2 - 0.2
    assert math.isclose(out["server.inmemory.exec_ms"], 100.0)
    assert math.isclose(out["core.encdata.det_decrypt_ms"], 100.0)
    assert out["core.planner.candidates"] == 64 and out["core.encdata.det_values"] == 1000
    assert out["server.rows_returned"] == 10 and out["server.bytes_scanned"] == 400
    assert math.isclose(out["trace.coverage_ratio"], 1.0)


def test_spanned_blocks_time_each_pull_not_the_consumer():
    tracer = tracing.Tracer()
    tracer.begin_statement("scan", 0)
    finished = []
    blocks = tracing._spanned_blocks(
        tracer, "server.inmemory.exec", iter([[1, 2], [3]]), False, finished.append
    )
    assert [len(b) for b in blocks] == [2, 1]
    tracer.end_statement()
    pulls = [s for s in tracer.spans if s[NAME] == "server.inmemory.exec"]
    assert [s[6] for s in pulls] == [2, 1, 0]  # two blocks, then exhaustion
    assert finished == [3]
