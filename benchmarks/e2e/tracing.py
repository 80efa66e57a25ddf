"""Per-layer spans, recorded from the benchmark's side of every seam.

The program has no tracing of its own yet, so a traced pass (``--trace 1``)
records spans *around the calls into each layer*:

* a :class:`TraceView` (a ``DelegatingView``) is handed to the program
  wherever it takes ``backend=``: the server seam, each inner shard and
  the backend hosted behind ``MonomiServer``;
* :func:`install` wraps, for the life of the traced child process, the
  entry point of every other layer: parser and normalizer, planner, plan
  executor, DML executor, maintained aggregates, service session, the
  batch crypto calls, designer, loader and ``RemoteBackend``.

A span is ``[id, name, start, end, parent, stmt, n]``: seconds since the
tracer started, the span that caused it, the statement it belongs to
(``None`` during set-up) and one count (rows, values, candidates).  Spans
stay in memory and are written to ``out/trace-<workload>.json`` when the
run ends.  A layer's *self* time is its span's duration minus the part of
that interval its child spans cover; children on other threads overlap
(shard fan-out, the prefetch producer), so the cover is a union, not a sum.

Work handed to another thread keeps its cause: a span opened on a thread
with no open span of its own is parented to the innermost open span that
declared a hand-off (``handoff=True``) — the service session, the plan
executor, the remote backend, the shard coordinator.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Iterator

_perf = time.perf_counter

# Field positions of a span record.
ID, NAME, START, END, PARENT, STMT, N = range(7)


class _Span:
    """An open span; a context manager that closes its record."""

    __slots__ = ("tracer", "record", "handoff")

    def __init__(self, tracer: "Tracer", record: list, handoff: bool) -> None:
        self.tracer = tracer
        self.record = record
        self.handoff = handoff

    def count(self, n: int) -> None:
        self.record[N] = n

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self)


class _NoSpan:
    """What :meth:`Tracer.span` hands out while recording is off."""

    __slots__ = ()

    def count(self, n: int) -> None:
        pass

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Span recorder for one single-client run (one statement in flight)."""

    def __init__(self) -> None:
        self.origin = _perf()
        self.spans: list[list] = []
        self.statements: list[dict] = []
        self.recording = False
        self._statement: dict | None = None
        self._root: _Span | None = None
        self._local = threading.local()
        self._handoffs: list[_Span] = []
        self._lock = threading.Lock()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_stack(self) -> list:
        """This thread's open spans.  A stream's span can be closed by the
        thread that drains it, not the one that opened it, so closed spans
        are dropped here as they surface."""
        stack = self._stack()
        while stack and stack[-1].record[END] is not None:
            stack.pop()
        return stack

    def span(self, name: str, handoff: bool = False, n: int = 0):
        if not self.recording:
            return _NO_SPAN
        stack = self._open_stack()
        with self._lock:
            if stack:
                parent = stack[-1].record[ID]
            elif self._handoffs:
                parent = self._handoffs[-1].record[ID]
            else:
                parent = None
            stmt = self._statement["id"] if self._statement else None
            record = [len(self.spans), name, _perf() - self.origin, None, parent, stmt, n]
            self.spans.append(record)
            span = _Span(self, record, handoff)
            if handoff:
                self._handoffs.append(span)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.record[END] = _perf() - self.origin
        if span.handoff:
            with self._lock:
                if span in self._handoffs:
                    self._handoffs.remove(span)

    def top_name(self) -> str | None:
        """Name of this thread's innermost open span (``None`` if none)."""
        stack = self._open_stack()
        return stack[-1].record[NAME] if stack else None

    def count(self, name: str, value: float) -> None:
        """Add to a per-statement counter (rows returned, bytes scanned)."""
        if self.recording and self._statement is not None:
            with self._lock:
                counts = self._statement["counts"]
                counts[name] = counts.get(name, 0) + value

    # -- statements ------------------------------------------------------------

    def begin_statement(self, cls: str, round_index: int) -> None:
        self.recording = True
        self._statement = {
            "id": len(self.statements),
            "cls": cls,
            "round": round_index,
            "factor": None,
            "counts": {},
        }
        self.statements.append(self._statement)
        self._root = self.span("stmt", handoff=True)

    def end_statement(self) -> None:
        if self._root is not None:
            self._root.__exit__(None, None, None)
        self._root = None
        self._statement = None
        self.recording = False

    def record_setup(self, on: bool) -> None:
        """Record spans outside any statement (they carry ``stmt = None``)."""
        self.recording = on

    def scale_statement(self, factor: float) -> None:
        """Record the speed adjustment of the statement just ended."""
        self.statements[-1]["factor"] = factor

    # -- output ----------------------------------------------------------------

    def closed_spans(self) -> list[list]:
        return [s for s in self.spans if s[END] is not None]

    def dump(self, path, header: dict) -> None:
        body = dict(header)
        body["span_fields"] = ["id", "name", "start", "end", "parent", "stmt", "n"]
        body["statements"] = self.statements
        body["spans"] = [
            [s[ID], s[NAME], round(s[START], 6), round(s[END], 6), s[PARENT], s[STMT], s[N]]
            for s in self.closed_spans()
        ]
        with open(path, "w") as handle:
            json.dump(body, handle, separators=(",", ":"))


# -- self time -----------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Seconds of self time per span id: duration minus the union of the
    child spans, each clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None:
            continue
        lo, hi = max(s[START], parent[START]), min(s[END], parent[END])
        if hi > lo:
            children.setdefault(parent[ID], []).append((lo, hi))
    return {
        s[ID]: (s[END] - s[START]) - union_length(children.get(s[ID], []))
        for s in spans
    }


# -- backend views ------------------------------------------------------------------


def _spanned_blocks(
    tracer: Tracer, name: str, blocks, handoff: bool, done: Callable[[int], None] | None = None
) -> Iterator:
    """Yield ``blocks`` with every pull inside its own span.

    A stream spends time in its layer only while a block is being pulled;
    between pulls the consumer runs.  ``done(rows)`` runs once the stream
    is exhausted or closed.
    """
    inner = iter(blocks)
    rows = 0
    try:
        while True:
            with tracer.span(name, handoff=handoff) as span:
                block = next(inner, None)
                if block is not None:
                    span.count(len(block))
                    rows += len(block)
            if block is None:
                return
            yield block
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()
        if done is not None:
            done(rows)


def make_trace_view(tracer: Tracer, parent, role: str = "seam"):
    """Wrap ``parent`` (a ``ServerBackend``) in a span-recording view.

    ``role`` is ``"seam"`` (what the client library talks to), ``"shard"``
    (one inner store of a sharded backend) or ``"hosted"`` (the backend
    behind ``MonomiServer``).  The outermost view of the process — seam or
    hosted — also counts rows returned and bytes scanned.
    """
    from repro.engine.rowblock import BlockStream
    from repro.server.backend import DelegatingView

    layer = {"memory": "inmemory"}.get(parent.kind, parent.kind)
    exec_name = "server.sharded.shard_exec" if role == "shard" else f"server.{layer}.exec"
    fans_out = parent.kind == "sharded"

    class TraceView(DelegatingView):
        """Every call passes through to the parent inside a span."""

        def worker_view(self):
            return TraceView(self._parent.worker_view())

        def close(self) -> None:
            close = getattr(self._parent, "close", None)
            if close is not None:
                close()

        def _executed(self, rows: int, stats) -> None:
            self.last_stats = stats
            if role == "shard":
                tracer.count("server.sharded.shard_calls", 1)
                return
            if fans_out:
                tracer.count("server.sharded.calls", 1)
            tracer.count("server.rows_returned", rows)
            tracer.count("server.bytes_scanned", stats.bytes_scanned)

        def execute(self, query, params=None, **kwargs):
            with tracer.span(exec_name, handoff=fans_out) as span:
                result = self._parent.execute(query, params=params, **kwargs)
                span.count(len(result.rows))
            self._executed(len(result.rows), self._parent.last_stats)
            return result

        def execute_stream(self, query, params=None, **kwargs):
            with tracer.span(exec_name, handoff=fans_out):
                stream = self._parent.execute_stream(query, params=params, **kwargs)
            blocks = _spanned_blocks(
                tracer, exec_name, stream, fans_out,
                done=lambda rows: self._executed(rows, stream.stats),
            )
            return BlockStream(stream.columns, blocks, stream.stats)

        def create_table(self, schema) -> None:
            with tracer.span("server.write"):
                self._parent.create_table(schema)

        def insert_rows(self, table_name, rows) -> None:
            rows = list(rows)
            with tracer.span("server.write", handoff=fans_out, n=len(rows)):
                self._parent.insert_rows(table_name, rows)

        def delete_rows(self, table_name, rows) -> int:
            with tracer.span("server.write", handoff=fans_out) as span:
                done = self._parent.delete_rows(table_name, rows)
                span.count(done)
                return done

        def replace_rows(self, table_name, pairs) -> int:
            with tracer.span("server.write", handoff=fans_out) as span:
                done = self._parent.replace_rows(table_name, pairs)
                span.count(done)
                return done

        def add_ciphertext_file(self, file) -> None:
            with tracer.span("server.hom", n=len(file.ciphertexts)):
                self._parent.add_ciphertext_file(file)

        def hom_apply(self, file_name, updates=(), appended=(), num_rows=None, token=None):
            updates, appended = list(updates), list(appended)
            with tracer.span("server.hom", n=len(updates) + len(appended)):
                self._parent.hom_apply(
                    file_name,
                    updates=updates,
                    appended=appended,
                    num_rows=num_rows,
                    token=token,
                )

        def hom_read(self, file_name, indices):
            indices = list(indices)
            with tracer.span("server.hom", n=len(indices)):
                return self._parent.hom_read(file_name, indices)

    return TraceView(parent)


# -- wrappers around the other layers' entry points --------------------------------------


def _wrap(
    owner,
    attr: str,
    tracer: Tracer,
    name: str,
    handoff: bool = False,
    count: Callable | None = None,
    when: Callable[[str | None], bool] | None = None,
    blocks_of: Callable | None = None,
) -> None:
    """Replace ``owner.attr`` by a version that runs inside a span.

    ``count(result, args)`` gives the span's count.  ``when(top)`` may veto
    the span given the name of the calling thread's innermost open span.
    For a method that returns a block stream, ``blocks_of(result)`` names
    the ``BlockStream`` whose pulls are each to be spanned too.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.recording or (when is not None and not when(tracer.top_name())):
            return original(*args, **kwargs)
        with tracer.span(name, handoff=handoff) as span:
            result = original(*args, **kwargs)
            if count is not None:
                span.count(count(result, args))
        if blocks_of is not None:
            stream = blocks_of(result)
            stream._blocks = _spanned_blocks(tracer, name, stream._blocks, handoff)
        return result

    setattr(owner, attr, wrapper)


def _wrap_open_until_drained(owner, attr: str, tracer: Tracer, name: str, blocks_of) -> None:
    """Wrap a method returning a block stream in ONE span that stays open
    until the stream is drained or closed: the parent of everything the
    stream does while the caller pulls it."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.recording or tracer.top_name() == name:
            return original(*args, **kwargs)
        span = tracer.span(name, handoff=True)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            span.__exit__(None, None, None)
            raise
        stream = blocks_of(result)
        inner = stream._blocks

        def blocks() -> Iterator:
            rows = 0
            try:
                for block in inner:
                    rows += len(block)
                    yield block
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()
                span.count(rows)
                span.__exit__(None, None, None)

        stream._blocks = blocks()
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point.  Done once, in the traced child only;
    the wrappers stay for the life of the process and pass straight
    through while the tracer is not recording."""
    import repro.core.client as client_mod
    import repro.service.service as service_mod
    from repro.core.designer import Designer
    from repro.core.dml import DmlExecutor
    from repro.core.encdata import CryptoProvider
    from repro.core.incagg import MaintainedAggregates
    from repro.core.loader import EncryptedLoader
    from repro.core.pexec import PlanExecutor
    from repro.core.planner import Planner
    from repro.engine.executor import Executor
    from repro.net.client import RemoteBackend
    from repro.service.service import ServiceSession

    # Parser and normalizer are module-level functions the client and the
    # service import by name, so the name is replaced where it is used.
    for module in (client_mod, service_mod):
        _wrap(module, "parse_statement", tracer, "sql.parse")
        for attr in ("normalize_for_execution", "normalize_dml"):
            _wrap(module, attr, tracer, "sql.normalize")

    _wrap(
        Planner, "plan", tracer, "core.planner.plan",
        count=lambda planned, args: planned.candidates_tried,
    )
    # execute() drains execute_iter(); only the outer call gets the span.
    _wrap(PlanExecutor, "execute", tracer, "core.pexec", handoff=True)
    _wrap_open_until_drained(
        PlanExecutor, "execute_iter", tracer, "core.pexec", lambda s: s._stream
    )
    _wrap(
        DmlExecutor, "execute", tracer, "core.dml", handoff=True,
        count=lambda result, args: result[0].rows[0][0],
    )
    _wrap(
        DmlExecutor, "_fetch_decrypted", tracer, "core.dml.fetch",
        count=lambda result, args: len(result[0]),
    )
    # After every write the client re-snapshots table sizes for the planner.
    _wrap(client_mod.MonomiClient, "_refresh_planner", tracer, "core.client.refresh")
    _wrap(MaintainedAggregates, "value", tracer, "core.incagg.read", handoff=True)
    _wrap(MaintainedAggregates, "on_change", tracer, "core.incagg.on_change", handoff=True)
    _wrap(ServiceSession, "execute", tracer, "service.session", handoff=True)

    # The client-side residual query runs on the plaintext engine.  So does
    # the in-memory server, but inside its own server span, where engine
    # time is the server's.
    def under_pexec(top):
        return top == "core.pexec"

    _wrap(Executor, "execute", tracer, "engine.exec", when=under_pexec)
    _wrap(
        Executor, "execute_stream", tracer, "engine.exec", when=under_pexec,
        blocks_of=lambda stream: stream,
    )

    def values(result, args):
        return len(args[1])

    for scheme in ("det", "ope", "rnd"):
        _wrap(
            CryptoProvider, f"{scheme}_decrypt_batch", tracer,
            f"core.encdata.{scheme}_decrypt", count=values,
        )
        _wrap(
            CryptoProvider, f"{scheme}_encrypt_batch", tracer,
            "core.encdata.encrypt", count=values,
        )
    _wrap(
        CryptoProvider, "paillier_decrypt_batch", tracer,
        "core.encdata.hom_decrypt", count=values,
    )
    for attr in ("paillier_encrypt_batch", "search_encrypt_batch"):
        _wrap(CryptoProvider, attr, tracer, "core.encdata.encrypt", count=values)

    for attr in ("design_ilp", "design_greedy", "design_space_greedy"):
        _wrap(Designer, attr, tracer, "core.designer.design")
    _wrap(EncryptedLoader, "load_into", tracer, "core.loader.load", handoff=True)

    _wrap(RemoteBackend, "execute", tracer, "net.client", handoff=True)
    _wrap(
        RemoteBackend, "execute_stream", tracer, "net.client", handoff=True,
        blocks_of=lambda stream: stream,
    )


# -- per-layer metrics ------------------------------------------------------------------


#: span name -> the per-layer time metric its self time adds to.
_TIME_METRICS = {
    "sql.parse": "sql.parse_ms",
    "sql.normalize": "sql.normalize_ms",
    "core.planner.plan": "core.planner.plan_ms",
    "service.session": "service.dispatch_ms",
    "core.pexec": "core.pexec.self_ms",
    "engine.exec": "core.pexec.residual_ms",
    "core.encdata.det_decrypt": "core.encdata.det_decrypt_ms",
    "core.encdata.ope_decrypt": "core.encdata.ope_decrypt_ms",
    "core.encdata.rnd_decrypt": "core.encdata.rnd_decrypt_ms",
    "core.encdata.hom_decrypt": "core.encdata.hom_decrypt_ms",
    "core.encdata.encrypt": "core.encdata.encrypt_ms",
    # A write is the DML executor, its full-table fetch, and the planner
    # refresh the client runs after it.
    "core.dml": "core.dml.self_ms",
    "core.dml.fetch": "core.dml.self_ms",
    "core.client.refresh": "core.dml.self_ms",
    "core.incagg.read": "core.incagg.read_ms",
    "core.incagg.on_change": "core.incagg.on_change_ms",
    "server.inmemory.exec": "server.inmemory.exec_ms",
    "server.sqlite.exec": "server.sqlite.exec_ms",
    "server.sharded.exec": "server.sharded.coord_ms",
    "server.sharded.shard_exec": "server.sharded.shard_exec_ms",
    "server.write": "server.write_ms",
    "server.hom": "server.hom_ms",
    "net.client": "net.client.wire_ms",
}

#: Metrics that take the span's whole duration, not its self time: a
#: maintained read *is* its ciphertext fetch and decryption.
_INCLUSIVE = {"core.incagg.read", "core.incagg.on_change"}

#: span name -> the per-layer count metric its ``n`` adds to.
_COUNT_METRICS = {
    "core.planner.plan": "core.planner.candidates",
    "core.encdata.det_decrypt": "core.encdata.det_values",
    "core.encdata.ope_decrypt": "core.encdata.ope_values",
    "core.encdata.rnd_decrypt": "core.encdata.rnd_values",
    "core.encdata.hom_decrypt": "core.encdata.hom_ciphertexts",
    "core.dml.fetch": "core.dml.rows_fetched",
    "core.dml": "core.dml.rows_affected",
    "server.hom": "server.hom_patches",
}

_STATEMENT_COUNTERS = ("server.rows_returned", "server.bytes_scanned")


def statement_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of the traced statements, per statement.

    Times are self times scaled by the statement's speed factor; only
    statements that completed (and so have a factor) count.
    """
    done = [s for s in tracer.statements if s["factor"] is not None]
    factors = {s["id"]: s["factor"] for s in done}
    out = dict.fromkeys(
        (*_TIME_METRICS.values(), *_COUNT_METRICS.values(), *_STATEMENT_COUNTERS,
         "server.sharded.fanout", "core.dml.affected_per_fetched",
         "trace.coverage_ratio"),
        0.0,
    )
    if not done:
        return out
    spans = [s for s in tracer.closed_spans() if s[STMT] in factors]
    selfs = self_times(spans)
    root_total = root_self = 0.0
    for s in spans:
        name = s[NAME]
        if name in _TIME_METRICS:
            seconds = s[END] - s[START] if name in _INCLUSIVE else selfs[s[ID]]
            out[_TIME_METRICS[name]] += seconds * 1000.0 * factors[s[STMT]]
        if name in _COUNT_METRICS:
            out[_COUNT_METRICS[name]] += s[N]
        if name == "stmt":
            root_total += s[END] - s[START]
            root_self += selfs[s[ID]]
    calls = shard_calls = 0
    for statement in done:
        counts = statement["counts"]
        for name in _STATEMENT_COUNTERS:
            out[name] += counts.get(name, 0)
        calls += counts.get("server.sharded.calls", 0)
        shard_calls += counts.get("server.sharded.shard_calls", 0)
    for name in out:
        out[name] /= len(done)
    out["server.sharded.fanout"] = shard_calls / calls if calls else 0.0
    fetched = out["core.dml.rows_fetched"]
    out["core.dml.affected_per_fetched"] = (
        out["core.dml.rows_affected"] / fetched if fetched else 0.0
    )
    out["trace.coverage_ratio"] = 1.0 - root_self / root_total if root_total else 0.0
    return out


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Designer and loader seconds of the last set-up (the spans without a
    statement).  Raw seconds: they show what ``setup_s`` is made of."""
    out = dict.fromkeys(
        ("core.designer.design_s", "core.loader.load_s", "core.loader.encrypt_s",
         "core.loader.insert_s", "core.loader.rows"),
        0.0,
    )
    spans = [s for s in tracer.closed_spans() if s[STMT] is None]
    loads = [s for s in spans if s[NAME] == "core.loader.load"]
    if not loads:
        return out
    last = loads[-1]
    selfs = self_times(spans)
    by_id = {s[ID]: s for s in spans}

    def under_last_load(span) -> bool:
        while span is not None and span[ID] != last[ID]:
            span = by_id.get(span[PARENT])
        return span is not None

    out["core.loader.load_s"] = last[END] - last[START]
    designs = [
        s for s in spans if s[NAME] == "core.designer.design" and s[END] <= last[START]
    ]
    if designs:
        out["core.designer.design_s"] = designs[-1][END] - designs[-1][START]
    for s in spans:
        if not under_last_load(s):
            continue
        if s[NAME] == "core.encdata.encrypt":
            out["core.loader.encrypt_s"] += selfs[s[ID]]
        elif s[NAME] in ("server.write", "server.hom"):
            out["core.loader.insert_s"] += selfs[s[ID]]
            parent = by_id.get(s[PARENT])
            # A sharded insert nests one write span per shard in the
            # coordinator's; count the rows once.
            if s[NAME] == "server.write" and (parent is None or parent[NAME] != "server.write"):
                out["core.loader.rows"] += s[N]
    return out
