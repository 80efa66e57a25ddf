"""The measuring loop: reference kernel, speed adjustment, failure accounting.

This box's speed is not a constant.  The same interpreter running the
same loop reads 3 ms one second and 7 ms the next, and whole runs sit in
slow spells, so raw times of identical code differ by 30 % between
processes.  The harness therefore never reports a raw time:

* between statements it runs a fixed stdlib-only *reference kernel* and
  divides each statement's time by the kernel readings around it
  (:func:`metrics.adjusted_ms`);
* a statement class is estimated by the *median* of its adjusted samples
  over the timed rounds, which drops the millisecond-scale spikes the
  adjacent readings cannot see;
* loops are count-based, never deadline-based, so every run takes the
  same samples.

A wrong result, a raised statement or a stale read is a failed op.  It
has no latency sample and never ends the run.

Nothing here imports the program; a workload is any object with the
:class:`Workload` shape, which is how the unit tests drive this file with
fakes that run in milliseconds.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

import metrics

#: The kernel's time on this box at its usual speed.  Adjusted times read
#: "as on a machine where the kernel takes this long"; changing it rescales
#: every time metric, so it changes only together with the baselines.
KERNEL_REF_MS = 2.5

#: Seconds between two kernel readings while a set-up call runs.
METER_INTERVAL_S = 0.1

_perf = time.perf_counter


class ReferenceKernel:
    """A fixed piece of interpreter work whose time tracks machine speed.

    Two loops, about equal in time: interpreted integer arithmetic (what
    FFX/OPE rounds, predicates and row loops are made of) and
    tuple/dict/str churn (rows, plans, AST rewrites).  The program is
    interpreter-bound and so is the kernel.  A wider mix was measured and
    dropped: with 1024-bit ``pow``, SHA-256 and a 2 MB pointer chase added,
    the same 70 back-to-back runs spread 3.9 % instead of 2.2 % — code
    that runs inside C or waits on memory slows by a different factor in
    this box's slow spells than code that runs bytecode, and it is
    bytecode the statements spend their time in.

    The instance keeps every reading so the run can report how steady the
    box was (``harness.kernel_cv``).
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    @staticmethod
    def _work() -> int:
        acc = 0
        for i in range(24000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        table: dict = {}
        for i in range(3900):
            table[(i, str(i))] = (i, i + 1)
        text = "".join(key[1] for key in table)
        return acc ^ len(text)

    def read(self) -> float:
        """Run the kernel once; return (and remember) its milliseconds.

        The collector is off for the reading.  The churn allocates ten
        thousand containers, and on a heap of set-up size a collection it
        triggers would cost more than the reading itself — billed to the
        kernel, and, worse, run again and again during the set-up being
        metered.  Everything the kernel allocates is freed by reference
        count before it returns, so the collector's counters end where
        they started.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = _perf()
            self._work()
            ms = (_perf() - start) * 1000.0
        finally:
            if was_enabled:
                gc.enable()
        self.readings.append(ms)
        return ms

    def cv(self) -> float:
        if len(self.readings) < 2:
            return 0.0
        return statistics.pstdev(self.readings) / statistics.fmean(self.readings)

    def median(self) -> float:
        return statistics.median(self.readings) if self.readings else 0.0


class SetupMeter:
    """Kernel readings *during* one long call, for its speed adjustment.

    A statement is bracketed by two readings, but a set-up is a single
    call of seconds through the public API, and speed shifts inside it.
    While the ``with`` block runs, an interval timer interrupts the
    calling thread every :data:`METER_INTERVAL_S` and the handler runs the
    kernel right there.  A meter *thread* beside the call would not do:
    a kernel reading longer than the interpreter's 5 ms switch interval
    gets the GIL taken away mid-reading and reads 5 ms too long — exactly
    in the slow spells the reading is meant to size.
    """

    def __init__(self, kernel: ReferenceKernel) -> None:
        self.kernel = kernel
        self.readings: list[float] = []
        self.raw_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        self.readings.append(self.kernel.read())

    def __enter__(self) -> "SetupMeter":
        self.readings.append(self.kernel.read())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL_S, METER_INTERVAL_S)
        self._start = _perf()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw_s = _perf() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.readings.append(self.kernel.read())

    @property
    def adjusted_s(self) -> float:
        return metrics.adjusted_ms(self.raw_s, self.readings, KERNEL_REF_MS)


@dataclass
class Outcome:
    """What one statement produced, as far as the harness needs it."""

    result: object  # rows, or a digest of them; ``Op.check`` judges it
    transfer_bytes: int = 0
    round_trips: int = 0
    plan: Callable[[], str] | None = None  # renders the plan text, when asked
    first_block_ms: float | None = None


@dataclass
class Op:
    """One statement of a round.

    ``run`` is the timed call into the program.  ``prepare`` runs just
    before it and ``check`` just after it, both outside the timed region;
    ``check`` returns ``None`` or why the result is a failed op
    (``"wrong"`` or ``"stale"``).
    """

    cls: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome, bool], str | None]
    kind: str = "read"  # "read" or "write": which of read_gm_ms / write_gm_ms
    prepare: Callable[[], None] | None = None


class Workload(Protocol):
    name: str
    setup_repeats: int
    warm_rounds: int
    timed_rounds: int  # at the default --seconds

    def prepare(self) -> None: ...

    def setup(self) -> None: ...

    def teardown(self) -> None: ...

    def round(self, index: int) -> Iterable[Op]: ...


@dataclass
class Sample:
    cls: str
    kind: str
    round: int
    raw_ms: float
    adj_ms: float
    factor: float  # adj_ms / raw_ms: what a span inside the statement scales by
    traced: bool
    outcome: Outcome


@dataclass
class Failure:
    cls: str
    round: int
    reason: str  # "raised", "wrong" or "stale"
    detail: str = ""


@dataclass
class Measurement:
    samples: list[Sample] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    attempted: int = 0
    round_classes: list[str] = field(default_factory=list)
    plans: dict[str, str] = field(default_factory=dict)  # class -> plan digest

    def timed(self, traced: bool | None = None) -> list[Sample]:
        return [s for s in self.samples if traced is None or s.traced == traced]


def plan_digest(outcome: Outcome) -> str:
    """Digest of the plan a statement ran (DML and maintained reads have
    none).  Rendering the plan costs a millisecond, so it happens here,
    after the timed region, and only in warm-up rounds."""
    text = outcome.plan() if outcome.plan is not None else ""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_rounds_for(workload: Workload, seconds: float, default_seconds: float) -> int:
    """``--seconds`` only scales the number of timed rounds, and never below
    the nine every class needs for its median."""
    scaled = round(workload.timed_rounds * seconds / default_seconds)
    return max(9, scaled)


def measure_setup(workload: Workload, kernel: ReferenceKernel, tracer=None) -> list[float]:
    """Set the workload up ``setup_repeats`` times; return adjusted seconds.

    Inputs are built from the seed before each set-up, outside the timed
    call.  The last set-up is left standing for the rounds that follow,
    and is the one a tracer records.
    """
    times = []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.teardown()
        workload.prepare()
        last = repeat == workload.setup_repeats - 1
        if tracer is not None and last:
            tracer.record_setup(True)
        with SetupMeter(kernel) as meter:
            workload.setup()
        if tracer is not None:
            tracer.record_setup(False)
        times.append(meter.adjusted_s)
    return times


def measure(
    workload: Workload,
    kernel: ReferenceKernel,
    timed_rounds: int,
    tracer=None,
    after_warmup: Callable[[], None] | None = None,
) -> Measurement:
    """Warm-up rounds, then ``timed_rounds`` rounds of the workload's mix.

    With a ``tracer`` every other timed round records spans and the rest
    run with recording off, so one pass yields both the per-layer numbers
    and, from the same process at the same machine speed, the tracing
    overhead.
    """
    out = Measurement()
    for index in range(workload.warm_rounds + timed_rounds):
        warm = index < workload.warm_rounds
        if index == workload.warm_rounds and after_warmup is not None:
            after_warmup()
        traced = tracer is not None and not warm and (index - workload.warm_rounds) % 2 == 0
        classes = []
        for op in workload.round(index):
            classes.append(op.cls)
            if op.prepare is not None:
                op.prepare()
            before = kernel.read()
            if traced:
                tracer.begin_statement(op.cls, index)
            start = _perf()
            try:
                outcome = op.run()
                error = None
            except Exception as exc:  # a failed op, never the end of the run
                outcome, error = None, exc
            raw_ms = (_perf() - start) * 1000.0
            if traced:
                tracer.end_statement()
            after = kernel.read()
            if not warm:
                out.attempted += 1
            if error is not None:
                reason, detail = "raised", f"{type(error).__name__}: {error}"
            else:
                reason, detail = op.check(outcome, warm), ""
            if reason is not None:
                if not warm:
                    out.failures.append(Failure(op.cls, index, reason, detail))
                print(
                    f"  failed op: {op.cls} round {index} {reason} {detail}",
                    file=sys.stderr,
                )
                continue
            if warm:
                out.plans[op.cls] = plan_digest(outcome)
                continue
            adj_ms = metrics.adjusted_ms(raw_ms, (before, after), KERNEL_REF_MS)
            sample = Sample(
                op.cls, op.kind, index, raw_ms, adj_ms, adj_ms / raw_ms, traced, outcome
            )
            out.samples.append(sample)
            if traced:
                tracer.scale_statement(sample.factor)
        if not out.round_classes:
            out.round_classes = classes
    return out
