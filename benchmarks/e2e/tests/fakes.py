"""Fake kernel and workloads: the harness driven in milliseconds."""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from harness import Op, Outcome, ReferenceKernel  # noqa: E402


class ScriptedKernel(ReferenceKernel):
    """Returns the scripted readings in turn (the last one forever)."""

    def __init__(self, script) -> None:
        super().__init__()
        self.script = list(script)

    def read(self) -> float:
        ms = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        self.readings.append(ms)
        return ms


class FakeWorkload:
    """Three classes per round; ``faults`` maps (round, class) to how the
    statement goes wrong: "raise", "wrong" or "stale"."""

    name = "fake"
    why = "a fake"
    setup_repeats = 3
    warm_rounds = 1
    timed_rounds = 9
    seeded = True
    threads = 1
    connections = 0
    CLASSES = (("a", "read", 0.001), ("b", "read", 0.003), ("w", "write", 0.002))

    def __init__(self, seed: int = 1, tracer=None, faults=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.faults = faults or {}
        self.plain_ms = {"a": 0.5, "b": 1.5}
        self.prepared = self.setups = self.teardowns = 0
        self.ran: list[tuple[int, str]] = []

    def prepare(self) -> None:
        self.prepared += 1

    def setup(self) -> None:
        self.setups += 1
        time.sleep(0.02)

    def teardown(self) -> None:
        self.teardowns += 1

    def facts(self) -> dict:
        return {"space_overhead_x": 1.5, "design": "fake-design"}

    def counters(self) -> dict:
        done = len(self.ran)
        return {"plan_hits": done, "plan_lookups": 2 * done, "blocks_sent": done}

    def round(self, index: int):
        for cls, kind, seconds in self.CLASSES:
            fault = self.faults.get((index, cls))

            def run(cls=cls, seconds=seconds, fault=fault) -> Outcome:
                self.ran.append((index, cls))
                if fault == "raise":
                    raise RuntimeError("boom")
                time.sleep(seconds)
                return Outcome(result=cls, transfer_bytes=100, round_trips=1,
                               plan=lambda: f"plan of {cls}")

            def check(outcome, warm, fault=fault):
                return fault if fault in ("wrong", "stale") else None

            yield Op(cls, run, check, kind=kind)
