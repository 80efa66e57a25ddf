"""The bounded queue put used by the shard coordinator's stream producers."""

from __future__ import annotations

import queue as queue_mod
import threading


def queue_put_bounded(
    out: queue_mod.Queue, item: object, stop: threading.Event
) -> bool:
    """Bounded queue put that gives up once ``stop`` is set.

    The producer half of the sharded stream's bounded per-shard queues:
    block on a full queue, but poll the stop flag so a consumer that
    closed early never strands the producer.  Returns False when it gave
    up.
    """
    while not stop.is_set():
        try:
            out.put(item, timeout=0.05)
            return True
        except queue_mod.Full:
            continue
    return False
