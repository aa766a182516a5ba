"""In-memory span and counter recorder for the benchmark's traced runs.

Spans are taken by the benchmark's own code around calls into each layer's
public functions; nothing inside the program is instrumented. A span keeps
its name, start, end and the span that was open when it started. Times come
from ``time.monotonic_ns``, one clock shared by every process of the
machine, so spans written by queue workers line up with the coordinator's.

A layer's *self* time is its spans' total duration minus the part covered by
child spans, so the self times of one process add up to the time its
top-level spans cover and never count a nested call twice.

Stdlib only: the queue workers and the coordinator import it before numpy.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans ``(name, start_ns, end_ns, parent)`` and counters."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.counters: "dict[str, float]" = {}
        self._open: "list[int]" = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.monotonic_ns(), 0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.monotonic_ns()
            self._open.pop()

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a top-level span measured by the caller."""
        self.spans.append([name, int(start_ns), int(end_ns), -1])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)


def self_seconds(spans) -> "dict[str, float]":
    """Self time per span name, in seconds."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: "dict[str, float]" = {}
    for (name, start, end, _parent), covered in zip(spans, child_ns):
        totals[name] = totals.get(name, 0.0) + (end - start - covered) / 1e9
    return totals


#: Per-layer metrics: (name, unit). Seconds are self times of the spans of
#: the same name without the ``_s`` suffix; the rest are counters.
LAYER_SECONDS = (
    "topology.build", "topology.apsp", "workload.trace", "core.gather",
    "core.loop.onth", "core.loop.onbr", "core.loop.onbr-dyn", "core.loop.offstat",
    "algorithms.opt.solve", "api.metrics", "experiments.aggregate",
    "api.cache.io", "api.cache.warm", "queue.enqueue", "queue.first_lease",
    "queue.lease", "queue.execute.point", "queue.execute.topup",
    "queue.complete", "queue.finalize", "queue.idle",
)
LAYER_COUNTS = (
    "topology.apsp_calls", "topology.apsp_distinct", "core.rounds",
    "core.migrations", "core.creations", "algorithms.opt.solves",
    "api.cache.hits", "api.cache.point_hits", "api.cache.point_misses",
    "api.cache.point_stores", "api.cache.extension_hits",
    "api.cache.extension_stores", "queue.tasks.point", "queue.tasks.topup",
    "queue.tasks.failed", "queue.finalize_extension_batches",
)
PER_LAYER = (
    [(f"{name}_s", "s") for name in LAYER_SECONDS]
    + [("core.loop_s", "s"), ("harness.traced_wall_s", "s"),
       ("harness.trace_overhead_s", "s"), ("harness.unaccounted_s", "s")]
    + [(name, "count") for name in LAYER_COUNTS]
    + [("topology.apsp_useful_ratio", "ratio")]
)

#: Prefix of the counters that carry queue workers' per-layer seconds.
WORKER_SECONDS = "worker-seconds."


def layer_table(record: dict, traced_wall: float) -> "dict[str, float]":
    """Every per-layer metric except ``harness.trace_overhead_s``.

    Queue workers run side by side, so their layer seconds are averaged over
    the workers: with the coordinator's own spans they then add up, with
    ``harness.unaccounted_s``, to the traced wall time.
    """
    counters = record["counters"]
    seconds = self_seconds(record["spans"])
    workers = counters.get("queue.workers", 0)
    for key, value in counters.items():
        if key.startswith(WORKER_SECONDS):
            name = key[len(WORKER_SECONDS):]
            seconds[name] = seconds.get(name, 0.0) + value / workers
    unknown = set(seconds) - set(LAYER_SECONDS)
    if unknown:
        raise ValueError(f"spans outside the layer table: {sorted(unknown)}")
    table = {f"{name}_s": seconds.get(name, 0.0) for name in LAYER_SECONDS}
    table["core.loop_s"] = sum(
        (v for k, v in seconds.items() if k.startswith("core.loop.")), 0.0
    )
    table["harness.traced_wall_s"] = traced_wall
    table["harness.unaccounted_s"] = traced_wall - sum(seconds.values())
    for name in LAYER_COUNTS:
        table[name] = float(counters.get(name, 0))
    calls = counters.get("topology.apsp_calls", 0)
    table["topology.apsp_useful_ratio"] = (
        counters.get("topology.apsp_distinct", 0) / calls if calls else 0.0
    )
    return table
