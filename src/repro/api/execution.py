"""Execution backends: where a sweep's replicates actually run.

The sweep engine (:func:`~repro.api.experiment.run_sweep`) turns each
round of replicate blocks into a flat list of :class:`ReplicateTask`\\ s —
one per replicate, each carrying the exact ``numpy.random.SeedSequence``
child that the serial loop would have used. A backend only chooses *where*
those tasks execute:

* :class:`SerialBackend` — in-process loop, the default;
* :class:`ProcessPoolBackend` — fan-out over worker processes, which
  receive the pickled replicate callable (the spec-driven
  :class:`~repro.api.experiment.SpecReplicate`, plain data).

Because the child seeds are spawned up front in the parent and travel with
the tasks, a replicate sees bit-identical randomness no matter which backend
runs it: serial and parallel sweeps produce identical
:class:`~repro.experiments.runner.FigureResult`\\ s.

:class:`QueueBackend` is the sweep-level executor: it fills the sweep's
per-point cache entries through a work queue, and the engine then reads
the warm cache like every other executor.
"""

from __future__ import annotations

import abc
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ReplicateTask",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
]

#: A replicate maps ``(x, rng) -> {series name: value}``.
Replicate = Callable[[Any, np.random.Generator], Mapping[str, float]]

#: Optional per-result hook ``(index, task, result)`` invoked as results
#: become available, in task order — raising from it aborts the batch, which
#: is how the sweep engine fails fast on malformed replicate output instead
#: of discarding a long run's remaining compute.
ResultHook = Callable[[int, "ReplicateTask", Mapping[str, float]], None]


@dataclass(frozen=True)
class ReplicateTask:
    """One unit of sweep work: a sweep-point value plus its dedicated seed."""

    x: Any
    seed: np.random.SeedSequence


def _execute(replicate: Replicate, task: ReplicateTask) -> Mapping[str, float]:
    """Run one task; the single place a task's rng is materialised."""
    return replicate(task.x, np.random.default_rng(task.seed))


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of replicate tasks.

    Implementations must return one result per task, in task order, and must
    derive each task's generator from its own ``seed`` (use
    :func:`numpy.random.default_rng`) so results are backend-independent.
    """

    @abc.abstractmethod
    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        """Execute every task and return the results in task order.

        ``on_result`` (when given) must be called with ``(index, task,
        result)`` as each result becomes available, in task order.
        """


def _collect(tasks, results, on_result) -> list:
    """Drain ``results`` (an iterable in task order) through the hook."""
    out = []
    for index, (task, result) in enumerate(zip(tasks, results)):
        if on_result is not None:
            on_result(index, task, result)
        out.append(result)
    return out


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution — the reference behaviour."""

    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        return _collect(
            tasks, (_execute(replicate, task) for task in tasks), on_result
        )

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan replicates out across worker processes.

    Args:
        workers: pool size; ``None`` uses :func:`os.cpu_count`.
    """

    def __init__(self, workers: "int | None" = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        tasks = list(tasks)
        if len(tasks) <= 1 or self.workers == 1:
            return SerialBackend().run_replicates(replicate, tasks, on_result)

        workers = min(self.workers, len(tasks))
        chunksize = max(1, len(tasks) // (workers * 4))

        execute = functools.partial(_execute, replicate)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _collect(
                tasks, pool.map(execute, tasks, chunksize=chunksize), on_result
            )

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"


class QueueBackend:
    """Run whole sweeps through a :class:`repro.queue.broker.Broker` queue.

    Where :class:`ProcessPoolBackend` runs replicate batches, a queue
    backend runs a sweep: :func:`~repro.api.experiment.run_sweep` enqueues
    it as per-point tasks (:func:`~repro.queue.worker.enqueue_sweep`) and
    drains them in process with :func:`~repro.queue.worker.worker_loop`
    until the job is done, so the sweep completes with zero external
    workers; every ``repro-experiments worker`` on the same queue file and
    cache directory helps. Samples travel through the shared
    :class:`~repro.api.cache.ResultCache` the sweep must be given, never
    through the queue, and the figure is read back from that warm cache —
    bit-identical to serial execution.

    Args:
        queue: the queue database path, or an existing ``Broker``.
    """

    def __init__(self, queue) -> None:
        from repro.queue.broker import Broker

        self.broker = queue if isinstance(queue, Broker) else Broker(queue)

    def drain(self, spec, cache) -> None:
        """Enqueue ``spec`` and work its job until it is done or failed."""
        from repro.queue.worker import enqueue_sweep, worker_loop

        state = enqueue_sweep(self.broker, cache, spec, requeue=True)
        job = state["job"]

        def settled() -> bool:
            current = self.broker.job_state(job)
            return current is None or current["status"] in ("done", "failed")

        if not state["cached"]:
            worker_loop(self.broker, cache, poll=0.05, stop=settled)
        final = self.broker.job_state(job)
        if final is not None and final["status"] == "failed":
            raise RuntimeError(f"queue job {job[:12]} failed: {final['error']}")

    def __repr__(self) -> str:
        return f"QueueBackend({str(self.broker.path)!r})"
