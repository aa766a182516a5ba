"""Queue workers: decompose sweeps into tasks, execute leases, assemble.

This module owns every experiment-specific decision the broker refuses to
make. The contract that keeps N uncoordinated workers bit-identical to one
serial run:

* **Tasks carry positions, not samples.** A *point* task is just a sweep
  point index; a *top-up* task is an index into the point's adaptive
  schedule. Replicate seeds are pure functions of position
  (:func:`~repro.experiments.runner.spawn_tasks` /
  :func:`~repro.experiments.runner.spawn_point_extension_tasks`), so the
  task says *what* to compute, never *how it came out*.
* **Samples travel through the cache, not the queue.** Workers commit
  replicate blocks straight into the shared per-point
  :class:`~repro.api.cache.ResultCache` — the same entries a serial,
  pooled or sharded run reads and writes. Executing a task twice (a
  re-served lease racing its presumed-dead owner) rewrites identical
  bytes; atomic last-writer-wins renames make that harmless.
* **One schedule, replayed.** ``point`` and ``topup`` leases both walk
  the point's :class:`~repro.experiments.runner.PointSchedule` — the
  schedule the in-process engine walks — loading cached blocks through
  the same :class:`~repro.api.experiment.PointBlocks` coordinates, and
  simulate *at most one* fresh block per lease. The schedule at a point
  depends only on that point's samples, so whichever worker executes a
  block, its coordinates (and hence seeds and samples) are identical. A
  lease chains a ``topup`` successor only while the schedule has blocks
  left.
* **Assembly is a warm-cache ``run_sweep``.** When the last task of a
  sweep job lands, one worker wins :meth:`Broker.claim_finalize` and calls
  :func:`~repro.api.experiment.run_sweep` over the shared cache: every
  point loads, nothing simulates, and the aggregation path — including
  :class:`~repro.experiments.runner.SeriesValidator` and the stored sweep
  entry — is literally the serial code, so the queue-assembled
  :class:`~repro.experiments.runner.FigureResult` is bit-identical to the
  serial golden by construction.
* **Rows are data, never code.** Only ``point`` and ``topup`` tasks
  execute, and they carry JSON positions; a row of any other kind (such as
  the pickled ``block`` tasks older releases wrote) fails with a one-line
  error and its bytes are never loaded.

:func:`worker_loop` serves both the ``worker`` command and the in-process
:class:`~repro.api.execution.QueueBackend`, which enqueues a sweep and
works its job until it is done, so every queue execution path is this one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Mapping

from repro.api.cache import ResultCache
from repro.api.execution import SerialBackend
from repro.api.specs import SweepSpec
from repro.queue.broker import (
    DEFAULT_TTL,
    Broker,
    Heartbeat,
    Lease,
    default_worker_id,
)

if TYPE_CHECKING:
    from repro.experiments.runner import FigureResult

__all__ = [
    "enqueue_sweep",
    "execute_lease",
    "try_finalize",
    "worker_loop",
]


def _sweep_from(lease_spec: "Mapping | None") -> SweepSpec:
    if lease_spec is None:
        raise ValueError("sweep task carries no spec")
    return SweepSpec.from_dict(lease_spec)


def enqueue_sweep(
    broker: Broker,
    cache: ResultCache,
    spec: SweepSpec,
    requeue: bool = False,
) -> dict:
    """Queue a sweep as one job with a *point* task per sweep point.

    The job id is the spec's cache key (version- and code-fingerprinted),
    so re-submitting an identical spec attaches to the in-flight job
    instead of duplicating work. The decomposition is cache-aware at the
    job level only: a **warm sweep entry answers without touching the
    broker at all** — zero tasks enqueued — which is what lets the results
    service serve repeat what-ifs instantly. Per-point warmth is the
    workers' business; their cache-first execution makes warm point tasks
    nearly free.

    A previously ``done``/``failed`` job whose sweep entry has since been
    evicted (or that failed) is re-created when ``requeue`` — by default a
    failed job's state is returned so callers can surface the error.
    """
    job_id = cache.key_for(spec)
    cached = cache.load(spec)
    if cached is not None:
        return {
            "job": job_id,
            "kind": "sweep",
            "status": "done",
            "cached": True,
            "spec": spec.to_dict(),
            "tasks": {},
        }
    if requeue:
        # a terminal job the cache no longer answers — stale (evicted
        # entry) or failed — is re-created
        state = broker.job_state(job_id)
        if state is not None and state["status"] in ("done", "failed"):
            broker.delete_job(job_id)
    state = broker.enqueue_job(
        job_id,
        "sweep",
        spec=spec.to_dict(),
        tasks=[("point", {"point": i}) for i in range(len(spec.values))],
    )
    state.setdefault("cached", False)
    return state


def _advance_point(spec: SweepSpec, index: int, cache: ResultCache) -> bool:
    """Advance sweep point ``index`` by at most one fresh replicate block.

    Walks the point's :class:`~repro.experiments.runner.PointSchedule`
    replaying every cached block (free), then simulates and stores the
    first missing block, if any, and returns — so a lease stays
    short-lived and the rest of the schedule re-enqueues as a fresh task
    any worker can pick up. Idempotent: a racing twin writes identical
    bytes. Returns whether the point has blocks left to run.
    """
    from repro.api.experiment import PointBlocks
    from repro.experiments.runner import PointSchedule, SeriesValidator

    schedule = PointSchedule.of(spec)
    blocks = PointBlocks(spec, cache)
    samples: "list[Mapping[str, float]]" = []
    while (step := schedule.next(samples)) is not None:
        block = blocks.load(index, *step)
        if block is None:
            tasks = blocks.tasks(index, *step)
            block = SerialBackend().run_replicates(
                blocks.replicate, tasks, on_result=SeriesValidator(len(tasks))
            )
            blocks.store(index, *step, block)
            samples.extend(block)
            return schedule.next(samples) is not None
        samples.extend(block)
    return False


def execute_lease(broker: Broker, lease: Lease, cache: ResultCache) -> None:
    """Run one leased ``point`` or ``topup`` task.

    Advances the point's schedule by at most one fresh block
    (:func:`_advance_point`; a ``point`` task starts with the initial
    block) and chains a ``topup`` task while blocks remain. The samples
    land in ``cache``; nothing travels back on the task row, and any other
    task kind fails without its row being interpreted.
    """
    if lease.kind not in ("point", "topup"):
        raise ValueError(f"unknown task kind {lease.kind!r}")
    spec = _sweep_from(lease.spec)
    index = int(lease.payload["point"])
    if _advance_point(spec, index, cache):
        broker.add_task(
            lease.job, "topup", {"point": index}, successor_of=lease.task_id
        )
    return None


def try_finalize(
    broker: Broker, job_id: str, cache: ResultCache
) -> "FigureResult | None":
    """Assemble a drained sweep job's figure from the warm cache.

    Exactly one worker wins the claim; it reruns the spec through the
    :func:`~repro.api.experiment.run_sweep` engine with the shared cache —
    every point (and extension) loads, nothing simulates, and the resulting
    sweep entry is what :func:`enqueue_sweep`, the results service and a
    :class:`~repro.api.execution.QueueBackend` sweep answer from. The
    assembly is not reported to :func:`~repro.api.experiment.capture_sweeps`:
    it is the queue's internal step, not a sweep the caller ran. Tasks
    that exhausted their attempts fail the whole job with their first
    error instead of assembling a silently partial figure.
    """
    from repro.api.experiment import _execute_sweep

    if not broker.claim_finalize(job_id):
        return None
    state = broker.job_state(job_id)
    if state is None or state["kind"] != "sweep":
        broker.finish_job(job_id, "done")
        return None
    failed = state["tasks"].get("failed", 0)
    if failed:
        first = next(
            (
                task["error"]
                for task in broker.tasks_for(job_id)
                if task["status"] == "failed"
            ),
            "task failed",
        )
        broker.finish_job(
            job_id, "failed", error=f"{failed} task(s) failed: {first}"
        )
        return None
    try:
        result = _execute_sweep(
            SweepSpec.from_dict(state["spec"]), None, cache, None, True
        )
    except Exception as error:  # noqa: BLE001 - job must reach a terminal state
        broker.finish_job(job_id, "failed", error=repr(error))
        return None
    broker.finish_job(job_id, "done")
    return result


def worker_loop(
    queue: "str | Broker",
    cache: "str | ResultCache",
    poll: float = 0.5,
    ttl: float = DEFAULT_TTL,
    max_tasks: "int | None" = None,
    idle_exit: "float | None" = None,
    stop: "Callable[[], bool] | None" = None,
    worker_id: "str | None" = None,
    log: "Callable[[str], None] | None" = None,
) -> int:
    """Drain a queue: lease, heartbeat, execute, complete, finalize.

    The entry point behind ``repro-experiments worker``. Loops until
    ``stop()`` turns true, ``max_tasks`` leases were executed, or the
    queue stayed empty for ``idle_exit`` seconds (``None`` = run forever).
    Task exceptions are reported to the broker (:meth:`Broker.fail`
    re-serves the task until its attempts run out) and never kill the
    loop. Returns the number of tasks executed.
    """
    broker = queue if isinstance(queue, Broker) else Broker(queue, ttl=ttl)
    cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
    worker_id = worker_id or default_worker_id()
    say = log or (lambda message: None)
    executed = 0
    idle_since: "float | None" = None
    while not (stop is not None and stop()):
        if max_tasks is not None and executed >= max_tasks:
            break
        lease = broker.lease_task(worker_id, ttl=ttl)
        if lease is None:
            # nothing leasable; sweep up jobs whose last completer died
            # before assembling
            finalized = False
            for job_id in broker.finalizable_jobs():
                if try_finalize(broker, job_id, cache) is not None:
                    say(f"assembled {job_id[:12]}")
                    finalized = True
            if finalized:
                idle_since = None
                continue
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_exit is not None and now - idle_since >= idle_exit:
                break
            time.sleep(poll)
            continue
        idle_since = None
        executed += 1
        say(
            f"lease #{lease.task_id} {lease.kind} {lease.payload or ''}"
            f" (attempt {lease.attempts})"
        )
        try:
            with Heartbeat(broker, lease):
                result = execute_lease(broker, lease, cache)
        except Exception as error:  # noqa: BLE001 - report, re-serve, carry on
            broker.fail(lease, repr(error))
            say(f"task #{lease.task_id} failed: {error!r}")
            continue
        if not broker.complete(lease, result):
            # reaped mid-run: the re-served twin owns completion now; our
            # samples are in the cache either way (idempotent execution)
            say(f"lease #{lease.task_id} expired before completion")
            continue
        if lease.job_kind == "sweep":
            if try_finalize(broker, lease.job, cache) is not None:
                say(f"assembled {lease.job[:12]}")
    return executed
