"""A traced queue worker: ``worker_loop`` rebuilt from its public calls.

It leases, heartbeats, executes, completes and finalizes exactly as
``repro.queue.worker.worker_loop`` does, with a span around each call, and
exits once the benchmark's job is finished. It then writes its spans and
counters (task kinds, extension batches simulated inside ``try_finalize``,
its cache counters) to ``--out``.

Usage::

    python3 perfbench/queue_worker.py --queue Q --cache-dir C --job ID \
        --spawned-at NS --poll 0.02 --out spans.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recorder import Recorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--queue", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="time.monotonic_ns() when the coordinator spawned us")
    parser.add_argument("--poll", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    rec = Recorder()
    from repro.api.cache import ResultCache
    from repro.queue.broker import Broker, Heartbeat, default_worker_id
    from repro.queue.worker import execute_lease, try_finalize

    broker = Broker(args.queue)
    cache = ResultCache(args.cache_dir)
    worker_id = default_worker_id()

    def finalize(job_id: str) -> bool:
        before = cache.extension_stores
        with rec.span("queue.finalize"):
            done = try_finalize(broker, job_id, cache) is not None
        rec.count("queue.finalize_extension_batches", cache.extension_stores - before)
        return done

    lease = broker.lease_task(worker_id)
    rec.add_span("queue.first_lease", args.spawned_at, time.monotonic_ns())
    while True:
        if lease is None:
            with rec.span("queue.idle"):
                # as worker_loop: sweep up jobs whose last completer died
                # before assembling, then poll again straight away
                if not any([finalize(job) for job in broker.finalizable_jobs()]):
                    if broker.job_state(args.job)["status"] in ("done", "failed"):
                        break
                    time.sleep(args.poll)
        else:
            rec.count(f"queue.tasks.{lease.kind}")
            with rec.span(f"queue.execute.{lease.kind}"):
                try:
                    with Heartbeat(broker, lease):
                        result = execute_lease(broker, lease, cache)
                except Exception as error:  # noqa: BLE001 - as worker_loop
                    broker.fail(lease, repr(error))
                    rec.count("queue.tasks.failed")
                    result = None
                    failed = True
                else:
                    failed = False
            if not failed:
                with rec.span("queue.complete"):
                    completed = broker.complete(lease, result)
                if completed and lease.job_kind == "sweep":
                    finalize(lease.job)
        with rec.span("queue.lease"):
            lease = broker.lease_task(worker_id)

    for name in ("hits", "point_hits", "point_misses", "point_stores",
                 "extension_hits", "extension_stores"):
        rec.count(f"api.cache.{name}", getattr(cache, name))
    rec.dump(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
