"""One repetition of one workload, in a fresh interpreter.

Set-up runs from process start (``--spawned-at``, taken by the parent just
before it started this process, on the machine-wide monotonic clock) to the
first timed call: interpreter start, imports, the generated inputs and the
temporary cache or broker. Then the workload runs once, untraced or traced,
and the repetition's record goes to ``--out`` as JSON.

Usage::

    python3 perfbench/child.py --workload size-sweep --seed 1 --mode untraced \
        --scale full --spawned-at NS --workdir DIR --out rep.json [--serial-check]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recorder import Recorder, layer_table  # noqa: E402


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced"), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--serial-check", action="store_true",
                        help="also run the checks that need a serial re-run")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import workloads

    prepare, run, trace = workloads.WORKLOADS[args.workload]
    state = prepare(args.seed, workloads.SIZES[args.workload][args.scale], args.workdir)
    start = time.monotonic_ns()
    cpu_start = cpu_seconds()
    if args.mode == "traced":
        rec = Recorder()
        outcome = trace(state, rec)
    else:
        outcome = run(state)
    end = time.monotonic_ns()
    cpu = cpu_seconds() - cpu_start
    wall = (end - start) / 1e9
    peak_rss_kb = workloads.peak_rss_kb() + outcome.worker_rss_kb

    checks = list(outcome.checks)
    if args.serial_check:
        checks += workloads.serial_check(args.workload, state, outcome)
    record = {
        "mode": args.mode,
        "setup_s": (start - args.spawned_at) / 1e9,
        "wall_s": wall,
        "cpu_s": cpu,
        "policy_rounds": outcome.policy_rounds,
        "peak_rss_mb": peak_rss_kb / 1024,
        "digest": workloads.digest(outcome.results) if outcome.results else None,
        "checks": [[name, bool(ok)] for name, ok in checks],
        "tasks_attempted": outcome.tasks_attempted,
        "tasks_failed": outcome.tasks_failed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.mode == "traced":
        record["layers"] = layer_table(rec.to_dict(), wall)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
