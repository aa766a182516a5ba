"""Layered end-to-end benchmark of the reproduction's user-facing commands.

Runs one named workload (see ``NOTES.md``) for about ``--seconds`` seconds,
each repetition in a fresh interpreter, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics, medians over untraced repetitions
  (``setup_s``, ``wall_s``, ``policy_rounds_per_s``, ``peak_rss_mb``,
  ``ops_ok_ratio``). One traced repetition follows the measured ones, only
  for the output checks.
* ``--trace 1``: the per-layer metrics, medians over traced repetitions,
  alternating with untraced ones that give ``harness.trace_overhead_s``.

Output checks (see ``NOTES.md``) run on every seed; the reference digests
apply to the default seed only. The full record of the run (environment,
every repetition) is written to ``perfbench/results/raw/``; ``summarize.py``
derives the median/quartile table from those records.

Usage::

    python3 perfbench/run.py --workload size-sweep --seed 1 --seconds 20 --trace 0

Stdlib only: the program and its dependencies load in the repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RAW = HERE / "results" / "raw"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

from recorder import PER_LAYER  # noqa: E402

WORKLOADS = ("size-sweep", "onth-trajectory", "opt-ratio", "queue-adaptive")

#: The seed of the paper figures; the reference digests are for this seed.
DEFAULT_SEED = 20110330

#: Repetitions of each kind a run makes however short ``--seconds`` is.
MIN_REPS = 3

#: Each repetition's own time limit.
REP_TIMEOUT = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("policy_rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


def environment(records) -> dict:
    """Where the figures were measured."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    versions = records[0]["versions"] if records else {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": commit,
    }


def repetition(args, mode: str, index: int, serial_check: bool = False) -> dict:
    """Run one repetition in a fresh interpreter; returns its record."""
    workdir = WORK / f"{args.workload}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True)
    out = workdir / "record.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        spawned = time.monotonic_ns()
        # its own session, so that a repetition that hangs or dies is
        # stopped together with any queue workers it started
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--mode", mode, "--scale", args.scale,
             "--spawned-at", str(spawned), "--workdir", str(workdir),
             "--out", str(out)] + (["--serial-check"] if serial_check else []),
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            child.wait(timeout=REP_TIMEOUT)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, child.args)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def schedule(args) -> "list[dict]":
    """The repetitions of one run, within about ``--seconds``."""
    records = []
    start = time.monotonic()

    def rep(mode: str, serial_check: bool = False) -> None:
        records.append(repetition(args, mode, len(records), serial_check))

    if args.trace == 0:
        while len(records) < MIN_REPS or time.monotonic() - start < args.seconds:
            rep("untraced")
        rep("traced", serial_check=True)  # for the output checks only
    else:
        # alternate, so that drift in the machine's speed hits both alike
        while len(records) < 2 * MIN_REPS or time.monotonic() - start < args.seconds:
            rep("untraced")
            rep("traced", serial_check=len(records) == 1)
    return records


def evaluate(args, records) -> "list[list]":
    """Every output check of the run as ``[name, ok]``."""
    checks = []
    first = next(r for r in records if r["mode"] == "untraced")
    for index, record in enumerate(records):
        checks.extend(record["checks"])
        if record is first:
            continue
        name = ("traced result equals untraced" if record["mode"] == "traced"
                else "repeated run gives the same result")
        checks.append([f"{name} (rep {index})", record["digest"] == first["digest"]])
    if args.seed == DEFAULT_SEED and args.scale == "full":
        with open(HERE / "reference_digests.json", encoding="utf-8") as handle:
            reference = json.load(handle)[args.workload]
        checks.append(["result matches the reference digest",
                       first["digest"] == reference])
    return checks


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def metrics(args, records, ok_ratio: float) -> dict:
    untraced = [r for r in records if r["mode"] == "untraced"]
    if args.trace == 0:
        values = {
            # every repetition sets up the same way, traced or not
            "setup_s": median_of(records, "setup_s"),
            "wall_s": median_of(untraced, "wall_s"),
            "policy_rounds_per_s": statistics.median(
                r["policy_rounds"] / r["wall_s"] for r in untraced
            ),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
            "ops_ok_ratio": ok_ratio,
        }
        units = dict(END_TO_END)
    else:
        traced = [r for r in records if r["mode"] == "traced"]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _unit in PER_LAYER
            if name != "harness.trace_overhead_s"
        }
        values["harness.trace_overhead_s"] = (
            median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        )
        units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    try:
        records = schedule(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: a repetition failed: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    checks = evaluate(args, records)
    attempted = len(checks) + sum(r["tasks_attempted"] for r in records)
    failed = sum(not ok for _name, ok in checks) + sum(r["tasks_failed"] for r in records)
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(args, records, 1.0 - failed / attempted),
    }
    RAW.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    raw = RAW / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(raw, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale,
            "environment": environment(records), "checks": checks,
            "repetitions": records, "result": result,
        }, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
