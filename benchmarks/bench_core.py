#!/usr/bin/env python
"""Throughput + ledger-identity harness for the simulation round loop.

Times :func:`repro.core.simulator.simulate` — the one round loop — on three
points:

* ``fig03-n400-trio`` / ``fig03-n1000-trio`` — the paper's Figure 3 shape:
  the ONTH/ONBR-fixed/ONBR-dyn trio sharing one commuter trace (and one
  distance gather) per replicate, at the sweep's n=400 point and the
  1000-node headline point.
* ``routing-core-n1000-static`` — a static policy at n=1000, isolating the
  loop's span routing and ledger writes from epoch evaluation.

Two gates per point, both against the committed baseline
(``BENCH_core.json`` at the repository root, read before OUTPUT is
written):

* **ledger identity** — the sha256 digest of every run's full ledger must
  equal the committed digest, so a change to the loop or the evaluator
  that moves one ULP in one round fails here;
* **throughput** — ``rounds_per_sec`` must stay at or above
  ``rate_floor_ratio`` × the committed ``rounds_per_sec``. The ratios
  (0.62 / 0.64 / 0.62) are the earlier speedup floors divided by the
  speedups measured with them, so the gate is no looser than the
  speedup-over-the-old-loop gate it replaces. Rates are timed as the
  median repeat, and only compare on like hardware: the baseline records
  its environment block.

Usage::

    python benchmarks/bench_core.py [OUTPUT.json]

Writes ``BENCH_core.json`` (or OUTPUT) and exits non-zero when a gate
fails. Without a committed baseline the run records one and gates nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.api.registry import resolve_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import DistanceGather
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.workload.commuter import CommuterScenario, default_period_for

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_core.json"

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

#: The fig03 trio: one shared commuter trace, three policies.
TRIO = (
    ("onth", {}),
    ("onbr", {}),
    ("onbr-dyn", {"dynamic_threshold": True}),
)

#: (name, n, horizon, replicate traces, policies, timing repeats,
#: rate_floor_ratio).
POINTS = (
    ("fig03-n400-trio", 400, 300, 2, TRIO, 5, 0.62),
    ("fig03-n1000-trio", 1000, 300, 1, TRIO, 3, 0.64),
    ("routing-core-n1000-static", 1000, 3000, 1, (("static", {}),), 9, 0.62),
)

SEED = 20110330


def _build_policy(name: str, kwargs: dict, substrate):
    if name == "static":
        return resolve_policy("static")(Configuration((substrate.center,), ()))
    if name == "onbr-dyn":
        return resolve_policy("onbr")(**kwargs)
    return resolve_policy(name)(**kwargs)


def ledger_digest(runs) -> str:
    """sha256 over every ledger column of ``runs``, in order."""
    digest = hashlib.sha256()
    for run in runs:
        for field in LEDGER_FIELDS:
            column = getattr(run, field)
            dtype = np.float64 if field.endswith("cost") else np.int64
            digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


def environment() -> dict:
    """The machine and library versions a baseline was recorded on."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _bench_point(n, horizon, n_traces, policies, repeats, ratio, baseline):
    rng = np.random.default_rng(SEED)
    substrate = erdos_renyi(n=n, p=min(1.0, 4.0 / n), seed=rng)
    substrate.distances  # materialise outside the timed region
    costs = CostModel.paper_default()
    scenario = CommuterScenario(substrate, period=default_period_for(n))
    traces = [scenario.generate(horizon, rng) for _ in range(n_traces)]

    def run_all():
        out = []
        for trace in traces:
            gather = DistanceGather(substrate, costs, trace)
            for pname, kwargs in policies:
                out.append(simulate(
                    substrate, _build_policy(pname, kwargs, substrate),
                    trace, costs, seed=np.random.default_rng(0),
                    gather=gather,
                ))
        return out

    elapsed, runs = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        runs = run_all()
        elapsed.append(time.perf_counter() - start)
    # The median repeat, not the fastest: on shared runners a lucky
    # repeat can run 2x faster than the typical one, and a baseline
    # recorded on it would fail every later run.
    seconds = float(np.median(elapsed))

    replicates = n_traces * len(policies)
    rounds_per_sec = replicates * horizon / seconds
    digest = ledger_digest(runs)
    point = {
        "substrate_nodes": n,
        "horizon": horizon,
        "traces": n_traces,
        "policies": [pname for pname, _ in policies],
        "replicates": replicates,
        "timing_repeats": repeats,
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(rounds_per_sec, 1),
        "replicates_per_sec": round(replicates / seconds, 2),
        "ledger_digest": digest,
        "rate_floor_ratio": ratio,
    }
    if baseline is None:
        point.update(rate_floor=None, rate_ok=True, bit_identical=True)
    else:
        floor = ratio * baseline["rounds_per_sec"]
        point.update(
            rate_floor=round(floor, 1),
            rate_ok=rounds_per_sec >= floor,
            bit_identical=digest == baseline["ledger_digest"],
        )
    return point


def run(baseline: "dict | None" = None) -> dict:
    committed = (baseline or {}).get("points", {})
    points = {
        name: _bench_point(*args, baseline=committed.get(name))
        for name, *args in POINTS
    }
    return {
        "seed": SEED,
        "scenario": "commuter",
        "environment": environment(),
        "baseline_environment": (baseline or {}).get("environment"),
        "points": points,
        "all_bit_identical": all(p["bit_identical"] for p in points.values()),
        "all_rates_ok": all(p["rate_ok"] for p in points.values()),
    }


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    output = argv[0] if argv else str(BASELINE)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else None
    payload = run(baseline)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for name, point in payload["points"].items():
        print(
            f"{name}: {point['rounds_per_sec']:.0f} rounds/s "
            f"(floor {point['rate_floor']}), "
            f"bit_identical={point['bit_identical']} -> {output}"
        )
    if not payload["all_bit_identical"]:
        print("FAIL: ledgers diverged from the committed digests",
              file=sys.stderr)
        return 1
    if not payload["all_rates_ok"]:
        print("FAIL: rounds/sec under the committed floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
