"""The benchmark's workloads: inputs from a seed, untraced and traced runs.

Each workload has three steps, all through the program's public API:

* ``prepare(seed, sizes, workdir)`` builds the inputs (specs or figure
  parameters) from the workload seed plus the temporary cache or broker.
  This is set-up; the program receives only the generated inputs.
* ``run(state)`` is the untraced command a user runs.
* ``trace(state, rec)`` does the same work again with spans from this file
  around every call into a layer. For the sweeps it replays each replicate
  in the RNG order of ``repro.api.experiment._simulate_spec`` (substrate,
  one trace per distinct scenario in first-use order, then the policies in
  declaration order, all from one generator), so its result must equal the
  untraced one bit for bit; the output checks and the tests hold it to that.

Both return an :class:`Outcome`. Span names are the layer names of the
per-layer table (see ``NOTES.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ReplicationSpec,
    ResultCache,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    run_sweep,
)
from repro.algorithms import OnTH
from repro.algorithms.opt import Opt
from repro.api.metrics import MetricContext, PolicyRun, evaluate_metrics
from repro.api.specs import canonical_key
from repro.core.batch import DistanceGather, simulate_batched
from repro.core.costs import CostModel
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.policy import OfflinePolicy
from repro.core.simulator import simulate
from repro.experiments.figures import figure02
from repro.experiments.runner import FigureResult, aggregate_samples, spawn_tasks
from repro.queue.broker import Broker
from repro.queue.worker import enqueue_sweep
from repro.topology.generators import erdos_renyi
from repro.workload.base import generate_trace
from repro.workload.commuter import CommuterScenario

from recorder import WORKER_SECONDS, Recorder, self_seconds

HERE = Path(__file__).resolve().parent

#: Sizes per workload and scale. ``full`` is what the benchmark measures;
#: ``tiny`` is for the benchmark's own tests.
SIZES = {
    "size-sweep": {
        "full": dict(sizes=(400, 1000), horizon=120, runs=3),
        "tiny": dict(sizes=(30, 60), horizon=30, runs=2),
    },
    "onth-trajectory": {
        "full": dict(trajectories=6, n=300, period=10, sojourn=10, horizon=30,
                     sample_every=5),
        "tiny": dict(trajectories=2, n=40, period=6, sojourn=5, horizon=30,
                     sample_every=5),
    },
    "opt-ratio": {
        "full": dict(lambdas=(1, 2, 5, 10, 20, 50, 100, 200), runs=3, horizon=200),
        "tiny": dict(lambdas=(2, 10), runs=2, horizon=30),
    },
    "queue-adaptive": {
        "full": dict(sizes=(40, 60, 80, 100, 120, 140, 160, 180), horizon=100,
                     runs=3, batch=2, max_runs=9, target=0.01),
        "tiny": dict(sizes=(30, 50), horizon=30, runs=2, batch=2,
                     max_runs=6, target=0.001),
    },
}

#: The online trio of Figures 3-10, as the figure module declares it.
ONLINE_TRIO = (
    PolicySpec("onth", label="ONTH"),
    PolicySpec("onbr", label="ONBR-fixed"),
    PolicySpec("onbr-dyn", label="ONBR-dyn"),
)

#: OFFSTAT under both cost regimes (Figures 15-19).
REGIME_PAIR = (
    PolicySpec("offstat", label="β<c"),
    PolicySpec("offstat", label="β>c", costs=CostSpec.migration_expensive()),
)

QUEUE_WORKERS = 2
QUEUE_POLL = 0.02
QUEUE_DEADLINE = 150.0


@dataclass
class Outcome:
    """What one run of a workload produced."""

    results: list
    policy_rounds: int
    checks: "list[tuple[str, bool]]" = field(default_factory=list)
    tasks_attempted: int = 0
    tasks_failed: int = 0
    worker_rss_kb: int = 0


def digest(results) -> str:
    """sha256 of the canonical JSON of the results' data.

    The descriptive text (figure id, title, axis label, notes) is left out,
    so the digest pins the numbers only.
    """
    data = [
        {k: v for k, v in r.to_dict().items()
         if k not in ("figure", "title", "x_label", "notes")}
        for r in results
    ]
    return canonical_key(data)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


def size_sweep_spec(figure: str, dynamic: bool, seed: int, sizes, horizon, runs):
    """The Figure 3 (dynamic load) or Figure 4 (static load) size sweep."""
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi"),
            scenario=ScenarioSpec("commuter", {"sojourn": 10, "dynamic_load": dynamic}),
            policies=ONLINE_TRIO,
            costs=CostSpec.paper_default(),
            horizon=horizon,
        ),
        parameter="topology.n",
        values=tuple(int(n) for n in sizes),
        runs=runs,
        seed=seed,
        figure=figure,
    )


def opt_ratio_spec(seed: int, lambdas, runs, horizon):
    """The Figure 15 shape: OFFSTAT/OPT vs λ on the 5-node line."""
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec(
                "line", {"n": 5, "unit_latency": False, "latency_range": (5.0, 20.0)}
            ),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=REGIME_PAIR,
            costs=CostSpec.paper_default(),
            horizon=horizon,
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "OPT"}),),
        ),
        parameter="scenario.sojourn",
        values=tuple(int(lam) for lam in lambdas),
        runs=runs,
        seed=seed,
        figure="fig15",
    )


def queue_spec(seed: int, sizes, horizon, runs, batch, max_runs, target):
    """An adaptive fig03-shaped sweep: relative CI target, capped replicates."""
    spec = size_sweep_spec("fig03", True, seed, sizes, horizon, runs)
    return SweepSpec(
        experiment=spec.experiment,
        parameter=spec.parameter,
        values=spec.values,
        runs=runs,
        seed=seed,
        figure="fig03",
        replication=ReplicationSpec(
            ci_level=0.95, target_halfwidth=target, relative=True,
            max_runs=max_runs, batch=batch,
        ),
    )


def sweep_policy_rounds(spec: SweepSpec, replicates: int) -> int:
    return replicates * len(spec.experiment.policies) * spec.experiment.horizon


# ---------------------------------------------------------------------------
# Traced replay of the sweep engine
# ---------------------------------------------------------------------------


class ApspLedger:
    """Counts APSP computations and the distinct matrices among them."""

    def __init__(self) -> None:
        self.calls = 0
        self.distinct: "set[str]" = set()

    def add(self, distances: np.ndarray) -> None:
        self.calls += 1
        self.distinct.add(hashlib.sha256(memoryview(distances)).hexdigest())

    def publish(self, rec: Recorder) -> None:
        rec.count("topology.apsp_calls", self.calls)
        rec.count("topology.apsp_distinct", len(self.distinct))


@contextmanager
def timed_opt_solve(rec: Recorder):
    """Wrap ``Opt.solve`` in an ``algorithms.opt.solve`` span while open.

    The metrics layer reaches the OPT dynamic program only through this
    classmethod, so the wrapper times every solve without touching the
    program's code.
    """
    original = Opt.__dict__["solve"]
    solve = Opt.solve

    def traced(cls, *args, **kwargs):
        rec.count("algorithms.opt.solves")
        with rec.span("algorithms.opt.solve"):
            return solve(*args, **kwargs)

    Opt.solve = classmethod(traced)
    try:
        yield
    finally:
        Opt.solve = original


def replay_replicate(spec: ExperimentSpec, rng, rec: Recorder, apsp: ApspLedger):
    """One replicate of ``spec`` with a span around every layer call."""
    with rec.span("topology.build"):
        substrate = spec.topology.build(rng)
    with rec.span("topology.apsp"):
        distances = substrate.distances
    apsp.add(distances)

    scenarios: list = []
    traces: list = []
    trace_of: "list[int]" = []
    for policy_spec in spec.policies:
        effective = policy_spec.scenario or spec.scenario
        if effective in scenarios:
            trace_of.append(scenarios.index(effective))
            continue
        with rec.span("workload.trace"):
            trace = generate_trace(effective.build(substrate), spec.horizon, rng)
        scenarios.append(effective)
        traces.append(trace)
        trace_of.append(len(traces) - 1)

    runs: "list[PolicyRun]" = []
    cost_models: list = []
    gathers: dict = {}
    for policy_spec, trace_index in zip(spec.policies, trace_of):
        policy = policy_spec.build()
        cost_spec = policy_spec.costs or spec.costs
        costs = next((m for s, m in cost_models if s is cost_spec), None)
        if costs is None:
            costs = cost_spec.to_cost_model()
            cost_models.append((cost_spec, costs))
        key = (trace_index, id(costs))
        if key not in gathers:
            with rec.span("core.gather"):
                gathers[key] = DistanceGather(substrate, costs, traces[trace_index])
                if not isinstance(policy, OfflinePolicy):
                    # the gather is lazy; online policies force it on
                    # their first round, offline ones never use it
                    gathers[key].columns
        with rec.span(f"core.loop.{policy_spec.kind}"):
            run = simulate_batched(
                substrate, policy, traces[trace_index], costs,
                routing=spec.routing_strategy, seed=rng, gather=gathers[key],
            )
        count_ledger(rec, run)
        runs.append(PolicyRun(
            label=policy_spec.label or policy.name,
            spec=policy_spec,
            run=run,
            trace=traces[trace_index],
            trace_index=trace_index,
            costs=costs,
            cost_spec=cost_spec,
            scenario=scenarios[trace_index],
        ))
    context = MetricContext(spec=spec, substrate=substrate, runs=runs)
    with rec.span("api.metrics"):
        return evaluate_metrics(context, spec.metrics)


def count_ledger(rec: Recorder, run) -> None:
    rec.count("core.rounds", run.rounds)
    rec.count("core.migrations", run.total_migrations)
    rec.count("core.creations", run.total_creations)


def replay_sweep(spec: SweepSpec, rec: Recorder, apsp: ApspLedger,
                 cache: "ResultCache | None" = None) -> FigureResult:
    """``run_sweep`` on a fixed-runs spec against a cold (or no) cache."""
    runs = spec.effective_runs
    x_values = list(spec.values)
    points = [spec.experiment_at(x) for x in x_values]
    if cache is not None:
        with rec.span("api.cache.io"):
            if cache.load(spec) is not None or any(
                cache.load_point(points[i], spec.seed, i * runs, runs) is not None
                for i in range(len(points))
            ):
                raise RuntimeError("the traced replay needs a cold cache")
    tasks = spawn_tasks(x_values, runs, spec.seed)
    samples = []
    for i in range(len(x_values)):
        block = [
            replay_replicate(points[i], np.random.default_rng(task.seed), rec, apsp)
            for task in tasks[i * runs:(i + 1) * runs]
        ]
        samples.extend(block)
        if cache is not None:
            with rec.span("api.cache.io"):
                cache.store_point(points[i], spec.seed, i * runs, runs, block)
    with rec.span("experiments.aggregate"):
        result = aggregate_samples(
            figure=spec.figure,
            title=spec.resolved_title(),
            x_label=spec.resolved_x_label(),
            x_values=x_values,
            samples=samples,
            runs=runs,
            notes=spec.notes,
            comparison=spec.comparison,
        )
    if cache is not None:
        with rec.span("api.cache.io"):
            cache.store(spec, result)
    return result


def publish_cache(rec: Recorder, *caches: ResultCache) -> None:
    for name in ("hits", "point_hits", "point_misses", "point_stores",
                 "extension_hits", "extension_stores"):
        rec.count(f"api.cache.{name}", sum(getattr(c, name) for c in caches))


# ---------------------------------------------------------------------------
# size-sweep: fig03 then fig04 against one fresh cache, then a warm re-run
# ---------------------------------------------------------------------------


def prepare_size_sweep(seed, sizes, workdir):
    specs = (
        size_sweep_spec("fig03", True, seed, **sizes),
        size_sweep_spec("fig04", False, seed, **sizes),
    )
    return {"specs": specs, "cache": ResultCache(Path(workdir) / "cache")}


def _warm_rerun(state, cold_results) -> "tuple[list, ResultCache]":
    """Both sweeps again through a new cache instance on the same directory."""
    warm = ResultCache(state["cache"].root)
    results = [run_sweep(spec, cache=warm) for spec in state["specs"]]
    checks = [
        ("warm re-run simulates nothing", warm.point_misses == 0 and warm.misses == 0),
        ("warm re-run equals the cold run", digest(results) == digest(cold_results)),
    ]
    return checks, warm


def _size_rounds(state) -> int:
    return sum(sweep_policy_rounds(s, len(s.values) * s.runs) for s in state["specs"])


def run_size_sweep(state) -> Outcome:
    results = [run_sweep(spec, cache=state["cache"]) for spec in state["specs"]]
    checks, _warm = _warm_rerun(state, results)
    return Outcome(results, _size_rounds(state), checks)


def trace_size_sweep(state, rec: Recorder) -> Outcome:
    apsp = ApspLedger()
    results = [replay_sweep(spec, rec, apsp, state["cache"]) for spec in state["specs"]]
    with rec.span("api.cache.warm"):
        checks, warm = _warm_rerun(state, results)
    apsp.publish(rec)
    publish_cache(rec, state["cache"], warm)
    return Outcome(results, _size_rounds(state), checks)


# ---------------------------------------------------------------------------
# onth-trajectory: the fig02 shape through the scalar simulator
# ---------------------------------------------------------------------------


def prepare_onth(seed, sizes, workdir):
    """One ``figure02`` parameter set per trajectory.

    ONTH's run time depends strongly on the instance, so a repetition runs
    several trajectories, each seeded from the workload seed, to keep the
    figures comparable across workload seeds.
    """
    sizes = dict(sizes)
    seeds = np.random.SeedSequence(seed).generate_state(sizes.pop("trajectories"))
    return {"params": [dict(sizes, seed=int(s)) for s in seeds]}


def _onth_rounds(state) -> int:
    return sum(2 * p["horizon"] for p in state["params"])


def run_onth(state) -> Outcome:
    return Outcome([figure02(**p) for p in state["params"]], _onth_rounds(state))


def trace_onth(state, rec: Recorder) -> Outcome:
    apsp = ApspLedger()
    results = [replay_figure02(p, rec, apsp) for p in state["params"]]
    apsp.publish(rec)
    return Outcome(results, _onth_rounds(state))


def replay_figure02(p, rec: Recorder, apsp: ApspLedger) -> FigureResult:
    """``figure02`` step by step: one generator, one trace, two load models."""
    rng = np.random.default_rng(p["seed"])
    with rec.span("topology.build"):
        substrate = erdos_renyi(p["n"], seed=rng)
    with rec.span("topology.apsp"):
        apsp.add(substrate.distances)
    with rec.span("workload.trace"):
        scenario = CommuterScenario(
            substrate, period=p["period"], sojourn=p["sojourn"], dynamic_load=False
        )
        trace = generate_trace(scenario, p["horizon"], rng)
    series = {}
    for label, load in (("linear load", LinearLoad()), ("quadratic load", QuadraticLoad())):
        costs = CostModel.paper_default(load=load)
        with rec.span("core.loop.onth"):
            run = simulate(substrate, OnTH(), trace, costs, seed=p["seed"])
        count_ledger(rec, run)
        series[f"servers ({label})"] = tuple(
            int(v) for v in run.n_active[::p["sample_every"]]
        )
    rounds = tuple(range(0, p["horizon"], p["sample_every"]))
    series["requests/round"] = tuple(int(trace[t].size) for t in rounds)
    return FigureResult(
        figure="fig02", title="", x_label="round", x_values=rounds, series=series
    )


# ---------------------------------------------------------------------------
# opt-ratio: OFFSTAT under both cost regimes against OPT, no cache
# ---------------------------------------------------------------------------


def prepare_opt_ratio(seed, sizes, workdir):
    return {"spec": opt_ratio_spec(seed, **sizes)}


def _ratio_outcome(spec: SweepSpec, result: FigureResult) -> Outcome:
    ratios = [v for values in result.series.values() for v in values]
    return Outcome(
        [result],
        sweep_policy_rounds(spec, len(spec.values) * spec.runs),
        [("every OPT ratio >= 1 - 1e-9", bool(ratios) and min(ratios) >= 1 - 1e-9)],
    )


def run_opt_ratio(state) -> Outcome:
    return _ratio_outcome(state["spec"], run_sweep(state["spec"]))


def trace_opt_ratio(state, rec: Recorder) -> Outcome:
    apsp = ApspLedger()
    with timed_opt_solve(rec):
        result = replay_sweep(state["spec"], rec, apsp)
    apsp.publish(rec)
    return _ratio_outcome(state["spec"], result)


# ---------------------------------------------------------------------------
# queue-adaptive: enqueue, drain with worker processes, re-assemble warm
# ---------------------------------------------------------------------------


def prepare_queue(seed, sizes, workdir):
    workdir = Path(workdir)
    return {
        "spec": queue_spec(seed, **sizes),
        "queue": workdir / "queue.sqlite",
        "cache_dir": workdir / "cache",
        "broker": Broker(workdir / "queue.sqlite"),
        "cache": ResultCache(workdir / "cache"),
        "workdir": workdir,
    }


class WorkerSet:
    """Worker processes reaped with ``wait4``, which also yields their peak RSS.

    ``Popen.poll`` would reap a finished worker and lose its resource usage,
    so liveness is checked with a non-blocking ``wait4`` instead.
    """

    def __init__(self, argvs) -> None:
        self.procs = [subprocess.Popen(argv, stdin=subprocess.DEVNULL) for argv in argvs]
        self.rss_kb = 0

    def _reap(self, proc, flags: int) -> bool:
        pid, status, usage = os.wait4(proc.pid, flags)
        if not pid:
            return False
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb += usage.ru_maxrss
        return True

    def any_exited(self) -> bool:
        return any(
            proc.returncode is not None or self._reap(proc, os.WNOHANG)
            for proc in self.procs
        )

    def stop(self, grace: float) -> int:
        """Wait up to ``grace`` seconds, then SIGTERM; returns summed peak RSS."""
        deadline = time.monotonic() + grace
        for proc in self.procs:
            while proc.returncode is None and not self._reap(proc, os.WNOHANG):
                if time.monotonic() >= deadline:
                    proc.send_signal(signal.SIGTERM)
                    self._reap(proc, 0)
                    break
                time.sleep(0.005)
        return self.rss_kb


def _wait_for_job(broker: Broker, job: str, workers: WorkerSet) -> dict:
    deadline = time.monotonic() + QUEUE_DEADLINE
    while True:
        exited = workers.any_exited()
        state = broker.job_state(job)
        if state["status"] in ("done", "failed"):
            return state
        if exited:
            raise RuntimeError("a queue worker exited before the job was done")
        if time.monotonic() > deadline:
            raise TimeoutError(f"queue job not done after {QUEUE_DEADLINE} s")
        time.sleep(QUEUE_POLL)


def _queue_outcome(state, job_state, result, rss_kb) -> Outcome:
    spec = state["spec"]
    tasks = job_state["tasks"]
    checks = [("queue job done", job_state["status"] == "done")]
    if result is not None and result.counts:
        replicates = sum(result.counts)
    else:
        replicates = len(spec.values) * spec.runs
    return Outcome(
        [result] if result is not None else [],
        sweep_policy_rounds(spec, replicates),
        checks,
        tasks_attempted=sum(tasks.values()),
        tasks_failed=tasks.get("failed", 0),
        worker_rss_kb=rss_kb,
    )


def _warm_assemble(state, checks) -> "tuple[FigureResult, ResultCache]":
    warm = ResultCache(state["cache_dir"])
    result = run_sweep(state["spec"], cache=warm)
    checks.append(("warm re-assembly simulates nothing",
                   warm.point_misses == 0 and warm.misses == 0))
    return result, warm


def run_queue(state) -> Outcome:
    spec = state["spec"]
    job = enqueue_sweep(state["broker"], state["cache"], spec)["job"]
    workers = WorkerSet(
        [sys.executable, "-m", "repro.experiments", "worker",
         "--queue", str(state["queue"]), "--cache-dir", str(state["cache_dir"]),
         "--poll", str(QUEUE_POLL), "--quiet"]
        for _ in range(QUEUE_WORKERS)
    )
    try:
        job_state = _wait_for_job(state["broker"], job, workers)
    finally:
        # the workers poll an empty queue now; a user would leave them be
        rss = workers.stop(grace=0.0)
    checks: list = []
    result = None
    if job_state["status"] == "done":
        result, _warm = _warm_assemble(state, checks)
    outcome = _queue_outcome(state, job_state, result, rss)
    outcome.checks.extend(checks)
    return outcome


def trace_queue(state, rec: Recorder) -> Outcome:
    spec = state["spec"]
    with rec.span("queue.enqueue"):
        job = enqueue_sweep(state["broker"], state["cache"], spec)["job"]
    spawned = time.monotonic_ns()
    outs = [state["workdir"] / f"worker-{i}.json" for i in range(QUEUE_WORKERS)]
    workers = WorkerSet(
        [sys.executable, str(HERE / "queue_worker.py"),
         "--queue", str(state["queue"]), "--cache-dir", str(state["cache_dir"]),
         "--job", job, "--spawned-at", str(spawned), "--poll", str(QUEUE_POLL),
         "--out", str(out)]
        for out in outs
    )
    job_state = None
    try:
        job_state = _wait_for_job(state["broker"], job, workers)
    finally:
        # traced workers exit by themselves once they see the job finished
        rss = workers.stop(grace=30.0 if job_state is not None else 0.0)
    merge_worker_records(rec, outs)
    checks: list = []
    result = None
    if job_state["status"] == "done":
        with rec.span("api.cache.warm"):
            result, warm = _warm_assemble(state, checks)
        publish_cache(rec, state["cache"], warm)
    outcome = _queue_outcome(state, job_state, result, rss)
    outcome.checks.extend(checks)
    return outcome


def merge_worker_records(rec: Recorder, paths) -> None:
    """Fold the workers' spans and counters into the coordinator's record.

    Worker self times become counters summed over the workers;
    :func:`recorder.layer_table` averages them per worker.
    """
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for name, seconds in self_seconds(data["spans"]).items():
            rec.count(WORKER_SECONDS + name, seconds)
        for name, value in data["counters"].items():
            rec.count(name, value)
    rec.count("queue.workers", len(paths))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


WORKLOADS = {
    "size-sweep": (prepare_size_sweep, run_size_sweep, trace_size_sweep),
    "onth-trajectory": (prepare_onth, run_onth, trace_onth),
    "opt-ratio": (prepare_opt_ratio, run_opt_ratio, trace_opt_ratio),
    "queue-adaptive": (prepare_queue, run_queue, trace_queue),
}


def serial_check(name: str, state, outcome: Outcome) -> "list[tuple[str, bool]]":
    """Checks that need an extra in-process run: queue result == serial."""
    if name != "queue-adaptive" or not outcome.results:
        return []
    serial = run_sweep(state["spec"])
    return [("queue result equals serial run_sweep",
             digest([serial]) == digest(outcome.results))]


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
