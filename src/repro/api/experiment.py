"""Executing declarative specs: ``run_experiment`` and ``run_sweep``.

These are the two entry points the spec layer adds on top of
:func:`repro.core.simulator.simulate` and
:func:`repro.experiments.runner.sweep_experiment`:

* :func:`run_experiment` materialises one :class:`ExperimentSpec` — build
  the substrate, generate the trace(s), run every policy — and returns the
  full per-policy :class:`~repro.core.results.RunResult` ledgers plus the
  spec's evaluated metric series.
* :func:`run_sweep` turns a :class:`SweepSpec` into a
  :class:`~repro.experiments.runner.FigureResult` via the sweep engine; pass
  an :class:`~repro.api.execution.ExecutionBackend` to parallelise the
  replicates (results are bit-identical across backends) and a
  :class:`~repro.api.cache.ResultCache` to memoize results on disk — whole
  sweeps *and* individual sweep points, so an interrupted or partially
  invalidated sweep resumes instead of restarting, and ``shard=(i, n)``
  lets N independent processes fill disjoint points of one shared cache.

Randomness follows the figure-module convention: one generator drives
topology construction, trace generation and every policy's simulation in
declaration order, so a spec plus a seed pins the exact run. With
per-policy scenario overrides, all distinct traces are generated (in
first-use order) *before* any policy simulates — the order the paper's
multi-scenario comparisons always used — and metrics evaluate strictly
after the last simulation without consuming any randomness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.stats import t_critical
from repro.api.execution import ExecutionBackend, ReplicateTask, SerialBackend
from repro.api.metrics import MetricContext, PolicyRun, evaluate_metrics
from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    ReplicationSpec,
    SweepSpec,
)
from repro.core.evaluation import DistanceGather
from repro.core.results import RunResult
from repro.core.simulator import simulate
from repro.workload.base import Trace, generate_trace

# NOTE: repro.experiments.runner is imported lazily inside the functions that
# need it. The figure modules import this module at load time, so a top-level
# import here would cycle through the repro.experiments package __init__.

__all__ = [
    "ExperimentResult",
    "SpecReplicate",
    "capture_sweeps",
    "collect_point_samples",
    "refine_sweep",
    "resolve_series_labels",
    "run_experiment",
    "run_replicate",
    "run_sweep",
]


@dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one :func:`run_experiment` call.

    Attributes:
        spec: the executed spec (self-describing provenance).
        results: mapping policy label → full :class:`RunResult` ledger, in
            the spec's policy order.
        series: the spec's metrics evaluated over those ledgers (with the
            default ``total_cost`` metric: label → grand total).
    """

    spec: ExperimentSpec
    results: "Mapping[str, RunResult]"
    series: "Mapping[str, float]" = field(default_factory=dict)

    @property
    def total_costs(self) -> "dict[str, float]":
        """Grand total cost per policy label."""
        return {label: run.total_cost for label, run in self.results.items()}

    def to_figure_result(self) -> "FigureResult":
        """Render the metric series as a single-point :class:`FigureResult`."""
        from repro.experiments.runner import FigureResult

        series = self.series or self.total_costs
        return FigureResult(
            figure=self.spec.name or "experiment",
            title=f"{self.spec.scenario.kind} on {self.spec.topology.kind}",
            x_label="metric",
            x_values=("total cost",),
            series={name: (value,) for name, value in series.items()},
        )


def _simulate_spec(
    spec: ExperimentSpec, rng: np.random.Generator
) -> MetricContext:
    """Run every policy of ``spec`` and collect the full replicate context.

    The randomness contract (and thus bit-compatibility with the historical
    closure implementations): the substrate builds first, then one trace per
    *distinct* effective scenario in first-use order, then the policies
    simulate in declaration order — all from the single ``rng`` stream.
    Policies sharing an effective scenario share its trace.
    """
    substrate = spec.topology.build(rng)
    scenario_specs: list = []
    traces: list = []
    trace_of: list[int] = []
    for policy_spec in spec.policies:
        effective = policy_spec.scenario or spec.scenario
        for index, seen in enumerate(scenario_specs):
            if seen == effective:
                trace_of.append(index)
                break
        else:
            scenario_specs.append(effective)
            traces.append(
                generate_trace(effective.build(substrate), spec.horizon, rng)
            )
            trace_of.append(len(traces) - 1)

    runs: list[PolicyRun] = []
    taken: dict[str, bool] = {}
    # One CostModel per distinct cost spec and one DistanceGather per
    # (materialised trace, cost model): policies sharing both (the common
    # case — e.g. the online trio of the size sweeps) then share the
    # gathered distance columns and the candidate-family memo. CostModel is
    # immutable, so sharing one instance cannot change any result.
    # Streaming traces are read in chunks by simulate itself.
    cost_models: list = []
    gathers: dict[tuple[int, int], DistanceGather] = {}
    for policy_spec, trace_index in zip(spec.policies, trace_of):
        policy = policy_spec.build()
        cost_spec = policy_spec.costs or spec.costs
        for seen, model in cost_models:
            if seen is cost_spec:
                costs = model
                break
        else:
            costs = cost_spec.to_cost_model()
            cost_models.append((cost_spec, costs))
        trace = traces[trace_index]
        gather = gathers.get((trace_index, id(costs)))
        if gather is None and isinstance(trace, Trace):
            gather = DistanceGather(substrate, costs, trace)
            gathers[trace_index, id(costs)] = gather
        run = simulate(
            substrate,
            policy,
            trace,
            costs,
            routing=spec.routing_strategy,
            seed=rng,
            gather=gather,
        )
        label = _series_label(policy_spec, policy, taken)
        taken[label] = True
        runs.append(
            PolicyRun(
                label=label,
                spec=policy_spec,
                run=run,
                trace=traces[trace_index],
                trace_index=trace_index,
                costs=costs,
                cost_spec=cost_spec,
                scenario=scenario_specs[trace_index],
            )
        )
    return MetricContext(spec=spec, substrate=substrate, runs=runs)


def run_replicate(
    spec: ExperimentSpec, rng: np.random.Generator
) -> "dict[str, float]":
    """One independent replicate of ``spec``: its metric series.

    This is the sweep-engine shape (``(x, rng) -> {series: value}`` minus
    the ``x``); :func:`run_sweep` fans it out per sweep point. With the
    default ``total_cost`` metric the output is the per-policy totals, as
    it always was.
    """
    context = _simulate_spec(spec, rng)
    return evaluate_metrics(context, spec.metrics)


def resolve_series_labels(spec: ExperimentSpec) -> "tuple[str, ...]":
    """Build each policy and return its series label, raising on collisions.

    Useful as a cheap pre-flight before a long sweep: it surfaces label
    collisions (and bad policy parameters) without simulating anything.
    Metric-derived series names depend on the simulated results and are
    validated at evaluation time instead.
    """
    taken: dict[str, bool] = {}
    for policy_spec in spec.policies:
        taken[_series_label(policy_spec, policy_spec.build(), taken)] = True
    return tuple(taken)


def _series_label(policy_spec, policy, taken) -> str:
    """The result key for one policy, guarding against silent collisions.

    Spec validation can only compare labels/kinds; two different kinds may
    still build policies reporting the same ``name`` (e.g. ``onbr`` and
    ``onbr-fixed``), which would overwrite each other's series.
    """
    label = policy_spec.label or policy.name
    if label in taken:
        raise ValueError(
            f"policies {sorted(p for p in taken)} + {policy_spec.kind!r} "
            f"collide on series label {label!r}; set PolicySpec.label to "
            "disambiguate"
        )
    return label


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute ``spec`` once (seeded by ``spec.seed``) keeping full ledgers."""
    rng = np.random.default_rng(spec.seed)
    context = _simulate_spec(spec, rng)
    return ExperimentResult(
        spec=spec,
        results={run.label: run.run for run in context.runs},
        series=evaluate_metrics(context, spec.metrics),
    )


class SpecReplicate:
    """The picklable replicate callable behind :func:`run_sweep`.

    Holds only the :class:`SweepSpec` (plain data), so a process-pool backend
    can ship it to workers on any start method; names re-resolve through the
    registries inside the worker.
    """

    def __init__(self, sweep: SweepSpec) -> None:
        self.sweep = sweep

    def __call__(self, x, rng: np.random.Generator) -> "dict[str, float]":
        return run_replicate(self.sweep.experiment_at(x), rng)

    def __repr__(self) -> str:
        return f"SpecReplicate({self.sweep.figure!r})"


def _normalize_shard(shard) -> "tuple[int, int] | None":
    """Validate a ``(index, count)`` shard selector; ``(0, 1)`` is a no-op."""
    if shard is None:
        return None
    try:
        index, count = (int(v) for v in shard)
    except (TypeError, ValueError):
        raise ValueError(
            f"shard must be an (index, count) pair, got {shard!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= index < count, got {shard!r}"
        )
    if count == 1:
        return None
    return (index, count)


def _display_x(spec: SweepSpec, result: "FigureResult") -> "FigureResult":
    """Map a coupled sweep's tuple x values to the primary component."""
    if not isinstance(spec.parameter, tuple):
        return result
    return replace(
        result, x_values=tuple(spec.display_x(x) for x in result.x_values)
    )


#: Active :func:`capture_sweeps` recorders (innermost last). Every completed
#: :func:`run_sweep` appends its ``(spec, result)`` to each active recorder.
_SWEEP_OBSERVERS: "list[list]" = []


@contextmanager
def capture_sweeps():
    """Record every ``(spec, result)`` :func:`run_sweep` completes.

    Figure functions build their :class:`SweepSpec` internally and return
    only the :class:`FigureResult`; tooling that needs the *spec* that
    actually ran — the ``report`` subcommand bundling reproducible spec
    JSONs, provenance captured next to a result — wraps the call::

        with capture_sweeps() as captured:
            fig03()
        (spec, result), = captured

    The captured spec is the effective one (``replication``/``comparison``
    overrides applied), so its cache key matches the entry the run wrote.
    Recording is additive and observer-transparent: results are returned
    unchanged, nested captures each see the sweeps run inside their block.
    """
    captured: "list[tuple[SweepSpec, FigureResult]]" = []
    _SWEEP_OBSERVERS.append(captured)
    try:
        yield captured
    finally:
        _SWEEP_OBSERVERS.remove(captured)


def _record_sweep(spec: SweepSpec, result: "FigureResult") -> None:
    for captured in _SWEEP_OBSERVERS:
        captured.append((spec, result))


def run_sweep(
    spec: SweepSpec,
    backend: "ExecutionBackend | None" = None,
    cache: "ResultCache | None" = None,
    shard: "tuple[int, int] | None" = None,
    resume: bool = True,
    replication: "ReplicationSpec | None" = None,
    comparison: "ComparisonSpec | None" = None,
) -> "FigureResult":
    """Run the sweep described by ``spec`` and aggregate a figure result.

    Args:
        spec: the declarative sweep.
        backend: where replicates execute; ``None`` = serial. Serial and
            parallel backends return identical results for the same spec.
        cache: optional :class:`~repro.api.cache.ResultCache`; a hit returns
            the stored result without simulating anything, a miss stores
            the freshly computed one. Safe because the spec is the complete
            input of the computation and results are backend-independent.
        shard: optional ``(index, count)`` with ``0 <= index < count``:
            compute only the sweep points whose index modulo ``count``
            equals ``index``, storing them into ``cache`` (required). N
            processes running the N shards of one spec into one shared
            cache directory fan a sweep out without coordinating; whichever
            process finds the cache complete assembles (and stores) the
            full figure. A shard that finishes while other shards' points
            are still missing returns a *partial* result restricted to the
            available points.
        resume: probe and fill per-point cache entries (the default). A
            sweep interrupted mid-run, or invalidated for a subset of
            points, re-simulates only the missing points on the next call.
            ``False`` restores all-or-nothing caching at the sweep level.
        replication: convenience override for
            :attr:`~repro.api.specs.SweepSpec.replication` — the spec is
            replaced with this :class:`ReplicationSpec` (or spec dict)
            before anything runs, so figure functions can thread a CLI
            replication request through without rebuilding their specs.
        comparison: the same convenience override for
            :attr:`~repro.api.specs.SweepSpec.comparison` — attach paired
            contrast-vs-baseline payloads (a :class:`ComparisonSpec` or
            spec dict) without rebuilding the spec.

    With a replication spec requesting confidence intervals
    (``ci_level > 0``), the result carries per-point CI bounds and
    replicate counts; a ``target_halfwidth`` additionally turns the sweep
    adaptive — points top up replicates (cache-first, through the same
    backend/shard machinery) until their CIs meet the target or hit
    ``max_runs``. Without a replication spec the behaviour — and the
    result, bit for bit — is the historical fixed-``runs`` sweep.

    With a comparison spec the result additionally carries paired
    contrast-vs-baseline payloads computed from the very same replicate
    samples — marginal series, seeds and point cache entries are untouched
    — and an *adaptive* sweep stops topping a point up once every paired
    interval at the point meets the target (the comparison's own
    ``target_halfwidth`` when set, else the replication one), instead of
    every marginal interval. Policies sharing each replicate's trace make
    the paired intervals tighten much faster than the marginal ones, so
    paired adaptive sweeps settle the same orderings with fewer simulated
    replicates.

    Serial, process-pool and sharded execution are bit-identical: every
    task's child seed depends only on its position (see
    :func:`~repro.experiments.runner.spawn_tasks` and
    :func:`~repro.experiments.runner.spawn_point_extension_tasks`), and
    aggregation is pure arithmetic over the per-replicate samples wherever
    they came from.
    """
    if replication is not None:
        if not isinstance(replication, ReplicationSpec):
            replication = ReplicationSpec.from_dict(replication)
        spec = replace(spec, replication=replication)
    if comparison is not None:
        if not isinstance(comparison, ComparisonSpec):
            comparison = ComparisonSpec.from_dict(comparison)
        spec = replace(spec, comparison=comparison)

    result = _execute_sweep(spec, backend, cache, shard, resume)
    _record_sweep(spec, result)
    return result


def _execute_sweep(
    spec: SweepSpec,
    backend: "ExecutionBackend | None",
    cache: "ResultCache | None",
    shard: "tuple[int, int] | None",
    resume: bool,
) -> "FigureResult":
    """:func:`run_sweep` after spec normalization (observer-transparent)."""
    from repro.experiments.runner import (
        SeriesValidator,
        aggregate_samples,
        spawn_tasks,
        sweep_experiment,
    )

    shard = _normalize_shard(shard)
    if shard is not None and cache is None:
        raise ValueError(
            "sharded execution needs a shared cache: pass cache=ResultCache(...)"
        )
    if shard is not None and not resume:
        raise ValueError(
            "sharded execution requires resume=True: shards coordinate "
            "exclusively through per-point cache entries"
        )

    if cache is not None:
        cached = cache.load(spec)
        if cached is not None:
            return cached

    if spec.replication is not None and spec.replication.ci_level > 0:
        # Confidence-aware path: per-point CI annotations and (with a
        # target) adaptive replication. A replication spec with
        # ci_level=0 is a pure runs override and stays on the plain
        # paths below, whose output is bit-identical to a fixed-runs
        # sweep.
        return _run_confidence_sweep(spec, backend, cache, shard, resume)

    runs = spec.effective_runs
    if cache is None or not resume:
        # All-or-nothing path: no per-point entries to probe or fill.
        result = _display_x(
            spec,
            sweep_experiment(
                figure=spec.figure,
                title=spec.resolved_title(),
                x_label=spec.resolved_x_label(),
                x_values=spec.values,
                replicate=SpecReplicate(spec),
                runs=runs,
                seed=spec.seed,
                notes=spec.notes,
                backend=backend,
                comparison=spec.comparison,
            ),
        )
        if cache is not None:
            cache.store(spec, result)
        return result

    # Resumable path: assemble the figure from cached points plus freshly
    # computed ones, storing each fresh point as soon as its replicates are
    # in — an interruption loses at most the points still in flight.
    x_values = list(spec.values)
    tasks = spawn_tasks(x_values, runs, spec.seed)
    point_specs = [spec.experiment_at(x) for x in x_values]

    samples: "list[Mapping[str, float] | None]" = [None] * len(tasks)
    missing: "list[int]" = []
    for i in range(len(x_values)):
        cached_point = cache.load_point(point_specs[i], spec.seed, i * runs, runs)
        if cached_point is not None:
            samples[i * runs : (i + 1) * runs] = cached_point
        else:
            missing.append(i)

    mine = [
        i for i in missing if shard is None or i % shard[1] == shard[0]
    ]
    if mine:
        if backend is None:
            backend = SerialBackend()
        validator = SeriesValidator(runs)
        pending = [tasks[i * runs + j] for i in mine for j in range(runs)]

        def commit(k: int, block) -> None:
            """Publish the k-th missing point: scatter + store immediately."""
            i = mine[k]
            samples[i * runs : (i + 1) * runs] = block
            cache.store_point(point_specs[i], spec.seed, i * runs, runs, block)

        # Commit each point from the result hook the moment its last
        # replicate lands (results arrive in task order), so a crash or
        # kill mid-batch loses at most the points still in flight — the
        # next run resumes from everything committed before the interrupt.
        hook_samples: "list[Mapping[str, float]]" = []

        def on_result(index, task, sample) -> None:
            validator(index, task, sample)
            hook_samples.append(sample)
            if len(hook_samples) % runs == 0:
                k = len(hook_samples) // runs - 1
                commit(k, hook_samples[k * runs :])

        fresh = backend.run_replicates(
            SpecReplicate(spec), pending, on_result=on_result
        )
        # Backstop for backends that ignored (or only partially drove) the
        # hook: validate and commit whatever the hook did not see.
        for index in range(len(hook_samples), len(pending)):
            validator(index, pending[index], fresh[index])
        for k in range(len(hook_samples) // runs, len(mine)):
            commit(k, fresh[k * runs : (k + 1) * runs])

    # Cached and fresh samples must agree on the series key set — a cached
    # point from an older metric line-up mixed with fresh ones would
    # otherwise aggregate into misaligned series.
    check = SeriesValidator(runs)
    for index, (task, sample) in enumerate(zip(tasks, samples)):
        if sample is not None:
            check(index, task, sample)

    complete = [
        i
        for i in range(len(x_values))
        if all(samples[i * runs + j] is not None for j in range(runs))
    ]
    if len(complete) < len(x_values):
        # Only reachable in shard mode: other shards' points are not in the
        # cache yet. Return what exists — callers fan shards out in parallel
        # and let any later full run assemble the complete figure.
        partial = aggregate_samples(
            figure=spec.figure,
            title=spec.resolved_title(),
            x_label=spec.resolved_x_label(),
            x_values=[x_values[i] for i in complete],
            samples=[
                samples[i * runs + j] for i in complete for j in range(runs)
            ],
            runs=runs,
            notes=(
                f"partial: {len(complete)}/{len(x_values)} points "
                f"(shard {shard[0] + 1}/{shard[1]}); rerun unsharded to "
                "assemble"
            ),
            comparison=spec.comparison,
        )
        return _display_x(spec, partial)

    result = _display_x(
        spec,
        aggregate_samples(
            figure=spec.figure,
            title=spec.resolved_title(),
            x_label=spec.resolved_x_label(),
            x_values=x_values,
            samples=samples,
            runs=runs,
            notes=spec.notes,
            comparison=spec.comparison,
        ),
    )
    cache.store(spec, result)
    return result


def collect_point_samples(
    spec: SweepSpec,
    backend: "ExecutionBackend | None" = None,
    cache: "ResultCache | None" = None,
    resume: bool = True,
) -> "list[list[Mapping[str, float]]]":
    """The raw initial replicate block behind every sweep point.

    Returns, per sweep point, the point's first ``spec.effective_runs``
    replicate samples (``{series: value}`` dicts) — the same blocks
    :func:`run_sweep` simulates in its first phase, with the same flat
    seeds and the same per-point cache entries, so a call over the cache
    of a completed sweep loads everything and simulates nothing. Missing
    blocks are simulated (and stored, when ``cache`` and ``resume`` allow)
    so the result is always complete.

    This is the sample-level feed of
    :func:`repro.analysis.stats.comparison_matrix`: every-vs-every paired
    comparisons need the aligned per-replicate values, which an aggregated
    :class:`FigureResult` no longer carries.
    """
    from repro.experiments.runner import SeriesValidator, spawn_tasks

    runs = spec.effective_runs
    x_values = list(spec.values)
    point_specs = [spec.experiment_at(x) for x in x_values]
    use_points = cache is not None and resume

    samples: "list[list[Mapping[str, float]] | None]" = [None] * len(x_values)
    pending: "list[int]" = []
    for i in range(len(x_values)):
        block = (
            cache.load_point(point_specs[i], spec.seed, i * runs, runs)
            if use_points
            else None
        )
        if block is not None:
            samples[i] = list(block)
        else:
            pending.append(i)

    if pending:
        if backend is None:
            backend = SerialBackend()
        tasks = spawn_tasks(x_values, runs, spec.seed)

        def point_commit(i: int):
            def commit(block) -> None:
                samples[i] = list(block)
                if use_points:
                    cache.store_point(
                        point_specs[i], spec.seed, i * runs, runs, block
                    )

            return commit

        _run_batched(
            backend,
            SpecReplicate(spec),
            [
                (tasks[i * runs : (i + 1) * runs], point_commit(i))
                for i in pending
            ],
            SeriesValidator(runs),
        )
    return samples


def _run_batched(backend, replicate, spans, validator) -> None:
    """Run several task blocks as one backend batch, committing per block.

    ``spans`` is a list of ``(tasks, commit)`` pairs; ``commit(block)`` is
    invoked with a block's samples the moment its last replicate lands
    (results arrive in task order), so a crash mid-batch loses at most the
    blocks still in flight. Backends that ignore (or only partially drive)
    the result hook are backstopped from the returned list.
    """
    tasks = [task for block_tasks, _commit in spans for task in block_tasks]
    bounds = [0]
    for block_tasks, _commit in spans:
        bounds.append(bounds[-1] + len(block_tasks))

    seen: "list[Mapping[str, float]]" = []
    committed = 0

    def on_result(index, task, sample) -> None:
        nonlocal committed
        validator(index, task, sample)
        seen.append(sample)
        while committed < len(spans) and len(seen) >= bounds[committed + 1]:
            spans[committed][1](seen[bounds[committed] : bounds[committed + 1]])
            committed += 1

    results = backend.run_replicates(replicate, tasks, on_result=on_result)
    for index in range(len(seen), len(tasks)):
        validator(index, tasks[index], results[index])
    for k in range(committed, len(spans)):
        spans[k][1](results[bounds[k] : bounds[k + 1]])


def _run_confidence_sweep(
    spec: SweepSpec,
    backend: "ExecutionBackend | None",
    cache: "ResultCache | None",
    shard: "tuple[int, int] | None",
    resume: bool,
) -> "FigureResult":
    """The confidence-aware sweep engine behind :func:`run_sweep`.

    Phase 1 materialises every point's *initial* replicate block exactly
    like the plain resumable path — same flat task seeds, same point cache
    entries, so blocks cached by replication-unaware sweeps (or written
    before replication existed) are reused as-is. Phase 2, only under an
    adaptive replication spec, tops needy points up batch by batch:
    cache-first (point-extension entries), then the marginal seeds through
    the backend. The schedule at a point depends only on that point's
    samples, so shards never coordinate and serial, pooled and sharded
    execution stay bit-identical.
    """
    from repro.experiments.runner import (
        SeriesValidator,
        aggregate_point_summaries,
        point_meets_target,
        spawn_point_extension_tasks,
        spawn_tasks,
    )

    rep = spec.replication
    runs = spec.effective_runs
    if rep.adaptive and rep.max_runs < runs:
        raise ValueError(
            f"ReplicationSpec.max_runs ({rep.max_runs}) is below the "
            f"initial replicate count ({runs})"
        )
    if backend is None:
        backend = SerialBackend()
    x_values = list(spec.values)
    n_points = len(x_values)
    point_specs = [spec.experiment_at(x) for x in x_values]
    replicate = SpecReplicate(spec)
    validator = SeriesValidator(runs)
    use_points = cache is not None and resume

    def is_mine(i: int) -> bool:
        return shard is None or i % shard[1] == shard[0]

    # -- phase 1: initial blocks (flat seeds, plain point entries) ----------
    samples: "list[list[Mapping[str, float]] | None]" = [None] * n_points
    pending_initial: "list[int]" = []
    for i in range(n_points):
        block = (
            cache.load_point(point_specs[i], spec.seed, i * runs, runs)
            if use_points
            else None
        )
        if block is not None:
            samples[i] = list(block)
        elif is_mine(i):
            pending_initial.append(i)

    if pending_initial:
        tasks = spawn_tasks(x_values, runs, spec.seed)

        def initial_commit(i: int):
            def commit(block) -> None:
                samples[i] = list(block)
                if use_points:
                    cache.store_point(
                        point_specs[i], spec.seed, i * runs, runs, block
                    )

            return commit

        _run_batched(
            backend,
            replicate,
            [
                (tasks[i * runs : (i + 1) * runs], initial_commit(i))
                for i in pending_initial
            ],
            validator,
        )

    # -- phase 2: adaptive top-ups ------------------------------------------
    incomplete = {i for i in range(n_points) if samples[i] is None}
    if rep.adaptive:
        batch = rep.batch_size(spec.runs)
        # A point leaves `open_points` once it is terminal — target met,
        # max_runs reached, or owned by an unfinished other shard. Its
        # samples can never change after that, so re-running the CI check
        # (a full bootstrap per series under method="bootstrap") every
        # round for settled points would be pure waste.
        open_points = [i for i in range(n_points) if i not in incomplete]
        while open_points:
            spans = []
            progressed = False
            still_open = []
            for i in open_points:
                have = len(samples[i])
                if have >= rep.max_runs or point_meets_target(
                    samples[i], rep, spec.comparison
                ):
                    continue
                size = min(batch, rep.max_runs - have)
                block = (
                    cache.load_point_extension(
                        point_specs[i], spec.seed, i, have, size
                    )
                    if use_points
                    else None
                )
                if block is not None:
                    samples[i].extend(block)
                    progressed = True
                    still_open.append(i)
                elif is_mine(i):

                    def extension_commit(i=i, have=have, size=size):
                        def commit(block) -> None:
                            if use_points:
                                cache.store_point_extension(
                                    point_specs[i], spec.seed, i, have, size,
                                    block,
                                )
                            samples[i].extend(block)

                        return commit

                    spans.append(
                        (
                            spawn_point_extension_tasks(
                                x_values[i], i, have, size, spec.seed
                            ),
                            extension_commit(),
                        )
                    )
                    still_open.append(i)
                else:
                    # Another shard owns this point and has not finished
                    # its top-ups yet; leave it to them.
                    incomplete.add(i)
            open_points = still_open
            if spans:
                _run_batched(backend, replicate, spans, validator)
                progressed = True
            if not progressed:
                break

    # Cached and fresh samples must agree on the series key set — a cached
    # block from an older metric line-up mixed with fresh ones would
    # otherwise aggregate into misaligned series.
    check = SeriesValidator(runs)
    index = 0
    for i in range(n_points):
        for sample in samples[i] or ():
            check(index, ReplicateTask(x=x_values[i], seed=None), sample)
            index += 1

    complete = [i for i in range(n_points) if i not in incomplete]
    if len(complete) < n_points:
        # Only reachable in shard mode: other shards' points are missing
        # or mid-top-up. Return what is finished — callers fan shards out
        # in parallel and let any later full run assemble the figure.
        partial = aggregate_point_summaries(
            figure=spec.figure,
            title=spec.resolved_title(),
            x_label=spec.resolved_x_label(),
            x_values=[x_values[i] for i in complete],
            point_samples=[samples[i] for i in complete],
            ci_level=rep.ci_level,
            method=rep.method,
            notes=(
                f"partial: {len(complete)}/{n_points} points "
                f"(shard {shard[0] + 1}/{shard[1]}); rerun unsharded to "
                "assemble"
            ),
            comparison=spec.comparison,
        )
        return _display_x(spec, partial)

    result = _display_x(
        spec,
        aggregate_point_summaries(
            figure=spec.figure,
            title=spec.resolved_title(),
            x_label=spec.resolved_x_label(),
            x_values=x_values,
            point_samples=samples,
            ci_level=rep.ci_level,
            method=rep.method,
            notes=spec.notes,
            comparison=spec.comparison,
        ),
    )
    if cache is not None:
        cache.store(spec, result)
    return result


# ---------------------------------------------------------------------------
# Grid refinement: bisect where confidence intervals leave orderings open
# ---------------------------------------------------------------------------


def _series_halfwidths(
    result: "FigureResult", spec: SweepSpec, level: float
) -> "dict[str, tuple]":
    """Per-series, per-point CI halfwidths of ``result``.

    Stored CI bounds are used when present — they already carry the CI
    method the spec's :class:`ReplicationSpec` declared (Student-t or BCa
    bootstrap), so no estimator is re-imposed here. Only a plain sweep
    with no CI annotations at all falls back to deriving halfwidths from
    the standard errors with a Student-t critical value at ``level``
    (every point of a plain sweep has ``spec.effective_runs`` replicates;
    stderr admits no bootstrap, so Student-t is the only estimator
    available to the fallback).
    """
    if result.has_confidence:
        return {
            name: tuple((high - low) / 2.0 for low, high in result.ci[name])
            for name in result.series_names
        }
    runs = spec.effective_runs
    if runs < 2:
        raise ValueError(
            "grid refinement needs interval estimates: run the sweep with "
            "runs >= 2 (or a ReplicationSpec) so per-point CIs exist"
        )
    critical = t_critical(level, runs - 1)
    zeros = (0.0,) * len(result.x_values)
    return {
        name: tuple(
            critical * e for e in result.errors.get(name, zeros)
        )
        for name in result.series_names
    }


def _ambiguous_intervals(
    result: "FigureResult", halfwidths: "Mapping[str, tuple]"
) -> "list[tuple]":
    """Adjacent x intervals whose policy ordering the CIs leave open.

    For every adjacent pair of sweep points (in x order) and every pair of
    series, the ordering is *settled* over the interval iff the two
    series' CIs are disjoint at both endpoints with the same sign of the
    difference. Any unsettled pair — overlapping CIs at either endpoint,
    or a sign flip (a crossing) between them — marks the interval for
    bisection. Intervals are returned in x order.
    """
    names = result.series_names
    xs = result.x_values
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    intervals = []
    for position in range(len(order) - 1):
        k0, k1 = order[position], order[position + 1]
        ambiguous = False
        for a_index in range(len(names)):
            for b_index in range(a_index + 1, len(names)):
                a, b = names[a_index], names[b_index]
                d0 = result.series[a][k0] - result.series[b][k0]
                d1 = result.series[a][k1] - result.series[b][k1]
                separated0 = abs(d0) > halfwidths[a][k0] + halfwidths[b][k0]
                separated1 = abs(d1) > halfwidths[a][k1] + halfwidths[b][k1]
                if not (separated0 and separated1 and (d0 > 0) == (d1 > 0)):
                    ambiguous = True
                    break
            if ambiguous:
                break
        if ambiguous:
            intervals.append((xs[k0], xs[k1]))
    return intervals


def _paired_ambiguous_intervals(result: "FigureResult") -> "list[tuple]":
    """Adjacent x intervals whose *paired* CIs leave an ordering open.

    The comparison-aware twin of :func:`_ambiguous_intervals`: for every
    adjacent pair of sweep points (in x order) and every attached paired
    comparison, the contrast-vs-baseline ordering is *settled* over the
    interval iff the paired CI excludes its null (0 for differences, 1
    for ratios) at both endpoints with the paired mean on the same side
    of the null. A paired CI straddling the null at either endpoint, or
    the paired mean crossing the null between the endpoints (the
    contrast's cost curve crosses the baseline's), marks the interval for
    bisection. The stored paired bounds were computed with the
    :class:`ComparisonSpec`'s own CI method and level — Student-t or BCa
    bootstrap — so that choice threads through unchanged.
    """
    xs = result.x_values
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    intervals = []
    for position in range(len(order) - 1):
        k0, k1 = order[position], order[position + 1]
        ambiguous = False
        for comparison in result.comparisons:
            null = comparison.null
            low0, high0 = comparison.ci[k0]
            low1, high1 = comparison.ci[k1]
            straddles = low0 <= null <= high0 or low1 <= null <= high1
            flips = (comparison.values[k0] > null) != (
                comparison.values[k1] > null
            )
            if straddles or flips:
                ambiguous = True
                break
        if ambiguous:
            intervals.append((xs[k0], xs[k1]))
    return intervals


def _midpoint(x0, x1, min_spacing: "float | None"):
    """The bisection point of ``[x0, x1]``, or ``None`` if too narrow.

    Integer endpoints bisect to an integer (sweep parameters like network
    size or λ are integral); a gap of < 2 cannot be bisected. Float
    endpoints bisect arithmetically. ``min_spacing`` skips intervals at or
    below that width.
    """
    if min_spacing is not None and abs(x1 - x0) <= min_spacing:
        return None
    if isinstance(x0, int) and isinstance(x1, int):
        if abs(x1 - x0) < 2:
            return None
        return (x0 + x1) // 2
    mid = (x0 + x1) / 2.0
    if mid == x0 or mid == x1:
        return None
    return mid


def _sorted_by_x(result: "FigureResult") -> "FigureResult":
    """``result`` with its points reordered by ascending x value."""
    order = sorted(range(len(result.x_values)), key=lambda i: result.x_values[i])
    if order == list(range(len(result.x_values))):
        return result

    def pick(values: tuple) -> tuple:
        return tuple(values[i] for i in order)

    return replace(
        result,
        x_values=pick(result.x_values),
        series={name: pick(v) for name, v in result.series.items()},
        errors={name: pick(v) for name, v in result.errors.items()},
        ci={name: pick(v) for name, v in result.ci.items()},
        counts=pick(result.counts) if result.counts else (),
        comparisons=tuple(
            replace(
                c,
                values=pick(c.values),
                stderr=pick(c.stderr),
                ci=pick(c.ci),
                counts=pick(c.counts),
            )
            for c in result.comparisons
        ),
    )


def _check_result_matches(spec: SweepSpec, result: "FigureResult") -> None:
    """Structurally verify that ``result`` is a complete result of ``spec``.

    Refinement decides where to spend simulation budget from ``result``'s
    intervals, so silently accepting a result computed from some *other*
    spec — a different grid, different policies, with or without paired
    comparisons — would bisect the wrong intervals while looking
    perfectly healthy. Every mismatch raises a :class:`ValueError` naming
    what disagrees.
    """
    grid = set(spec.values)
    foreign = [x for x in result.x_values if x not in grid]
    if foreign:
        raise ValueError(
            "refine_sweep got a result that does not belong to the spec: "
            f"result x values {sorted(foreign)} are not on the spec's "
            f"grid {sorted(grid)}"
        )
    if len(set(result.x_values)) < len(grid):
        raise ValueError(
            "refine_sweep needs a complete sweep result covering every "
            f"grid point ({len(set(result.x_values))}/{len(grid)} "
            "present); assemble a sharded sweep first by rerunning "
            "without shard"
        )
    if all(
        m.kind == "total_cost" and m.label is None
        for m in spec.experiment.metrics
    ):
        # With the default metric the series are exactly the policy
        # labels; metric-derived series names only exist after simulating.
        expected = set(resolve_series_labels(spec.experiment))
        if set(result.series_names) != expected:
            raise ValueError(
                "refine_sweep got a result whose series "
                f"{sorted(result.series_names)} do not match the spec's "
                f"policy labels {sorted(expected)}; the result belongs to "
                "a different experiment"
            )
    if spec.comparison is not None and not result.has_comparisons:
        raise ValueError(
            "refine_sweep got a result without paired-comparison payloads "
            "for a spec that declares a ComparisonSpec; recompute it with "
            "run_sweep(spec) so paired CIs exist to bisect on"
        )
    if spec.comparison is None and result.has_comparisons:
        raise ValueError(
            "refine_sweep got a result carrying paired comparisons for a "
            "spec without a ComparisonSpec; the result belongs to a "
            "different (comparison-bearing) spec"
        )
    if spec.comparison is not None:
        first = result.comparisons[0]
        if (
            first.baseline != spec.comparison.baseline
            or first.mode != spec.comparison.mode
        ):
            raise ValueError(
                "refine_sweep got a result whose paired comparisons "
                f"({first.contrast!r} vs {first.baseline!r}, mode "
                f"{first.mode!r}) do not match the spec's ComparisonSpec "
                f"(baseline {spec.comparison.baseline!r}, mode "
                f"{spec.comparison.mode!r})"
            )


def refine_sweep(
    spec: SweepSpec,
    result: "FigureResult | None" = None,
    backend: "ExecutionBackend | None" = None,
    cache: "ResultCache | None" = None,
    resume: bool = True,
    rounds: int = 1,
    max_new_points: int = 8,
    min_spacing: "float | None" = None,
    ci_level: float = 0.95,
) -> "tuple[SweepSpec, FigureResult]":
    """Refine a sweep's grid where CIs leave the policy ordering open.

    Paper figures ask *which policy wins where* — crossings and near-ties
    are exactly where a coarse grid misleads. ``refine_sweep`` finds every
    adjacent x interval whose endpoint confidence intervals fail to settle
    some ordering, bisects those intervals, and re-runs the sweep with the
    midpoints *appended* to the value grid. Appending keeps every existing
    point's index — hence its replicate seeds and cache entries — stable,
    so a refinement pass over a warm ``cache`` simulates **only the new
    points**; existing ones load from the per-point entries. The process
    repeats up to ``rounds`` times or until ``max_new_points`` total new
    points were added or every ordering is settled.

    Which intervals count as open depends on the spec. With a
    :class:`~repro.api.specs.ComparisonSpec` the decision uses the
    *paired* contrast-vs-baseline CIs (common random numbers — typically
    far tighter than the marginal ones): an interval is bisected iff some
    paired CI straddles its null (0 for differences, 1 for ratios) at an
    endpoint, or the paired mean crosses the null between the endpoints.
    Comparison-free sweeps fall back to the marginal criterion — series
    CIs overlapping at an endpoint, or their difference flipping sign.
    Either way the stored CI bounds carry the CI method the spec declared
    (Student-t or BCa bootstrap); nothing is re-estimated here.

    Args:
        spec: the sweep to refine; must sweep one scalar parameter over
            numeric values (coupled and single-point sweeps cannot be
            bisected).
        result: a previously computed result of exactly ``spec`` (e.g.
            from :func:`run_sweep`); computed fresh when ``None``. A
            result that does not structurally match the spec — x values
            off the grid, missing points, different series or comparison
            payloads — is rejected with a :class:`ValueError`.
        backend/cache/resume: forwarded to :func:`run_sweep`; pass the
            cache used for the original sweep to avoid recomputing it.
        rounds: refinement iterations (each re-examines the refined grid).
        max_new_points: total budget of inserted points across rounds.
        min_spacing: skip intervals at or below this width, and never
            insert a midpoint within this distance of *any* existing grid
            value (so repeated rounds cannot burn the budget on
            near-duplicate points).
        ci_level: confidence level for halfwidths derived from standard
            errors when a comparison-free ``result`` carries no CI
            annotations.

    Returns:
        ``(refined_spec, refined_result)`` — the spec with the appended
        grid (its natural cache key for future runs) and its result with
        points presented in ascending x order. With nothing to refine both
        are the inputs (result sorted).
    """
    paths = spec.parameter_paths
    if len(paths) != 1 or not isinstance(spec.parameter, str):
        raise ValueError(
            "refine_sweep needs a single swept parameter; coupled and "
            "single-point sweeps have no scalar axis to bisect"
        )
    for value in spec.values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"refine_sweep needs a numeric axis, got value {value!r}"
            )
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if max_new_points < 1:
        raise ValueError(f"max_new_points must be >= 1, got {max_new_points}")

    if result is None:
        result = run_sweep(spec, backend=backend, cache=cache, resume=resume)
    _check_result_matches(spec, result)

    added = 0
    for _round in range(rounds):
        if spec.comparison is not None:
            intervals = _paired_ambiguous_intervals(result)
        else:
            if len(result.series_names) < 2:
                break  # one series has no orderings to separate
            halfwidths = _series_halfwidths(result, spec, ci_level)
            intervals = _ambiguous_intervals(result, halfwidths)
        existing = set(spec.values)
        new_values = []
        for x0, x1 in intervals:
            if added + len(new_values) >= max_new_points:
                break
            mid = _midpoint(x0, x1, min_spacing)
            if mid is None or mid in existing:
                continue
            if min_spacing is not None and any(
                abs(mid - value) <= min_spacing for value in existing
            ):
                continue
            new_values.append(mid)
            existing.add(mid)
        if not new_values:
            break
        spec = replace(spec, values=spec.values + tuple(new_values))
        result = run_sweep(spec, backend=backend, cache=cache, resume=resume)
        added += len(new_values)

    return spec, _sorted_by_x(result)
