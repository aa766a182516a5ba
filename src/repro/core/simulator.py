"""The synchronous online game of §II-E: the one single-service round loop.

:func:`simulate` is the single entry point every experiment uses: it drives
an :class:`~repro.core.policy.AllocationPolicy` — online or offline — over
a materialised :class:`~repro.workload.base.Trace` or a streaming
round-iterable on a substrate, prices every configuration change with
:func:`~repro.core.transitions.price_transition`, and returns the full
per-round cost ledger.

Accounting per round ``t`` (the exact order of §II-E):

1. requests ``σt`` arrive;
2. the current configuration pays the access cost (request latency plus
   server load);
3. the policy picks the next configuration; migration/creation costs of the
   transition and the running costs of the *new* configuration are paid.

The paper notes the results are insensitive to reordering steps 2 and 3
because one round's requests are much cheaper than a migration.

The loop reads the trace in chunks, each a
:class:`~repro.core.evaluation.DistanceGather` (which is also where node
bounds are validated). A materialised trace whose full distance gather
fits :data:`_GATHER_ELEMS_MAX` is one chunk, and a policy that opts in
through :meth:`~repro.core.policy.AllocationPolicy.bind_batch_gather`
evaluates its epochs on windows over that gather, sharing candidate
families with sibling policies. Streaming traces and larger traces run in
:data:`_CHUNK_ROUNDS`-round chunks, so memory stays O(chunk), and policies
keep their own request windows. Both sources produce the same floats, so
the ledger does not depend on which one a run used.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import DistanceGather
from repro.core.policy import AllocationPolicy, OfflinePolicy
from repro.core.results import RunLedger, RunResult
from repro.core.routing import RoutingResult, RoutingStrategy, route_requests
from repro.core.transitions import _NO_CHANGE, price_transition
from repro.topology.substrate import Substrate
from repro.workload.base import RoundIterable, Trace, as_trace
from repro.util.rng import ensure_rng

__all__ = ["simulate"]

#: Largest whole-trace distance gather (``n × requests`` float64 elements,
#: 128 MiB) a policy is bound to; bigger traces run in chunks.
_GATHER_ELEMS_MAX = 1 << 24

#: Rounds per chunk when the trace is not read as one gather.
_CHUNK_ROUNDS = 1024

#: How many rounds are routed per argmin while the active set is unchanged.
#: Rebuilt early whenever the policy moves a server, so larger spans only
#: pay off across stable epochs.
_SPAN_ROUNDS = 16


def simulate(
    substrate: Substrate,
    policy: AllocationPolicy,
    trace: RoundIterable,
    costs: "CostModel | None" = None,
    routing: RoutingStrategy = RoutingStrategy.NEAREST,
    seed: "int | np.random.Generator | None" = None,
    max_servers: "int | None" = None,
    gather: "DistanceGather | None" = None,
) -> RunResult:
    """Run ``policy`` against ``trace`` on ``substrate`` and return the ledger.

    Args:
        substrate: the substrate network.
        policy: the allocation strategy; offline policies are handed the
            trace via ``prepare`` before the run starts.
        trace: the request sequence (one node-index array per round) — a
            materialised :class:`~repro.workload.base.Trace` or any
            round-iterable such as a lazily generated
            :class:`~repro.traces.streaming.StreamingTrace`. Streaming input
            is materialised only when the policy declares
            ``requires_full_trace`` (offline lookahead); online policies run
            in O(chunk) memory.
        costs: cost model; defaults to the paper's β=40, c=400 model.
        routing: request-to-server assignment strategy.
        seed: randomness for the policy (e.g. ONCONF's random switch).
        max_servers: optional hard cap ``k`` on simultaneous in-use servers;
            a policy exceeding it is a bug and raises.
        gather: a :class:`~repro.core.evaluation.DistanceGather` built for
            this ``trace``, ``substrate`` and ``costs``; sibling policies
            passed the same gather share its distance columns and
            candidate-family memo. Built here when omitted.

    Returns:
        The immutable :class:`~repro.core.results.RunResult`.

    Raises:
        ValueError: if the trace references nodes outside the substrate
            (negative indices included), a round with requests finds no
            active server, ``max_servers`` is violated, or ``gather`` was
            built for another trace, substrate or cost model.
    """
    costs = costs if costs is not None else CostModel.paper_default()
    rng = ensure_rng(seed)

    if policy.requires_full_trace or isinstance(policy, OfflinePolicy):
        trace = as_trace(trace)
    if costs.migration_matrix is not None and costs.migration_matrix.shape[0] != substrate.n:
        raise ValueError(
            f"migration_matrix is {costs.migration_matrix.shape[0]}x"
            f"{costs.migration_matrix.shape[1]} but substrate has {substrate.n} nodes"
        )
    if gather is not None:
        if not gather.matches(substrate, costs):
            raise ValueError("gather was built for a different substrate/cost model")
        if not isinstance(trace, Trace) or gather.rounds is not trace.rounds:
            raise ValueError("gather was built for a different trace")
    elif (
        isinstance(trace, Trace)
        and substrate.n * trace.total_requests <= _GATHER_ELEMS_MAX
    ):
        gather = DistanceGather(substrate, costs, trace)

    if isinstance(policy, OfflinePolicy):
        policy.prepare(trace)
    bound = (
        gather is not None
        and gather.elements <= _GATHER_ELEMS_MAX
        and policy.bind_batch_gather(gather)
    )
    try:
        chunks = [gather] if gather is not None else _chunks(substrate, costs, trace)
        ledger = _play(substrate, policy, chunks, costs, routing, rng, max_servers)
    finally:
        if bound:
            policy.unbind_batch_gather()
    return ledger.finish(policy.name, getattr(trace, "scenario_name", ""))


def _chunks(
    substrate: Substrate, costs: CostModel, trace: RoundIterable
) -> Iterator[DistanceGather]:
    rounds = iter(trace)
    while True:
        block = list(islice(rounds, _CHUNK_ROUNDS))
        if not block:
            return
        yield DistanceGather(substrate, costs, block)


def _play(
    substrate: Substrate,
    policy: AllocationPolicy,
    chunks,
    costs: CostModel,
    routing: RoutingStrategy,
    rng: np.random.Generator,
    max_servers: "int | None",
) -> RunLedger:
    config = policy.reset(substrate, costs, rng)
    _check_config(config, substrate, max_servers, t=-1)

    ledger = RunLedger()
    fast_nearest = routing is RoutingStrategy.NEAREST
    strengths = substrate.strengths
    hop = costs.wireless_hop
    # Per-configuration-object caches for the ledger columns.
    costed_config: "object | None" = None
    run_cost = 0.0
    n_active = n_inactive = 0
    t = -1
    for chunk in chunks:
        offsets = chunk.offsets
        # Span router state: while the active set is value-unchanged
        # (threshold policies hold their placement across whole epochs, and
        # even "stay" decisions rebuild the tuple object), nearest
        # assignments for the next _SPAN_ROUNDS rounds come from one argmin.
        # Per-round latencies are then sums over contiguous slices of the
        # span — the same summand sequences as routing each round alone.
        span_active: "tuple[int, ...] | None" = None
        span_end = 0  # first chunk round NOT covered by the span arrays
        span_c0 = 0
        for local, requests in enumerate(chunk.rounds):
            t += 1
            size = int(requests.size)
            if size == 0:
                routed = RoutingResult(
                    latency_cost=0.0,
                    load_cost=0.0,
                    counts=np.zeros(len(config.active), dtype=np.int64),
                    assignment=np.zeros(0, dtype=np.int64),
                )
            elif fast_nearest:
                if local >= span_end or config.active != span_active:
                    span_active = config.active
                    active_arr = config.active_array
                    if active_arr.size == 0:
                        raise ValueError("cannot route requests: no active servers")
                    active_strengths = strengths[active_arr]
                    span_end = min(chunk.n_rounds, local + _SPAN_ROUNDS)
                    span_c0 = int(offsets[local])
                    span_c1 = int(offsets[span_end])
                    if chunk.has_columns:
                        block = chunk.columns[active_arr, span_c0:span_c1]
                    else:
                        # Policies that never scan candidates should not pay
                        # for the full (n, requests) gather; the span block
                        # holds the same values either way.
                        block = substrate.distances[
                            np.ix_(active_arr, chunk.flat[span_c0:span_c1])
                        ]
                    span_assign = np.argmin(block, axis=0)
                    span_values = block[span_assign, np.arange(span_assign.size)]
                lo = int(offsets[local]) - span_c0
                hi = int(offsets[local + 1]) - span_c0
                assignment = span_assign[lo:hi]
                latency = span_values[lo:hi].sum() + hop * size
                counts = np.bincount(assignment, minlength=active_arr.size)
                load = costs.load(active_strengths, counts).sum()
                routed = RoutingResult(float(latency), float(load), counts, assignment)
            else:
                routed = route_requests(
                    substrate, config.active_array, requests, costs, routing
                )

            new_config = policy.decide(t, requests, routed)
            if new_config is config:
                # Same object ⇒ already validated, and the transition pricer
                # would short-circuit on equality anyway.
                outcome = _NO_CHANGE
            else:
                _check_config(new_config, substrate, max_servers, t)
                outcome = price_transition(config, new_config, costs)
                config = new_config

            if config is not costed_config:
                costed_config = config
                run_cost = costs.running_cost(config)
                n_active = config.n_active
                n_inactive = config.n_inactive

            ledger.write(
                routed.latency_cost, routed.load_cost, run_cost,
                outcome.migration_cost, outcome.creation_cost,
                outcome.migrations, outcome.creations,
                n_active, n_inactive, size,
            )
    return ledger


def _check_config(
    config: Configuration,
    substrate: Substrate,
    max_servers: "int | None",
    t: int,
) -> None:
    when = "initial configuration" if t < 0 else f"round {t}"
    occupied = config.occupied
    if occupied and max(occupied) >= substrate.n:
        raise ValueError(
            f"{when}: configuration references node {max(occupied)} outside "
            f"the {substrate.n}-node substrate"
        )
    if occupied and min(occupied) < 0:
        # Negative indices would wrap via numpy fancy indexing and silently
        # route against the substrate's last nodes.
        raise ValueError(
            f"{when}: configuration references negative node {min(occupied)}"
        )
    if max_servers is not None and config.n_servers > max_servers:
        raise ValueError(
            f"{when}: {config.n_servers} servers in use exceeds the k={max_servers} cap"
        )
