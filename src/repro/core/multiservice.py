"""Multiple services sharing one substrate (§II-B's full request model).

The paper's requests are tuples ``(a ∈ A, S ∈ S)`` — an access point *and a
service*: the substrate provider hosts several virtualised services, each
with its own server fleet and allocation policy. The evaluation section
only ever exercises one service, so the single-service
:func:`~repro.core.simulator.simulate` is the library's main entry point;
this module implements the general case as a documented extension.

Semantics:

* each service has its own trace, policy, configuration and ledger — the
  game of §II-E runs per service, in lockstep rounds;
* services couple through **shared node load**: the load latency of node
  ``v`` in round ``t`` is ``f(ω(v), η(v, t))`` with ``η`` counting requests
  of *all* services served at ``v``. Each service is charged its share of
  the node load in proportion to its requests there (for linear load this
  equals its stand-alone cost; for convex load, co-location hurts both —
  the contention is the point of the model);
* a node may host at most one server *per service* (different services
  may co-locate; they are distinct virtual machines);
* when the substrate carries a per-node **capacity vector**
  (``Substrate(..., capacities=...)``), routing becomes capacity-aware:
  each node serves at most ``capacities[v]`` requests per round *summed
  over all services*. Requests are placed deterministically — services in
  declaration order, requests in trace order, each at its nearest active
  server with spare capacity (ties to the lower node index), spilling over
  to the next-nearest when the preferred node is full. A round whose
  demand cannot be packed at all raises :class:`ValueError`: capacity is a
  hard packing constraint (the Stolyar-style model the optimizer-backed
  policies plan against), unlike the soft contention of the load function.
  Uncapacitated substrates keep the original vectorised nearest routing,
  bit-for-bit.

The per-service ledgers are ordinary :class:`~repro.core.results.RunResult`
objects, so all analysis tooling applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy, OfflinePolicy
from repro.core.results import RunLedger, RunResult
from repro.core.routing import RoutingResult
from repro.core.transitions import price_transition
from repro.topology.substrate import Substrate
from repro.workload.base import Trace
from repro.util.rng import ensure_rng

__all__ = ["ServiceSpec", "simulate_services"]


@dataclass
class ServiceSpec:
    """One hosted service: its demand, policy and (optional) cost model."""

    name: str
    policy: AllocationPolicy
    trace: Trace
    costs: "CostModel | None" = None


def _place_capacitated(
    name: str,
    t: int,
    servers: np.ndarray,
    requests: np.ndarray,
    distances: np.ndarray,
    remaining: np.ndarray,
) -> "tuple[np.ndarray, float]":
    """Greedy deterministic capacity-aware placement of one service's round.

    Each request (in trace order) goes to its nearest active server with
    spare capacity — ties to the lower node index via the stable preference
    sort — consuming one unit of the *shared* ``remaining`` budget.  Raises
    when a request finds every active server full: capacity is a hard
    packing constraint.
    """
    preference = np.argsort(distances, axis=0, kind="stable")
    served_at = np.empty(requests.size, dtype=np.int64)
    latency = 0.0
    for j in range(requests.size):
        for rank in preference[:, j]:
            node = int(servers[rank])
            if remaining[node] >= 1.0:
                served_at[j] = node
                latency += float(distances[rank, j])
                remaining[node] -= 1.0
                break
        else:
            raise ValueError(
                f"service {name!r}: request at node {int(requests[j])} in "
                f"round {t} cannot be served — every active server is at "
                "capacity (the per-node capacity vector is a hard packing "
                "constraint)"
            )
    return served_at, latency


def simulate_services(
    substrate: Substrate,
    services: "list[ServiceSpec]",
    default_costs: "CostModel | None" = None,
    seed: "int | np.random.Generator | None" = None,
) -> Mapping[str, RunResult]:
    """Run several services over one substrate with shared node load.

    Args:
        substrate: the shared substrate network; when it carries
            ``capacities``, routing enforces them as a per-round per-node
            packing constraint shared across services (see the module
            docstring for the exact placement order).
        services: the hosted services; traces must have equal length
            (lockstep rounds) and unique names.
        default_costs: cost model for services without their own.
        seed: policy randomness (one child stream per service).

    Returns:
        Mapping service name → its :class:`RunResult` ledger.

    Raises:
        ValueError: invalid service set, a service with requests but no
            active server, or — on capacitated substrates — a round whose
            demand cannot be packed within the active servers' capacities.
    """
    if not services:
        raise ValueError("simulate_services needs at least one service")
    names = [spec.name for spec in services]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate service names in {names}")
    horizons = {len(spec.trace) for spec in services}
    if len(horizons) != 1:
        raise ValueError(
            f"all traces must have equal length, got {sorted(horizons)}"
        )
    horizon = horizons.pop()
    default_costs = default_costs if default_costs is not None else CostModel.paper_default()

    rng = ensure_rng(seed)
    streams = rng.spawn(len(services))
    costs_of = {
        spec.name: (spec.costs if spec.costs is not None else default_costs)
        for spec in services
    }

    configs: dict[str, Configuration] = {}
    ledgers = {spec.name: RunLedger() for spec in services}
    for spec, stream in zip(services, streams):
        trace = spec.trace
        if trace.max_node >= substrate.n:
            raise ValueError(
                f"service {spec.name!r} references node {trace.max_node} "
                f"outside the {substrate.n}-node substrate"
            )
        if isinstance(spec.policy, OfflinePolicy):
            spec.policy.prepare(trace)
        configs[spec.name] = spec.policy.reset(substrate, costs_of[spec.name], stream)

    strengths = substrate.strengths
    for t in range(horizon):
        # Phase 1: route every service against its own servers; collect the
        # per-node demand each service induces. On capacitated substrates
        # the per-round budget is shared across services (placement order:
        # services as declared, requests in trace order).
        assignments: dict[str, tuple[np.ndarray, np.ndarray, float]] = {}
        node_counts = np.zeros(substrate.n, dtype=np.int64)
        remaining = (
            substrate.capacities.copy() if substrate.capacitated else None
        )
        for spec in services:
            config = configs[spec.name]
            requests = spec.trace[t]
            if requests.size == 0:
                assignments[spec.name] = (
                    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0.0
                )
                continue
            if config.n_active == 0:
                raise ValueError(
                    f"service {spec.name!r} has no active server in round {t}"
                )
            servers = np.asarray(config.active, dtype=np.int64)
            distances = substrate.distances[np.ix_(servers, requests)]
            if remaining is None:
                choice = np.argmin(distances, axis=0)
                latency = float(distances[choice, np.arange(requests.size)].sum())
                served_at = servers[choice]
            else:
                served_at, latency = _place_capacitated(
                    spec.name, t, servers, requests, distances, remaining
                )
            latency += costs_of[spec.name].wireless_hop * requests.size
            assignments[spec.name] = (served_at, requests, latency)
            node_counts += np.bincount(served_at, minlength=substrate.n)

        # Phase 2: shared node load, attributed proportionally to each
        # service's requests at the node.
        busy = np.flatnonzero(node_counts)
        node_load = np.zeros(substrate.n, dtype=np.float64)
        if busy.size:
            # One load function evaluation per service cost model is wrong —
            # load is a property of the *node*; use each service's own model
            # only for attribution weighting. The substrate-level load uses
            # the default model (services share the machine).
            node_load[busy] = default_costs.load(
                strengths[busy], node_counts[busy]
            )

        # Phase 3: decisions and accounting per service.
        for spec in services:
            name = spec.name
            costs = costs_of[name]
            served_at, requests, latency = assignments[name]
            if served_at.size:
                mine = np.bincount(served_at, minlength=substrate.n)
                with np.errstate(invalid="ignore"):
                    share = np.divide(
                        mine, node_counts,
                        out=np.zeros(substrate.n, dtype=np.float64),
                        where=node_counts > 0,
                    )
                load = float((node_load * share).sum())
                counts_for_policy = mine[np.asarray(configs[name].active)]
            else:
                load = 0.0
                counts_for_policy = np.zeros(configs[name].n_active, dtype=np.int64)

            routing = RoutingResult(
                latency_cost=latency,
                load_cost=load,
                counts=counts_for_policy,
                assignment=np.searchsorted(
                    np.asarray(configs[name].active), served_at
                ) if served_at.size else np.zeros(0, dtype=np.int64),
            )
            new_config = spec.policy.decide(t, requests, routing)
            outcome = price_transition(configs[name], new_config, costs)
            configs[name] = new_config

            ledgers[name].write(
                latency, load, costs.running_cost(new_config),
                outcome.migration_cost, outcome.creation_cost,
                outcome.migrations, outcome.creations,
                new_config.n_active, new_config.n_inactive, int(requests.size),
            )

    return {
        spec.name: ledgers[spec.name].finish(
            spec.policy.name, spec.trace.scenario_name
        )
        for spec in services
    }
