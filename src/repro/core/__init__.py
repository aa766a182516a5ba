"""Core model of the paper: configurations, costs, routing and the game loop.

This package implements §II of the paper — everything the allocation
strategies of :mod:`repro.algorithms` are built on:

* :class:`Configuration` — where servers are and in which of the three
  states (Definition 3.1);
* :class:`CostModel` — β, c, Ra, Ri, the load function and optional
  distance-dependent migration costs;
* :func:`price_transition` — the transition semantics of Examples 1-3;
* :func:`route_requests` — access cost of a round (latency + load);
* :class:`RequestBatch` — the one evaluator of candidate placements over a
  request window (exact, removal, addition and migration costs);
* :func:`simulate` — the synchronous online game of §II-E, the one
  single-service round loop, producing a per-round :class:`RunResult`
  ledger through the :class:`RunLedger` column writer.
"""

from repro.core.config import Configuration
from repro.core.costs import CostModel, bandwidth_migration_matrix
from repro.core.evaluation import RequestBatch
from repro.core.load import (
    CallableLoad,
    LinearLoad,
    LoadFunction,
    PowerLoad,
    QuadraticLoad,
)
from repro.core.multiservice import ServiceSpec, simulate_services
from repro.core.policy import AllocationPolicy, OfflinePolicy
from repro.core.results import CostBreakdown, RoundRecord, RunLedger, RunResult
from repro.core.routing import (
    RoutingResult,
    RoutingStrategy,
    nearest_latency_cost,
    route_requests,
)
from repro.core.servercache import InactiveServerCache
from repro.core.simulator import simulate
from repro.core.transitions import TransitionOutcome, price_transition

__all__ = [
    "Configuration",
    "CostModel",
    "bandwidth_migration_matrix",
    "RequestBatch",
    "LoadFunction",
    "LinearLoad",
    "QuadraticLoad",
    "PowerLoad",
    "CallableLoad",
    "AllocationPolicy",
    "OfflinePolicy",
    "CostBreakdown",
    "RoundRecord",
    "RunLedger",
    "RunResult",
    "RoutingResult",
    "RoutingStrategy",
    "route_requests",
    "nearest_latency_cost",
    "InactiveServerCache",
    "simulate",
    "ServiceSpec",
    "simulate_services",
    "TransitionOutcome",
    "price_transition",
]
