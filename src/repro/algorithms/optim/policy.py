"""ILP/LP placement as an ordinary online :class:`AllocationPolicy`.

:class:`IlpPlacement` is the periodic re-solve strategy of the related work
(Stillwell et al.'s LP/MILP allocation; the ``replacement_interval``
re-solve idiom): it accumulates a demand window and, at every epoch
boundary, solves the placement program of
:mod:`repro.algorithms.optim.placement` for the next active server set —
then *replays* that solution as a plain configuration decision, so it drops
into every sweep, figure and queue path unchanged, and every
adopted transition is priced exactly by the simulator
(:func:`~repro.core.transitions.price_transition`), not by the model's
planning approximation.

Deactivated servers enter the same bounded FIFO
:class:`~repro.core.servercache.InactiveServerCache` the paper's ONBR/ONTH
use (§III), so an oscillating optimum re-activates cached servers for free
instead of paying β/c every epoch.

Solver knobs (``epoch``, ``window``, ``relax``, ``time_limit``,
``backend``) are ordinary constructor parameters, which makes them
:class:`~repro.api.specs.PolicySpec` params — they fold into sweep cache
keys automatically.  The policy consumes no randomness: same spec + seed
give bit-identical ledgers, and paired (CRN) comparisons stay valid.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.algorithms.optim.backends import resolve_backend
from repro.algorithms.optim.placement import build_placement
from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy
from repro.core.routing import RoutingResult
from repro.core.servercache import InactiveServerCache
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive, check_positive_int

__all__ = ["IlpPlacement"]


@register_policy("ilp", aliases=("optim", "lp"))
class IlpPlacement(AllocationPolicy):
    """Periodic re-solve ILP (or LP-relaxation) placement.

    Args:
        epoch: re-solve every ``epoch`` rounds (the paper's epoch idiom).
        window: demand window in rounds fed to each solve; ``None`` uses
            exactly the rounds since the previous solve.
        relax: solve the LP relaxation and round deterministically instead
            of the integer program (faster; a lower-bound-guided heuristic).
        time_limit: per-solve wall-clock limit in seconds (``None`` = none).
        backend: ``"scipy"`` (built-in), ``"pulp"`` (the ``[opt]`` extra) or
            ``"auto"``; an unavailable ``"pulp"`` raises a graceful
            :class:`ImportError` at construction naming the extra.
        max_servers: optional fleet-size bound per solve.
        start_node: initial server location (default: the network center).
        cache_size: inactive-server FIFO capacity (§III; default 3).
        cache_expiry: epochs before a cached server expires (default 20).
        node_capacity: uniform per-round per-node capacity used when the
            substrate itself carries no capacity vector (lets spec-driven
            sweeps exercise capacitated placement on any topology).
    """

    def __init__(
        self,
        epoch: int = 20,
        window: "int | None" = None,
        relax: bool = False,
        time_limit: "float | None" = None,
        backend: str = "scipy",
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
        cache_size: int = 3,
        cache_expiry: int = 20,
        node_capacity: "float | None" = None,
    ) -> None:
        self._epoch = check_positive_int("epoch", epoch)
        self._window = (
            None if window is None else check_positive_int("window", window)
        )
        self._relax = bool(relax)
        self._time_limit = (
            None if time_limit is None
            else check_positive("time_limit", time_limit)
        )
        self._backend = backend
        resolve_backend(backend)  # graceful ImportError / ValueError now
        if max_servers is not None and max_servers < 1:
            raise ValueError(f"max_servers must be >= 1, got {max_servers}")
        self._max_servers = max_servers
        self._start_node = start_node
        self._cache_size = check_positive_int("cache_size", cache_size)
        self._cache_expiry = check_positive_int("cache_expiry", cache_expiry)
        self._node_capacity = (
            None if node_capacity is None
            else check_positive("node_capacity", node_capacity)
        )

        self._substrate: "Substrate | None" = None
        self._costs: "CostModel | None" = None
        self._config: "Configuration | None" = None
        self._cache: "InactiveServerCache | None" = None
        self._history: "deque[np.ndarray] | None" = None
        self._rounds_in_epoch = 0
        self._capacities: "np.ndarray | None" = None

    @property
    def name(self) -> str:
        return "LP" if self._relax else "ILP"

    # -- policy interface --------------------------------------------------------

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        if costs.migration_matrix is not None:
            raise NotImplementedError(
                "IlpPlacement prices switching with the constant-β model; "
                "migration matrices are not supported"
            )
        start = (
            substrate.center if self._start_node is None
            else int(self._start_node)
        )
        if not 0 <= start < substrate.n:
            raise ValueError(f"start node {start} outside the substrate")
        self._substrate = substrate
        self._costs = costs
        self._capacities = self._resolve_capacities(substrate)
        self._cache = InactiveServerCache(self._cache_size, self._cache_expiry)
        self._history = deque(maxlen=self._window or self._epoch)
        self._rounds_in_epoch = 0
        self._config = Configuration.single(start)
        return self._config

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        self._history.append(np.asarray(requests, dtype=np.int64).copy())
        self._rounds_in_epoch += 1
        if self._rounds_in_epoch < self._epoch:
            return self._config
        self._rounds_in_epoch = 0
        self._end_epoch()
        if self._window is None:
            self._history.clear()
        return self._config

    # -- the epoch solve ---------------------------------------------------------

    def _resolve_capacities(self, substrate: Substrate) -> "np.ndarray | None":
        if substrate.capacities is not None:
            return substrate.capacities
        if self._node_capacity is not None:
            return np.full(substrate.n, self._node_capacity, dtype=np.float64)
        return None

    def _end_epoch(self) -> None:
        cache = self._cache
        cache.tick_epoch()  # expired servers simply leave use
        demand = (
            np.concatenate(list(self._history))
            if self._history else np.zeros(0, dtype=np.int64)
        )
        if demand.size == 0:
            # nothing observed: keep the fleet, just age the cache
            self._config = Configuration(self._config.active, cache.nodes)
            return

        occupied = frozenset(self._config.active) | frozenset(cache.nodes)
        model = build_placement(
            self._substrate,
            self._costs,
            demand,
            window_rounds=len(self._history),
            epoch_rounds=self._epoch,
            occupied=occupied,
            capacities=self._capacities,
            max_servers=self._max_servers,
        )
        solution = model.program.solve(
            backend=self._backend,
            relax=self._relax,
            time_limit=self._time_limit,
        )
        new_active = model.active_from(solution.values, self._relax)

        for node in new_active:
            cache.remove(node)  # re-activating a cached server is free
        for node in self._config.active:
            if node not in new_active:
                cache.push(node)  # deactivate into the FIFO (may evict)
        self._config = Configuration(new_active, cache.nodes)
