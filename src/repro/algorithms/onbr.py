"""ONBR — the sequential best-response online algorithm of §III-A.

ONBR starts with one server at the network center. Time is divided into
epochs; an epoch ends when the cost accumulated in the current configuration
(access plus running cost) reaches a threshold θ. At the boundary, ONBR
switches to the cheapest configuration — evaluated against the *passed*
epoch, including access, migration, running and creation costs — among:

1. no change,
2. one server migrated to a different location,
3. one server deactivated into the inactive cache,
4. one cached server activated in place, or a new server created at an
   empty node (migrating the oldest cache entry there when one exists).

Inactive servers live in a FIFO cache of constant size (3 in the paper's
simulations) and expire after ``x = 20`` epochs.

Two threshold variants from §V-B:

* **fixed** — θ = 2c;
* **dyn** — θ = 2c/ℓ where ℓ is the length (rounds) of the preceding
  epoch: short epochs mean fast-changing demand, so the system re-decides
  sooner. The first epoch uses the fixed threshold.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._families import apply_choice, best_choice, enumerate_choices
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.api.registry import register_policy
from repro.core.policy import AllocationPolicy
from repro.core.routing import RoutingResult
from repro.core.servercache import InactiveServerCache
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive, check_positive_int

__all__ = ["OnBR"]


@register_policy("onbr", aliases=("onbr-fixed",))
class OnBR(AllocationPolicy):
    """Online best-response allocation (ONBR, §III-A).

    Args:
        threshold_factor: θ in units of the creation cost (θ = factor · c);
            the paper uses 2.
        dynamic_threshold: enable the "dyn" variant θ = 2c/ℓ.
        cache_size: capacity of the inactive-server FIFO cache.
        cache_expiry: cache entries expire after this many epochs (x).
        start_node: initial server location; ``None`` = network center.
    """

    def __init__(
        self,
        threshold_factor: float = 2.0,
        dynamic_threshold: bool = False,
        cache_size: int = 3,
        cache_expiry: int = 20,
        start_node: "int | None" = None,
    ) -> None:
        self._threshold_factor = check_positive("threshold_factor", threshold_factor)
        self._dynamic = bool(dynamic_threshold)
        self._cache_size = check_positive_int("cache_size", cache_size)
        self._cache_expiry = check_positive_int("cache_expiry", cache_expiry)
        self._start_node = start_node
        # Bound at reset:
        self._substrate: "Substrate | None" = None
        self._costs: "CostModel | None" = None
        self._config = Configuration.empty()
        self._cache = InactiveServerCache(cache_size, cache_expiry)
        self._batch: "RequestBatch | None" = None
        self._gather = None  # DistanceGather bound for the current run
        self._epoch_cost = 0.0
        self._epoch_rounds = 0
        self._previous_epoch_rounds: "int | None" = None
        self._current_round = -1

    @property
    def name(self) -> str:
        return "ONBR-dyn" if self._dynamic else "ONBR"

    @property
    def configuration(self) -> Configuration:
        """The policy's current configuration (for inspection/tests)."""
        return self._config

    # -- policy interface --------------------------------------------------------

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        self._substrate = substrate
        self._costs = costs
        start = substrate.center if self._start_node is None else int(self._start_node)
        if not 0 <= start < substrate.n:
            raise ValueError(f"start node {start} outside the substrate")
        self._config = Configuration.single(start)
        self._cache = InactiveServerCache(self._cache_size, self._cache_expiry)
        if self._gather is not None and self._gather.matches(substrate, costs):
            self._batch = self._gather.new_window()
        else:
            self._batch = RequestBatch(substrate, costs)
        self._epoch_cost = 0.0
        self._epoch_rounds = 0
        self._previous_epoch_rounds = None
        self._current_round = -1
        return self._config

    def bind_batch_gather(self, gather) -> bool:
        # Exact-type guard: OFFBR subclasses this policy and evaluates a
        # *different* window (the upcoming epoch) that the gather cannot
        # serve, so only plain ONBR opts in.
        if type(self) is not OnBR:
            return False
        self._gather = gather
        return True

    def unbind_batch_gather(self) -> None:
        self._gather = None

    def _threshold(self) -> float:
        base = self._threshold_factor * self._costs.creation
        if self._dynamic and self._previous_epoch_rounds:
            return base / self._previous_epoch_rounds
        return base

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        self._current_round = t
        self._batch.add_round(requests)
        self._epoch_rounds += 1
        self._epoch_cost += routing.access_cost + self._costs.running_cost(self._config)

        if self._epoch_cost < self._threshold():
            return self._config

        self._end_epoch()
        return self._config

    # -- epoch machinery -----------------------------------------------------------

    def _decision_batch(self) -> RequestBatch:
        """The request window the best-response step evaluates against.

        ONBR decides on the *passed* epoch; the offline variant OFFBR
        overrides this with the upcoming epoch (§IV-B).
        """
        return self._batch

    def _end_epoch(self) -> None:
        batch = self._decision_batch()
        choices = enumerate_choices(
            batch, self._config, self._cache, self._costs
        )
        chosen = best_choice(choices, batch.n_rounds)
        self._config = apply_choice(chosen, self._config, self._cache)

        expired = self._cache.tick_epoch()
        if expired:
            self._config = self._config.replace_inactive(self._cache.nodes)

        self._previous_epoch_rounds = self._epoch_rounds
        self._epoch_rounds = 0
        self._epoch_cost = 0.0
        self._batch.clear()


@register_policy("onbr-dyn")
def onbr_dyn(**kwargs) -> OnBR:
    """The "dyn" variant θ = 2c/ℓ as a registry factory (§V-B)."""
    return OnBR(dynamic_threshold=True, **kwargs)
