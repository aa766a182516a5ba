"""Shared best-response step for ONBR/ONTH (and their offline variants).

At an epoch boundary the algorithms of §III-A pick the cheapest
configuration among a small set of *single-change families* relative to the
current configuration γ:

* ``stay``       — keep γ;
* ``migrate``    — one active server moves to another node (cost β);
* ``deactivate`` — one active server enters the inactive cache (free);
* ``activate``   — a cached inactive server is switched on in place (free);
* ``create``     — a new active server appears at an empty node: the oldest
  cache entry is migrated there when one exists (β), otherwise the server
  is created from scratch (c) — the §III-A queue rule.

Each family's access cost over the epoch window comes from the vectorised
:class:`~repro.core.evaluation.RequestBatch` primitives, so evaluating all
``O(k·n)`` concrete candidates costs ``O(k)`` numpy broadcasts. A family is
summarised by the best concrete candidate inside it; applying a choice
updates the policy's configuration and inactive-server cache consistently
with how :func:`~repro.core.transitions.price_transition` will charge it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.servercache import InactiveServerCache

__all__ = ["Choice", "enumerate_choices", "apply_choice", "best_choice"]

#: Tie-break order between families with equal total cost: prefer doing
#: nothing, then free changes, then priced ones.
_KIND_PRIORITY = {"stay": 0, "deactivate": 1, "activate": 2, "migrate": 3, "create": 4}


@dataclass(frozen=True)
class Choice:
    """The best concrete candidate of one family.

    Attributes:
        kind: family name (see module docstring).
        access: window access cost of the candidate placement.
        run_per_round: running cost per round of the candidate configuration.
        transition_cost: what :func:`price_transition` will charge.
        server: index into the current active tuple (migrate/deactivate).
        target: destination node (migrate/activate/create).
    """

    kind: str
    access: float
    run_per_round: float
    transition_cost: float
    server: int = -1
    target: int = -1

    def total(self, n_rounds: int) -> float:
        """Window cost: access + running over the window + transition."""
        return self.access + self.run_per_round * max(n_rounds, 1) + self.transition_cost

    @property
    def priority(self) -> int:
        """Tie-break rank (lower wins)."""
        return _KIND_PRIORITY[self.kind]


def enumerate_choices(
    batch: RequestBatch,
    config: Configuration,
    cache: InactiveServerCache,
    costs: CostModel,
    allow_migrate: bool = True,
    allow_deactivate: bool = True,
    allow_add: bool = True,
) -> list[Choice]:
    """All family representatives for the current (config, cache) state.

    ONBR enumerates every family; ONTH's small epochs exclude additions
    (``allow_add=False``) because servers are only added at large-epoch
    boundaries (§III-A).
    """
    active = np.asarray(config.active, dtype=np.int64)
    queue_nodes = cache.nodes
    k_active, k_inactive = active.size, len(queue_nodes)
    run = costs.running_cost_counts

    choices: list[Choice] = []

    stay_access = float(batch.exact_access_cost(active)) if active.size else 0.0
    choices.append(
        Choice("stay", stay_access, run(k_active, k_inactive), 0.0)
    )

    if allow_migrate and active.size:
        choices.extend(_migration_choices(batch, config, cache, costs))

    if allow_deactivate and k_active >= 2:
        removal = batch.removal_costs(active)
        best = int(np.argmin(removal))
        if np.isfinite(removal[best]):
            # Deactivation is free; a full cache evicts its oldest entry.
            new_inactive = min(k_inactive + 1, cache.max_size)
            choices.append(
                Choice(
                    "deactivate",
                    float(removal[best]),
                    run(k_active - 1, new_inactive),
                    0.0,
                    server=best,
                )
            )

    if allow_add:
        choices.extend(_addition_choices(batch, config, cache, costs))

    return choices


def _migration_choices(
    batch: RequestBatch,
    config: Configuration,
    cache: InactiveServerCache,
    costs: CostModel,
) -> list[Choice]:
    """Best migration target for each active server (plain §II-C move).

    The server leaves its origin empty and reappears at the target; the
    inactive cache is untouched. Targets hosting any server are excluded
    (one server per node).
    """
    active = np.asarray(config.active, dtype=np.int64)
    occupied = np.asarray(sorted(config.occupied), dtype=np.int64)
    run = costs.running_cost_counts(config.n_active, len(cache))
    choices = []
    # One bulk call for all k families: the evaluator serves every row
    # from a single stacked pass; row-wise argmin matches the former
    # per-server scans exactly.
    access_all = batch.migration_costs_all(active)
    access_all[:, occupied] = np.inf
    targets = np.argmin(access_all, axis=1)
    for i in range(active.size):
        target = int(targets[i])
        if not np.isfinite(access_all[i, target]):
            continue
        src = int(active[i])
        # The pricer always takes the cheaper of moving a vanished server
        # (β) and creating from scratch (c), so predict the same.
        move_cost = min(costs.migration_cost(src, target), costs.creation)
        choices.append(
            Choice(
                "migrate",
                float(access_all[i, target]),
                run,
                move_cost,
                server=i,
                target=target,
            )
        )
    return choices


def _addition_choices(
    batch: RequestBatch,
    config: Configuration,
    cache: InactiveServerCache,
    costs: CostModel,
) -> list[Choice]:
    """Best in-place activation and best creation-at-empty-node."""
    active = np.asarray(config.active, dtype=np.int64)
    addition = batch.addition_costs(active)
    run = costs.running_cost_counts
    k_active, k_inactive = config.n_active, len(cache)
    choices = []

    queue_nodes = np.asarray(cache.nodes, dtype=np.int64)
    if queue_nodes.size:
        local = int(np.argmin(addition[queue_nodes]))
        target = int(queue_nodes[local])
        choices.append(
            Choice(
                "activate",
                float(addition[target]),
                run(k_active + 1, k_inactive - 1),
                0.0,
                target=target,
            )
        )

    empty_costs = addition.copy()
    occupied = np.asarray(sorted(config.occupied), dtype=np.int64)
    if occupied.size:
        empty_costs[occupied] = np.inf
    target = int(np.argmin(empty_costs))
    if np.isfinite(empty_costs[target]):
        if queue_nodes.size:
            # §III-A: the oldest cached server is migrated to the new node
            # (the pricer takes the cheaper of migration and creation).
            donor = int(queue_nodes[0])
            transition = min(costs.migration_cost(donor, target), costs.creation)
            new_inactive = k_inactive - 1
        else:
            transition = costs.creation
            new_inactive = k_inactive
        choices.append(
            Choice(
                "create",
                float(empty_costs[target]),
                run(k_active + 1, new_inactive),
                transition,
                target=target,
            )
        )
    return choices


def best_choice(choices: list[Choice], n_rounds: int) -> Choice:
    """The cheapest choice; ties resolved by :data:`_KIND_PRIORITY`."""
    if not choices:
        raise ValueError("no choices to select from")
    return min(choices, key=lambda ch: (ch.total(n_rounds), ch.priority, ch.target))


def apply_choice(
    choice: Choice,
    config: Configuration,
    cache: InactiveServerCache,
) -> Configuration:
    """Mutate ``cache`` and return the new configuration for ``choice``.

    The cache operations mirror exactly what the transition pricer assumes:
    a deactivated server is pushed (possibly evicting the oldest entry), an
    activation consumes its cache entry, a creation consumes the oldest
    entry as migration donor when one exists.
    """
    if choice.kind == "stay":
        return config.replace_inactive(cache.nodes)

    if choice.kind == "migrate":
        src = config.active[choice.server]
        new_config = config.move_active(src, choice.target)
        return new_config.replace_inactive(cache.nodes)

    if choice.kind == "deactivate":
        node = config.active[choice.server]
        cache.push(node)  # eviction (if any) silently leaves use
        return Configuration(
            tuple(v for v in config.active if v != node), cache.nodes
        )

    if choice.kind == "activate":
        if not cache.remove(choice.target):
            raise RuntimeError(f"activation target {choice.target} not in cache")
        return Configuration(config.active + (choice.target,), cache.nodes)

    if choice.kind == "create":
        cache.pop_oldest()  # donor for the β-migration (None when empty: creation)
        return Configuration(config.active + (choice.target,), cache.nodes)

    raise ValueError(f"unknown choice kind {choice.kind!r}")
