"""Static allocation baseline: a fixed configuration for the whole run.

The paper's central question is the *benefit of flexibility*: how much worse
is a system that never migrates or reallocates? :class:`StaticPolicy` wraps
any fixed placement so it can run through the same simulator and ledger as
the adaptive strategies. OFFSTAT (§V-B) builds on this: it chooses the best
static placement offline (see :mod:`repro.algorithms.offstat`).

The policy starts at ``start`` (default: one server at the network center,
like the online algorithms) and switches to its target configuration in the
first round, paying the corresponding creation/migration costs — so static
provisioning is charged for building its fleet, consistent with the online
algorithms that pay ``c`` per server they add.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import AllocationPolicy
from repro.core.routing import RoutingResult
from repro.topology.substrate import Substrate

__all__ = ["StaticPolicy"]


@register_policy("static")
class StaticPolicy(AllocationPolicy):
    """Serve every round from one fixed configuration.

    Args:
        target: the static configuration to hold for the entire run.
        start: initial configuration ``γ0``; ``None`` places one active
            server at the network center. Pass ``start=target`` to model a
            pre-provisioned fleet whose build-out is not charged.
        label: optional display name (e.g. ``"OFFSTAT"``).
    """

    def __init__(
        self,
        target: Configuration,
        start: "Configuration | None" = None,
        label: "str | None" = None,
    ) -> None:
        if target.n_active < 1:
            raise ValueError("a static configuration needs at least one active server")
        self._target = target
        self._start = start
        self._label = label

    @property
    def name(self) -> str:
        return self._label or "STATIC"

    @property
    def target(self) -> Configuration:
        """The held configuration."""
        return self._target

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        for node in self._target.occupied:
            if node >= substrate.n:
                raise ValueError(
                    f"static configuration references node {node} outside the substrate"
                )
        if self._start is not None:
            return self._start
        return Configuration.single(substrate.center)

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        return self._target
