"""Tests for the shared best-response machinery (repro.algorithms._families).

The central consistency contract: the transition cost a Choice *predicts*
must equal what :func:`price_transition` *charges* once the choice is
applied — otherwise policies would systematically mis-rank candidates.
"""

import numpy as np
import pytest

from repro.algorithms._families import (
    apply_choice,
    best_choice,
    enumerate_choices,
)
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.servercache import InactiveServerCache
from repro.core.transitions import price_transition
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate
from repro.workload.commuter import CommuterScenario, default_period_for


@pytest.fixture
def path9():
    return line(9, seed=0, unit_latency=False, latency_range=(10, 10))


def make_batch(substrate, costs, rounds):
    return RequestBatch(substrate, costs, [np.asarray(r) for r in rounds])


def make_cache(*nodes, max_size=3):
    cache = InactiveServerCache(max_size=max_size)
    for node in nodes:
        cache.push(node)
    return cache


class TestEnumerate:
    def test_families_present_for_rich_state(self, path9, costs):
        batch = make_batch(path9, costs, [[0, 8]] * 3)
        config = Configuration((2, 6), (4,))
        cache = make_cache(4)
        kinds = {c.kind for c in enumerate_choices(batch, config, cache, costs)}
        assert kinds == {"stay", "migrate", "deactivate", "activate", "create"}

    def test_no_deactivate_for_single_server(self, path9, costs):
        batch = make_batch(path9, costs, [[0]])
        config = Configuration((2,))
        kinds = {
            c.kind
            for c in enumerate_choices(batch, config, make_cache(), costs)
        }
        assert "deactivate" not in kinds

    def test_no_activate_with_empty_cache(self, path9, costs):
        batch = make_batch(path9, costs, [[0]])
        config = Configuration((2,))
        kinds = {
            c.kind
            for c in enumerate_choices(batch, config, make_cache(), costs)
        }
        assert "activate" not in kinds

    def test_allow_add_false_suppresses_growth(self, path9, costs):
        batch = make_batch(path9, costs, [[0]])
        config = Configuration((2,), (4,))
        cache = make_cache(4)
        kinds = {
            c.kind
            for c in enumerate_choices(batch, config, cache, costs, allow_add=False)
        }
        assert kinds <= {"stay", "migrate", "deactivate"}

    def test_migration_excludes_occupied_targets(self, path9, costs):
        batch = make_batch(path9, costs, [[0, 8]] * 2)
        config = Configuration((2, 6), (4,))
        cache = make_cache(4)
        for choice in enumerate_choices(batch, config, cache, costs):
            if choice.kind == "migrate":
                assert choice.target not in config.occupied

    def test_stay_cost_matches_batch(self, path9, costs):
        batch = make_batch(path9, costs, [[0, 8], [4]])
        config = Configuration((2, 6))
        stay = next(
            c
            for c in enumerate_choices(batch, config, make_cache(), costs)
            if c.kind == "stay"
        )
        assert stay.access == pytest.approx(batch.exact_access_cost((2, 6)))
        assert stay.transition_cost == 0.0


class TestPredictionMatchesPricer:
    @pytest.mark.parametrize("expensive", [False, True])
    def test_every_choice_priced_as_predicted(self, path9, expensive):
        costs = (
            CostModel.migration_expensive() if expensive else CostModel.paper_default()
        )
        batch = make_batch(path9, costs, [[0, 8], [1, 7]])
        config = Configuration((2, 6), (4,))
        for choice in enumerate_choices(batch, config, make_cache(4), costs):
            cache = make_cache(4)
            new_config = apply_choice(choice, config, cache)
            charged = price_transition(config, new_config, costs).cost
            assert charged == pytest.approx(choice.transition_cost), choice.kind

    def test_create_uses_donor_when_cached(self, path9, costs):
        batch = make_batch(path9, costs, [[0]])
        config = Configuration((8,), (4,))
        create = next(
            c
            for c in enumerate_choices(batch, config, make_cache(4), costs)
            if c.kind == "create"
        )
        assert create.transition_cost == costs.migration  # donor -> β

    def test_create_without_donor_costs_c(self, path9, costs):
        batch = make_batch(path9, costs, [[0]])
        config = Configuration((8,))
        create = next(
            c
            for c in enumerate_choices(batch, config, make_cache(), costs)
            if c.kind == "create"
        )
        assert create.transition_cost == costs.creation


def described_placement(choice, active):
    """The active placement a choice prices, in the evaluator's order."""
    if choice.kind == "stay":
        return active
    if choice.kind == "deactivate":
        return np.delete(active, choice.server)
    if choice.kind == "migrate":
        return np.append(np.delete(active, choice.server), choice.target)
    return np.append(active, choice.target)  # activate / create


class TestExactChoicePrices:
    """Under non-invariant loads every choice carries its exact access cost.

    The evaluator ranks candidates by a balanced-load lower bound and scores
    only enough of them exactly to fix each family's argmin; a family whose
    occupied targets were masked *after* that walk could be priced at an
    unscored bound instead.
    """

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("load", ["quadratic", "nonuniform-strengths"])
    def test_every_choice_priced_exactly(self, load, trial):
        rng = np.random.default_rng([61, trial])
        n = 60
        er = erdos_renyi(n, p=0.1, seed=rng)
        if load == "quadratic":
            sub, cost_load = er, QuadraticLoad()
        else:
            strengths = rng.uniform(0.5, 2.0, n)
            sub, cost_load = Substrate(n, er.links, strengths=strengths), LinearLoad()
        costs = CostModel.paper_default(load=cost_load)
        trace = CommuterScenario(sub, period=default_period_for(n)).generate(10, rng)
        batch = RequestBatch(sub, costs, trace.rounds)
        # Servers on the busiest nodes, as after a few best responses: then
        # a migration's origin is often its cheapest candidate, which is
        # where a walk that masks occupied nodes too late stops.
        busiest = np.argsort(-np.bincount(batch.flat, minlength=n), kind="stable")
        idle = rng.choice(busiest[4:], size=2, replace=False)
        config = Configuration(tuple(busiest[:4].tolist()), tuple(idle.tolist()))
        active = np.asarray(config.active, dtype=np.int64)
        exact = batch.exact_access_cost

        small_epoch = dict(allow_add=False)
        large_epoch = dict(allow_migrate=False, allow_deactivate=False)
        for flags in (small_epoch, large_epoch):
            cache = make_cache(*config.inactive)
            for choice in enumerate_choices(batch, config, cache, costs, **flags):
                placement = described_placement(choice, active)
                assert choice.access == pytest.approx(exact(placement), rel=1e-12), (
                    choice
                )
                if choice.kind == "migrate":
                    rest = np.delete(active, choice.server)
                    best = min(
                        exact(np.append(rest, u))
                        for u in range(n)
                        if u not in config.occupied
                    )
                    assert choice.access == pytest.approx(best, rel=1e-12), choice


class TestApply:
    def test_stay_keeps_everything(self, path9, costs):
        config = Configuration((2,), (4,))
        batch = make_batch(path9, costs, [[0]])
        cache = make_cache(4)
        stay = next(
            c for c in enumerate_choices(batch, config, cache, costs) if c.kind == "stay"
        )
        assert apply_choice(stay, config, cache) == config

    def test_deactivate_pushes_to_cache(self, path9, costs):
        config = Configuration((2, 6))
        batch = make_batch(path9, costs, [[6]])
        cache = make_cache()
        deact = next(
            c
            for c in enumerate_choices(batch, config, cache, costs)
            if c.kind == "deactivate"
        )
        new_config = apply_choice(deact, config, cache)
        assert new_config.n_active == 1
        assert new_config.n_inactive == 1
        assert len(cache) == 1

    def test_activate_consumes_cache_entry(self, path9, costs):
        config = Configuration((2,), (4,))
        batch = make_batch(path9, costs, [[4, 4, 4]])
        cache = make_cache(4)
        activate = next(
            c
            for c in enumerate_choices(batch, config, cache, costs)
            if c.kind == "activate"
        )
        new_config = apply_choice(activate, config, cache)
        assert new_config.hosts_active(4)
        assert len(cache) == 0

    def test_best_choice_prefers_stay_on_tie(self, path9, costs):
        batch = make_batch(path9, costs, [])  # empty window: all access zero
        config = Configuration((2,))
        choices = enumerate_choices(batch, config, make_cache(), costs)
        # zero rounds: stay should win by priority over equal-cost options
        chosen = best_choice(choices, 0)
        assert chosen.kind == "stay"

    def test_best_choice_empty_raises(self):
        with pytest.raises(ValueError, match="no choices"):
            best_choice([], 1)
