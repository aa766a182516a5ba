"""Tests for vectorised candidate evaluation (repro.core.evaluation).

The key contract: the fast family evaluators agree with brute-force
round-by-round routing through ``route_requests``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import evaluation
from repro.core.costs import CostModel
from repro.core.evaluation import DistanceGather, RequestBatch
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.routing import route_requests
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate


def brute_force_access(substrate, costs, rounds, active):
    total = 0.0
    for requests in rounds:
        total += route_requests(substrate, active, requests, costs).access_cost
    return total


@pytest.fixture
def sub():
    return erdos_renyi(15, p=0.3, seed=11)


@pytest.fixture
def rounds():
    rng = np.random.default_rng(5)
    return [rng.integers(0, 15, size=rng.integers(1, 8)) for _ in range(6)]


class TestAccumulation:
    def test_counts(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        assert batch.n_rounds == 6
        assert batch.total_requests == sum(len(r) for r in rounds)

    def test_clear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        batch.clear()
        assert batch.n_rounds == 0
        assert batch.total_requests == 0

    def test_round_ids_align(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        ids = batch.round_ids
        assert ids.size == batch.total_requests
        for t, requests in enumerate(rounds):
            assert (ids == t).sum() == len(requests)


class TestExactAccessCost:
    def test_matches_brute_force_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        for active in ([0], [3, 7], [1, 5, 9]):
            fast = batch.exact_access_cost(np.asarray(active))
            slow = brute_force_access(sub, costs, rounds, active)
            assert fast == pytest.approx(slow)

    def test_matches_brute_force_quadratic(self, sub, rounds):
        cm = CostModel.paper_default(load=QuadraticLoad())
        batch = RequestBatch(sub, cm, rounds)
        for active in ([2], [0, 8], [4, 6, 12]):
            fast = batch.exact_access_cost(np.asarray(active))
            slow = brute_force_access(sub, cm, rounds, active)
            assert fast == pytest.approx(slow)

    def test_includes_wireless_hop(self, sub, rounds):
        cm = CostModel.paper_default(wireless_hop=2.0)
        batch = RequestBatch(sub, cm, rounds)
        base = CostModel.paper_default()
        plain = RequestBatch(sub, base, rounds)
        diff = batch.exact_access_cost([0]) - plain.exact_access_cost([0])
        assert diff == pytest.approx(2.0 * batch.total_requests)

    def test_empty_batch_is_zero(self, sub, costs):
        assert RequestBatch(sub, costs).exact_access_cost([1]) == 0.0

    def test_no_servers_raises(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        with pytest.raises(ValueError, match="zero active servers"):
            batch.exact_access_cost(np.zeros(0, dtype=np.int64))


class TestAdditionCosts:
    def test_entries_match_exact_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([3, 7])
        vector = batch.addition_costs(active)
        for u in range(sub.n):
            if u in (3, 7):
                expected = batch.exact_access_cost(active)
            else:
                expected = batch.exact_access_cost(np.append(active, u))
            assert vector[u] == pytest.approx(expected), f"node {u}"

    def test_argmin_valid_for_quadratic_shortlist(self, sub, rounds):
        """For convex load the argmin must match exhaustive search."""
        cm = CostModel.paper_default(load=QuadraticLoad())
        batch = RequestBatch(sub, cm, rounds)
        active = np.asarray([3, 7])
        vector = batch.addition_costs(active)
        best = int(np.argmin(vector))
        exhaustive = {
            u: batch.exact_access_cost(np.append(active, u))
            for u in range(sub.n)
            if u not in (3, 7)
        }
        true_best = min(exhaustive, key=exhaustive.get)
        assert exhaustive[best] == pytest.approx(exhaustive[true_best])

    def test_from_empty_active_set(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        vector = batch.addition_costs(np.zeros(0, dtype=np.int64))
        for u in (0, 5, 11):
            assert vector[u] == pytest.approx(batch.exact_access_cost([u]))

    def test_empty_batch_returns_zeros(self, sub, costs):
        vector = RequestBatch(sub, costs).addition_costs(np.asarray([1]))
        np.testing.assert_array_equal(vector, np.zeros(sub.n))


class TestRemovalCosts:
    def test_matches_exact(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([1, 6, 10])
        vector = batch.removal_costs(active)
        for i in range(3):
            expected = batch.exact_access_cost(np.delete(active, i))
            assert vector[i] == pytest.approx(expected)

    def test_singleton_returns_inf(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        vector = batch.removal_costs(np.asarray([4]))
        assert np.isinf(vector).all()


class TestMigrationCosts:
    def test_matches_exact_linear(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        active = np.asarray([2, 9])
        for i in range(2):
            vector = batch.migration_costs(active, i)
            rest = np.delete(active, i)
            for u in range(sub.n):
                if u in active:
                    assert np.isinf(vector[u])
                else:
                    expected = batch.exact_access_cost(np.append(rest, u))
                    assert vector[u] == pytest.approx(expected), f"server {i}->node {u}"

    def test_index_out_of_range(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        with pytest.raises(IndexError):
            batch.migration_costs(np.asarray([1]), 3)

    def test_occupied_targets_masked_on_every_path(self, sub, costs, rounds):
        quadratic = CostModel.paper_default(load=QuadraticLoad())
        active, cached = np.asarray([2, 9]), np.asarray([4])
        for cost_model, window in (
            (costs, rounds), (quadratic, rounds), (costs, []), (quadratic, []),
        ):
            batch = RequestBatch(sub, cost_model, window)
            families = batch.migration_costs_all(active, cached)
            assert np.isinf(families[:, [2, 9, 4]]).all()
            assert np.isfinite(np.delete(families, [2, 4, 9], axis=1)).all()
            for i in range(2):
                row = batch.migration_costs(active, i, cached)
                assert np.array_equal(row, families[i])

    def test_single_server_migration(self, sub, costs, rounds):
        batch = RequestBatch(sub, costs, rounds)
        vector = batch.migration_costs(np.asarray([5]), 0)
        for u in (0, 8):
            assert vector[u] == pytest.approx(batch.exact_access_cost([u]))


@settings(max_examples=25, deadline=None)
@given(
    active=st.sets(st.integers(0, 9), min_size=1, max_size=4),
    seed=st.integers(0, 100),
    n_rounds=st.integers(1, 5),
)
def test_addition_never_increases_access(active, seed, n_rounds):
    """Adding any server can only reduce (or keep) nearest-latency access cost."""
    sub = line(10, seed=0)
    cm = CostModel.paper_default()
    rng = np.random.default_rng(seed)
    rounds = [rng.integers(0, 10, size=4) for _ in range(n_rounds)]
    batch = RequestBatch(sub, cm, rounds)
    active_arr = np.asarray(sorted(active))
    base = batch.exact_access_cost(active_arr)
    vector = batch.addition_costs(active_arr)
    assert (vector <= base + 1e-9).all()


class ScriptedScores(RequestBatch):
    """A RequestBatch whose block scorer returns fixed exact values."""

    def __init__(self, exact_values):
        super().__init__(line(3, seed=0), CostModel.paper_default(), [])
        self.exact_values = exact_values
        self.scored = []

    def _score_block(self, base, us):
        self.scored.extend(us.tolist())
        return self.exact_values[us]


def one_at_a_time_walk(bound, exact_values, shortlist=8):
    """Reference walk: score the shortlist, then the argmin until it is exact."""
    result = bound.copy()
    scored = np.zeros(result.size, dtype=bool)
    for u in np.argsort(result, kind="stable")[:shortlist]:
        if np.isfinite(result[u]):
            result[u] = exact_values[u]
            scored[u] = True
    while True:
        best = int(np.argmin(result))
        if scored[best] or not np.isfinite(result[best]):
            return result
        result[best] = exact_values[best]
        scored[best] = True


def masked_bounds(bounds, gaps, masked):
    size = min(len(bounds), len(gaps))
    bound = np.asarray(bounds[:size], dtype=np.float64)
    exact_values = bound + np.asarray(gaps[:size], dtype=np.float64)
    mask = np.asarray([i in masked for i in range(size)])
    if mask.all():
        mask[0] = False
    bound[mask] = np.inf
    return bound, exact_values, mask


@settings(max_examples=40, deadline=None)
@given(
    bounds=st.lists(
        st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=40
    ),
    gaps=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=40
    ),
    masked=st.sets(st.integers(0, 39)),
)
def test_lazy_exact_argmin_bound_soundness(bounds, gaps, masked):
    """The argmin entry of _lazy_exact_argmin is the true exact minimum.

    Sound whenever bound[u] <= exact(u): the returned array's argmin must be
    exactly scored and no candidate's exact value may undercut it, even when
    the bounds order candidates very differently from their exact values.
    Infinite entries (masked candidates) must never be scored.
    """
    bound, exact_values, mask = masked_bounds(bounds, gaps, masked)
    batch = ScriptedScores(exact_values)
    result = batch._lazy_exact_argmin(bound.copy(), np.zeros(0, dtype=np.int64))

    best = int(np.argmin(result))
    assert best in batch.scored  # the winner was exactly scored
    assert result[best] == exact_values[best]
    finite = ~mask
    assert result[best] <= exact_values[finite].min() + 1e-12
    assert not mask[batch.scored].any(), "scored a masked (infinite-bound) candidate"


@settings(max_examples=150, deadline=None)
@given(
    bounds=st.lists(st.integers(0, 12), min_size=1, max_size=120),
    gaps=st.lists(st.integers(0, 6), min_size=1, max_size=120),
    masked=st.sets(st.integers(0, 119)),
)
def test_block_walk_matches_one_at_a_time_walk(bounds, gaps, masked):
    """Blocks of 8, 16, 32, ... stop where the one-at-a-time walk stops.

    Small integer bounds and gaps make ties common, where argmin's
    first-index rule decides the winner.
    """
    bound, exact_values, _ = masked_bounds(bounds, gaps, masked)
    reference = one_at_a_time_walk(bound, exact_values)
    result = ScriptedScores(exact_values)._lazy_exact_argmin(
        bound.copy(), np.zeros(0, dtype=np.int64)
    )
    assert int(np.argmin(result)) == int(np.argmin(reference))
    assert result.min() == reference.min()


def _score_sources(substrate, costs, rounds, t0):
    """A standalone RequestBatch and a GatherWindow over ``rounds[t0:]``."""
    batch = RequestBatch(substrate, costs, rounds[t0:])
    window = DistanceGather(substrate, costs, rounds).new_window()
    for t, requests in enumerate(rounds):
        if t == t0:
            window.clear()
        window.add_round(requests)
    return batch, window


@settings(max_examples=60, deadline=None)
@given(
    graph=st.sampled_from(["line", "erdos_renyi"]),
    load=st.sampled_from(["linear-nonuniform", "quadratic", "quadratic-nonuniform"]),
    seed=st.integers(0, 2**16),
    n_rounds=st.integers(1, 6),
    max_requests=st.integers(0, 12),
    k=st.integers(0, 4),
    t0=st.integers(0, 2),
)
def test_score_block_bit_identical_to_oracle(
    graph, load, seed, n_rounds, max_requests, k, t0
):
    """_score_block equals exact_access_cost(base ∪ {u}) with ==, not approx.

    Integer-weight line graphs make distances tie; rounds may be empty and
    ``base`` may be empty (a single-server migration).
    """
    rng = np.random.default_rng(seed)
    n = 12
    if graph == "line":
        topo = line(n, seed=rng)  # unit latencies: heavy ties
    else:
        topo = erdos_renyi(n, p=0.3, seed=rng)
    strengths = (
        rng.uniform(0.5, 2.0, n) if load.endswith("nonuniform") else np.ones(n)
    )
    sub = Substrate(n, topo.links, strengths=strengths)
    costs = CostModel.paper_default(
        load=LinearLoad() if load.startswith("linear") else QuadraticLoad()
    )
    rounds = [
        rng.integers(0, n, size=rng.integers(0, max_requests + 1))
        for _ in range(n_rounds + t0)
    ]
    base = rng.choice(n, size=k, replace=False).astype(np.int64)
    us = rng.permutation(n).astype(np.int64)
    for batch in _score_sources(sub, costs, rounds, t0):
        scores = batch._score_block(base, us)
        for j, u in enumerate(us):
            assert scores[j] == batch.exact_access_cost(np.append(base, u)), (
                type(batch).__name__, int(u)
            )


def test_score_block_bit_identical_on_a_wide_window():
    """Past numpy's 8192-element buffer the row sums still match the oracle."""
    rng = np.random.default_rng(3)
    n = 20
    er = erdos_renyi(n, p=0.3, seed=rng)
    sub = Substrate(n, er.links, strengths=rng.uniform(0.5, 2.0, n))
    costs = CostModel.paper_default(load=QuadraticLoad())
    rounds = [rng.integers(0, n, size=3000) for _ in range(4)]
    base = np.asarray([2, 11, 17], dtype=np.int64)
    us = np.arange(n, dtype=np.int64)
    for batch in _score_sources(sub, costs, rounds, 0):
        scores = batch._score_block(base, us)
        for j, u in enumerate(us):
            assert scores[j] == batch.exact_access_cost(np.append(base, u))


def test_score_block_chunked_pass_matches_oracle(monkeypatch):
    """A block split into row chunks (the memory cap) scores the same."""
    monkeypatch.setattr(evaluation, "_BLOCK_ELEMS_MAX", 64)
    rng = np.random.default_rng(4)
    sub = erdos_renyi(15, p=0.3, seed=11)
    costs = CostModel.paper_default(load=QuadraticLoad())
    batch = RequestBatch(sub, costs, [rng.integers(0, 15, size=20) for _ in range(3)])
    base = np.asarray([1, 8], dtype=np.int64)
    us = np.arange(15, dtype=np.int64)
    scores = batch._score_block(base, us)
    for j, u in enumerate(us):
        assert scores[j] == batch.exact_access_cost(np.append(base, u))


@settings(max_examples=25, deadline=None)
@given(
    active=st.sets(st.integers(0, 14), min_size=1, max_size=4),
    seed=st.integers(0, 50),
)
def test_addition_argmin_exact_for_convex_load(active, seed):
    """For the non-invariant QuadraticLoad, addition_costs' argmin entry must
    equal the exact access cost of that candidate and undercut all others —
    the lazy-shortlist refinement may leave other entries as lower bounds."""
    sub = erdos_renyi(15, p=0.3, seed=11)
    cm = CostModel.paper_default(load=QuadraticLoad())
    rng = np.random.default_rng(seed)
    rounds = [rng.integers(0, 15, size=rng.integers(1, 6)) for _ in range(4)]
    batch = RequestBatch(sub, cm, rounds)
    active_arr = np.asarray(sorted(active), dtype=np.int64)
    vector = batch.addition_costs(active_arr)
    best = int(np.argmin(vector))

    def exact_with(u):
        if u in set(active_arr.tolist()):
            return batch.exact_access_cost(active_arr)
        return batch.exact_access_cost(np.append(active_arr, u))

    assert vector[best] == pytest.approx(exact_with(best))
    brute_best = min(exact_with(u) for u in range(15))
    assert vector[best] == pytest.approx(brute_best)
