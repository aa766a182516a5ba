"""Tests for the gather-backed evaluator and the round loop's two sources.

The round loop of :func:`repro.core.simulator.simulate` serves a policy's
epoch windows from one of two sources: windows over a shared
:class:`DistanceGather` (materialised traces under the element cap) or
standalone :class:`RequestBatch` windows (streaming and chunked traces,
and policies that decline the gather). The contract under test is
*bit-identity* between the two: every cost method of a GatherWindow must
equal the standalone window's floats exactly — not approximately — because
policy decisions argmin over these values and a single ULP can flip a
near-tie (the timezones scenario, with its heavily duplicated request
nodes, is the regression case that caught exactly that). A brute-force
oracle (``exact_access_cost`` of every candidate placement) pins what both
compute. ``tests/test_golden_ledgers.py`` pins the full ledgers.

Backend coverage: the pool and queue backends run the same
``_simulate_spec`` entry point as the serial backend, and their
bit-identity to serial is pinned by the existing execution/queue suites —
so the serial comparisons here transitively cover every backend.
"""

import numpy as np
import pytest

from repro.api.registry import resolve_policy
from repro.core import simulator
from repro.core.batch import DistanceGather, simulate_batched
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.load import QuadraticLoad
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.topology.substrate import Substrate
from repro.workload.base import Trace, generate_trace
from repro.workload.commuter import CommuterScenario, default_period_for
from repro.workload.timezones import TimeZoneScenario

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

POLICY_BUILDS = [
    ("onth", lambda: resolve_policy("onth")()),
    ("onbr", lambda: resolve_policy("onbr")()),
    ("onbr-dyn", lambda: resolve_policy("onbr")(dynamic_threshold=True)),
]


def assert_runs_identical(expected, actual, context=""):
    for field in LEDGER_FIELDS:
        a, b = getattr(expected, field), getattr(actual, field)
        assert np.array_equal(a, b), (
            f"{context}: ledger column {field!r} diverged at rounds "
            f"{np.nonzero(a != b)[0][:5]}"
        )


def make_trace(rounds):
    return Trace(
        tuple(np.asarray(r, dtype=np.int64) for r in rounds),
        scenario_name="test",
    )


def bypass_trace(rounds):
    """A Trace built around __post_init__ validation (simulating corrupt or
    hand-deserialised data) so downstream defense-in-depth layers can be
    exercised."""
    trace = object.__new__(Trace)
    object.__setattr__(
        trace, "rounds", tuple(np.asarray(r, dtype=np.int64) for r in rounds)
    )
    object.__setattr__(trace, "scenario_name", "bypass")
    object.__setattr__(trace, "metadata", {})
    return trace


def gathered_and_standalone(substrate, policy_build, trace, costs, **kwargs):
    """One run on a shared gather, one on standalone windows (streamed)."""
    gather = DistanceGather(substrate, costs, trace)
    gathered = simulate_batched(
        substrate, policy_build(), trace, costs,
        seed=np.random.default_rng(0), gather=gather, **kwargs,
    )
    standalone = simulate(
        substrate, policy_build(), iter(trace.rounds), costs,
        seed=np.random.default_rng(0), **kwargs,
    )
    return gathered, standalone, gather


# ---------------------------------------------------------------------------
# GatherWindow: bitwise equality with a standalone RequestBatch


def window_pair(substrate, costs, trace, t0, t1, gather=None):
    """A standalone RequestBatch and a GatherWindow over rounds [t0, t1)."""
    base = RequestBatch(substrate, costs, trace.rounds[t0:t1])
    gather = gather or DistanceGather(substrate, costs, trace)
    window = gather.new_window()
    for t in range(t1):
        if t == t0:
            window.clear()
        window.add_round(trace.rounds[t])
    return base, window


class TestGatherWindowBitIdentity:
    @pytest.mark.parametrize("trial", range(8))
    def test_all_cost_methods_uniform_strengths(self, trial):
        rng = np.random.default_rng([41, trial])
        n = 40
        sub = erdos_renyi(n=n, p=0.15, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(n)).generate(
            24, rng
        )
        t0 = int(rng.integers(0, 16))
        t1 = t0 + int(rng.integers(1, 8))
        base, window = window_pair(sub, costs, trace, t0, t1)
        k = int(rng.integers(1, 6))
        active = rng.choice(n, size=k, replace=False).astype(np.int64)
        self._assert_methods_equal(base, window, active)
        self._assert_matches_oracle(base, active, exact_everywhere=True)

    @pytest.mark.parametrize("trial", range(4))
    def test_all_cost_methods_nonuniform_strengths(self, trial):
        rng = np.random.default_rng([43, trial])
        n = 30
        er = erdos_renyi(n=n, p=0.2, seed=rng)
        sub = Substrate(n, er.links, strengths=rng.uniform(0.5, 2.0, n))
        costs = CostModel.paper_default(
            load=QuadraticLoad() if trial % 2 else CostModel().load
        )
        trace = CommuterScenario(sub, period=default_period_for(n)).generate(
            20, rng
        )
        base, window = window_pair(sub, costs, trace, 2, 2 + int(rng.integers(1, 6)))
        k = int(rng.integers(2, 5))
        active = rng.choice(n, size=k, replace=False).astype(np.int64)
        self._assert_methods_equal(base, window, active)
        self._assert_matches_oracle(base, active, exact_everywhere=False)

    @pytest.mark.parametrize("trial", range(4))
    def test_all_cost_methods_wide_windows(self, trial):
        # Windows of 30+ requests: numpy's pairwise summation only departs
        # from sequential order past 8 summands, so this is where a layout
        # mismatch between the two sources would show.
        rng = np.random.default_rng([47, trial])
        n = 40
        sub = erdos_renyi(n=n, p=0.15, seed=rng)
        costs = CostModel.paper_default()
        scenario = TimeZoneScenario(
            sub, period=4, sojourn=5, requests_per_round=10
        )
        trace = generate_trace(scenario, 16, rng)
        t0 = int(rng.integers(0, 8))
        base, window = window_pair(sub, costs, trace, t0, t0 + 3 + trial)
        active = rng.choice(n, size=3, replace=False).astype(np.int64)
        self._assert_methods_equal(base, window, active)
        self._assert_matches_oracle(base, active, exact_everywhere=True)

    @staticmethod
    def _assert_methods_equal(base, window, active):
        checks = [
            ("exact_access_cost", base.exact_access_cost(active),
             window.exact_access_cost(active)),
            ("base_latency", base.base_latency(active),
             window.base_latency(active)),
            ("removal_costs", base.removal_costs(active),
             window.removal_costs(active)),
            ("migration_costs_all", base.migration_costs_all(active),
             window.migration_costs_all(active)),
            ("migration_costs", base.migration_costs(active, 0),
             window.migration_costs(active, 0)),
            ("addition_costs", base.addition_costs(active),
             window.addition_costs(active)),
        ]
        for name, a, b in checks:
            assert np.array_equal(a, b), f"{name} not bit-identical"

    @staticmethod
    def _assert_matches_oracle(batch, active, exact_everywhere):
        """Every family against ``exact_access_cost`` of each candidate.

        Under an assignment-invariant load every entry is exact; otherwise
        non-argmin entries of the addition/migration families may stay
        lower bounds, but each family's argmin must be the exact minimum.
        """
        n = batch._substrate.n
        exact = batch.exact_access_cost

        def check_family(values, oracle):
            finite = np.isfinite(oracle)
            assert np.array_equal(np.isfinite(values), finite)
            if exact_everywhere:
                np.testing.assert_allclose(values[finite], oracle[finite], rtol=1e-12)
            else:
                assert np.all(values[finite] <= oracle[finite] * (1 + 1e-12))
                best = int(np.argmin(values))
                np.testing.assert_allclose(values[best], oracle[best], rtol=1e-12)
                np.testing.assert_allclose(values[best], oracle[finite].min(), rtol=1e-12)

        removal = batch.removal_costs(active)
        np.testing.assert_allclose(
            removal,
            [exact(np.delete(active, i)) for i in range(active.size)]
            if active.size > 1 else [np.inf],
            rtol=1e-12,
        )
        members = set(active.tolist())
        addition_oracle = np.asarray([
            exact(active if u in members else np.append(active, u))
            for u in range(n)
        ])
        check_family(batch.addition_costs(active), addition_oracle)
        migrations = batch.migration_costs_all(active)
        for i in range(active.size):
            rest = np.delete(active, i)
            oracle = np.asarray([
                np.inf if u in members else exact(np.append(rest, u))
                for u in range(n)
            ])
            check_family(migrations[i], oracle)

    def test_memoised_results_shared_between_windows(self):
        rng = np.random.default_rng(7)
        sub = erdos_renyi(n=20, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(20)).generate(
            6, rng
        )
        gather = DistanceGather(sub, costs, trace)
        _, w1 = window_pair(sub, costs, trace, 0, 3, gather)
        _, w2 = window_pair(sub, costs, trace, 0, 3, gather)
        active = np.array([1, 4], dtype=np.int64)
        first = w1.removal_costs(active)
        entries = len(gather._memo)
        assert entries  # sibling windows hit the shared memo
        assert np.array_equal(w2.removal_costs(active), first)
        assert len(gather._memo) == entries

    def test_memo_keeps_only_shared_families(self):
        # One-off exact scores (ONTH's quadratic-load shortlists issue
        # thousands) would grow the memo without ever being shared.
        rng = np.random.default_rng(8)
        sub = erdos_renyi(n=20, p=0.3, seed=rng)
        costs = CostModel.paper_default(load=QuadraticLoad())
        trace = CommuterScenario(sub, period=default_period_for(20)).generate(
            6, rng
        )
        gather = DistanceGather(sub, costs, trace)
        _, window = window_pair(sub, costs, trace, 0, 4, gather)
        active = np.array([1, 4, 9], dtype=np.int64)
        window.exact_access_cost(active)
        window.addition_costs(active)
        window.removal_costs(active)
        window.migration_costs_all(active)
        assert {key[0] for key in gather._memo} <= {"add", "rem", "mig"}

    def test_out_of_sync_window_raises(self):
        rng = np.random.default_rng(9)
        sub = erdos_renyi(n=10, p=0.4, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(10)).generate(
            4, rng
        )
        window = DistanceGather(sub, costs, trace).new_window()
        with pytest.raises(RuntimeError, match="out of sync"):
            window.add_round(np.array([1, 2, 3], dtype=np.int64))


# ---------------------------------------------------------------------------
# The round loop: gather-bound ledgers equal standalone-window ledgers


class TestSimulateBatchedIdentity:
    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    def test_commuter_ledgers_identical(self, name, build):
        rng = np.random.default_rng(11)
        sub = erdos_renyi(n=40, p=0.1, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(40)).generate(
            60, rng
        )
        gathered, standalone, gather = gathered_and_standalone(sub, build, trace, costs)
        assert gather.has_columns  # the policy really evaluated on the gather
        assert_runs_identical(standalone, gathered, f"commuter/{name}")

    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    def test_timezones_ledgers_identical(self, name, build):
        # Regression: timezones traces duplicate request nodes heavily, so
        # candidate costs tie to the ULP and any reduction-order drift
        # between the two window sources flips argmin targets (found via
        # fig05 goldens).
        rng = np.random.default_rng([0, 2])
        sub = erdos_renyi(n=30, p=0.2, seed=rng)
        costs = CostModel.paper_default()
        scenario = TimeZoneScenario(
            sub, sojourn=5, requests_per_round=10, period=4
        )
        trace = generate_trace(scenario, 80, rng)
        gathered, standalone, _ = gathered_and_standalone(sub, build, trace, costs)
        assert_runs_identical(standalone, gathered, f"timezones/{name}")

    def test_sibling_policies_share_one_gather(self):
        # The sweep path hands one gather to the whole trio; the shared
        # candidate-family memo must not leak one policy's epoch windows
        # into another's.
        rng = np.random.default_rng([0, 3])
        sub = erdos_renyi(n=30, p=0.2, seed=rng)
        costs = CostModel(migration=4.0, creation=40.0)
        scenario = TimeZoneScenario(
            sub, sojourn=5, requests_per_round=10, period=4
        )
        trace = generate_trace(scenario, 80, rng)
        gather = DistanceGather(sub, costs, trace)
        for name, build in POLICY_BUILDS:
            shared = simulate_batched(
                sub, build(), trace, costs, seed=0, gather=gather
            )
            alone = simulate(sub, build(), iter(trace.rounds), costs, seed=0)
            assert shared.total_migrations > 0
            assert_runs_identical(alone, shared, f"shared/{name}")

    def test_static_policy_identical(self):
        rng = np.random.default_rng(13)
        sub = erdos_renyi(n=25, p=0.2, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(25)).generate(
            30, rng
        )
        target = Configuration((sub.center,), ())
        gathered, standalone, gather = gathered_and_standalone(
            sub, lambda: resolve_policy("static")(target), trace, costs
        )
        assert not gather.has_columns  # routing alone never forces the gather
        assert_runs_identical(standalone, gathered, "static")

    def test_offline_policy_runs_on_its_own_windows(self):
        rng = np.random.default_rng(17)
        sub = erdos_renyi(n=15, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(15)).generate(
            16, rng
        )
        gathered, standalone, gather = gathered_and_standalone(
            sub, resolve_policy("offstat"), trace, costs
        )
        assert not gather.has_columns and not gather._memo
        assert_runs_identical(standalone, gathered, "offstat")

    def test_non_opting_policy_falls_back(self):
        rng = np.random.default_rng(19)
        sub = erdos_renyi(n=15, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(15)).generate(
            12, rng
        )
        gathered, standalone, gather = gathered_and_standalone(
            sub, resolve_policy("onconf"), trace, costs
        )
        assert not gather.has_columns
        assert_runs_identical(standalone, gathered, "onconf")

    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    def test_chunked_trace_matches_one_gather(self, name, build, monkeypatch):
        # A materialised trace over the element cap is read in chunks, with
        # the policy on its own windows; chunk boundaries must not show.
        rng = np.random.default_rng(21)
        sub = erdos_renyi(n=30, p=0.15, seed=rng)
        costs = CostModel.paper_default(load=QuadraticLoad())
        trace = CommuterScenario(sub, period=default_period_for(30)).generate(
            50, rng
        )
        whole = simulate(sub, build(), trace, costs, seed=0)
        monkeypatch.setattr(simulator, "_GATHER_ELEMS_MAX", 0)
        monkeypatch.setattr(simulator, "_CHUNK_ROUNDS", 7)
        chunked = simulate(sub, build(), trace, costs, seed=0)
        assert_runs_identical(whole, chunked, f"chunked/{name}")

    def test_mismatched_gather_raises(self):
        rng = np.random.default_rng(23)
        sub = erdos_renyi(n=12, p=0.3, seed=rng)
        other = erdos_renyi(n=12, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(12)).generate(
            8, rng
        )
        gather = DistanceGather(other, costs, trace)
        with pytest.raises(ValueError, match="different substrate"):
            simulate_batched(
                sub, resolve_policy("onth")(), trace, costs, gather=gather
            )
        other_trace = make_trace(trace.rounds)
        with pytest.raises(ValueError, match="different trace"):
            simulate_batched(
                sub, resolve_policy("onth")(), other_trace, costs,
                gather=DistanceGather(sub, costs, trace),
            )


# ---------------------------------------------------------------------------
# Negative-index validation (the bugfix satellites)


class _CountingOnTH(resolve_policy("onth")):
    def __init__(self):
        super().__init__()
        self.decisions = 0

    def decide(self, t, requests, routing):
        self.decisions += 1
        return super().decide(t, requests, routing)


class TestNegativeIndexValidation:
    def evil_trace(self):
        return bypass_trace([[0, 1], [2, -4]])

    def substrate(self):
        return erdos_renyi(n=8, p=0.5, seed=np.random.default_rng(1))

    def test_trace_constructor_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node"):
            make_trace([[0, -3]])

    def test_scalar_simulate_rejects_negative_nodes(self):
        # The chunk gather validates every round before the policy plays
        # any of them — so numpy fancy indexing never gets to wrap the
        # index to the last node, materialised input or streaming.
        policy = _CountingOnTH()
        with pytest.raises(ValueError, match="trace references negative node -4"):
            simulate(self.substrate(), policy, self.evil_trace())
        assert policy.decisions == 0

    def test_scalar_simulate_rejects_negative_nodes_streaming(self):
        rounds = [np.array([0, 1]), np.array([2, -4])]
        policy = _CountingOnTH()
        with pytest.raises(ValueError, match="negative node -4"):
            simulate(self.substrate(), policy, iter(rounds))
        assert policy.decisions == 0

    def test_batched_simulate_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node -4"):
            simulate_batched(
                self.substrate(), resolve_policy("onth")(), self.evil_trace()
            )

    def test_gather_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node"):
            DistanceGather(
                self.substrate(), CostModel.paper_default(), self.evil_trace()
            )

    def test_check_config_rejects_bypassed_negative_config(self):
        # Configuration validates on construction, so a buggy policy can
        # only smuggle a negative node through by bypassing __init__; the
        # round loop's _check_config is the backstop.
        from repro.core.simulator import _check_config

        config = object.__new__(Configuration)
        object.__setattr__(config, "active", (-2, 3))
        object.__setattr__(config, "inactive", ())
        with pytest.raises(ValueError, match="negative node"):
            _check_config(config, self.substrate(), None, t=0)

    def test_route_requests_rejects_negative_request(self):
        sub = self.substrate()
        with pytest.raises(ValueError, match="negative node index -1"):
            from repro.core.routing import route_requests

            route_requests(
                sub, [0], np.array([2, -1]), CostModel.paper_default()
            )

    def test_route_requests_rejects_negative_server(self):
        sub = self.substrate()
        from repro.core.routing import route_requests

        with pytest.raises(ValueError, match="negative server node -3"):
            route_requests(
                sub, np.array([-3]), np.array([2]), CostModel.paper_default()
            )
