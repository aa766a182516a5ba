"""Streaming traces: laziness must never change a single bit.

The contract under test: every scenario streamed through
:class:`StreamingTrace` produces ledgers bit-identical to the materialised
:class:`Trace`, from the simulate() level up through declarative sweeps on
every execution backend — laziness is an implementation detail, not a
result change.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    OnTH,
    Opt,
    PolicySpec,
    ProcessPoolBackend,
    QueueBackend,
    ResultCache,
    ScenarioSpec,
    StreamingScenario,
    StreamingTrace,
    SweepSpec,
    TopologySpec,
    simulate,
)
from repro.api.specs import ExperimentSpec
from repro.api.experiment import run_sweep
from repro.api.registry import resolve_scenario
from repro.workload.base import Trace, as_trace, generate_trace, stream_rounds

DATA = Path(__file__).parent / "data"

#: Every registered scenario exercised for stream/generate bit-identity,
#: with small-substrate-safe parameters.
SCENARIOS = [
    ("commuter", {"period": 4, "sojourn": 2}),
    ("commuter-static", {"period": 4, "sojourn": 2}),
    ("timezones", {"period": 3, "sojourn": 2, "requests_per_round": 4}),
    ("mobility", {"n_users": 6, "mean_sojourn": 3.0}),
    ("gamma", {"rate": 4.0, "cv": 1.5, "burst_length": 3}),
    ("gamma", {"rate": 4.0, "cv": 1.5, "concentration": 0.5}),
    ("flashcrowd", {"event_rate": 0.3, "peak": 10.0, "ramp": 2}),
    ("diurnal", {"n_regions": 2, "day_length": 6}),
    (
        "overlay",
        {
            "parts": [
                {"kind": "commuter", "params": {"period": 4, "sojourn": 2}},
                {"kind": "gamma", "params": {"rate": 2.0, "cv": 1.0}},
            ]
        },
    ),
    (
        "streaming",
        {"scenario": "timezones", "params": {"period": 3, "sojourn": 2}},
    ),
]


def assert_runs_equal(a, b):
    assert a.policy_name == b.policy_name
    assert a.scenario_name == b.scenario_name
    for name in (
        "latency_cost", "load_cost", "running_cost", "migration_cost",
        "creation_cost", "migrations", "creations", "n_active",
        "n_inactive", "n_requests",
    ):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


class TestStreamingTrace:
    def test_len_and_reiterable(self, line5):
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        st = StreamingTrace(scenario, 12, seed=9)
        assert len(st) == 12
        first = [arr.copy() for arr in st]
        second = list(st)  # same seed replayed => identical rounds
        assert len(first) == len(second) == 12
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_rejects_generator_seed(self, line5):
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        with pytest.raises(TypeError, match="replayable"):
            StreamingTrace(scenario, 5, seed=np.random.default_rng(0))

    def test_rejects_negative_horizon(self, line5):
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        with pytest.raises(ValueError, match="horizon"):
            StreamingTrace(scenario, -1, seed=0)

    def test_none_seed_drawn_once(self, line5):
        scenario = resolve_scenario("timezones")(line5, period=3, sojourn=2)
        st = StreamingTrace(scenario, 8, seed=None)
        for a, b in zip(list(st), list(st)):
            np.testing.assert_array_equal(a, b)

    def test_short_stream_detected(self, line5):
        class Short:
            scenario_name = "short"

            def stream(self, horizon, rng):
                yield np.array([0])  # one round regardless of horizon

        with pytest.raises(RuntimeError, match="streamed 1 rounds"):
            list(StreamingTrace(Short(), 3, seed=0))

    def test_invalid_rounds_detected(self, line5):
        class Bad:
            scenario_name = "bad"

            def stream(self, horizon, rng):
                yield np.array([[0, 1]])

        with pytest.raises(ValueError, match="1-D"):
            list(StreamingTrace(Bad(), 1, seed=0))

    def test_no_max_node_attribute(self, line5):
        # the simulator keys per-round bound checking on its absence
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        st = StreamingTrace(scenario, 4, seed=0)
        assert not hasattr(st, "max_node")

    def test_total_requests_matches_materialised(self, line5):
        scenario = resolve_scenario("mobility")(line5, n_users=5)
        st = StreamingTrace(scenario, 10, seed=3)
        assert st.total_requests == st.materialize().total_requests

    def test_out_of_range_nodes_raise_in_simulate(self, line5):
        class TooBig:
            scenario_name = "toobig"

            def stream(self, horizon, rng):
                for _ in range(horizon):
                    yield np.array([99])

        st = StreamingTrace(TooBig(), 3, seed=0)
        with pytest.raises(ValueError, match="references node 99"):
            simulate(line5, OnTH(), st)


class TestAsTrace:
    def test_trace_passthrough(self, tiny_trace):
        assert as_trace(tiny_trace) is tiny_trace

    def test_streaming_materialises(self, line5):
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        st = StreamingTrace(scenario, 6, seed=1)
        trace = as_trace(st)
        assert isinstance(trace, Trace)
        for a, b in zip(trace, st):
            np.testing.assert_array_equal(a, b)

    def test_plain_iterable(self):
        trace = as_trace([np.array([1]), np.array([0, 2])])
        assert isinstance(trace, Trace)
        assert len(trace) == 2

    def test_requires_full_trace_flags(self):
        assert OnTH.requires_full_trace is False
        assert Opt.requires_full_trace is True


class TestBitIdentity:
    @pytest.mark.parametrize("kind,params", SCENARIOS)
    def test_stream_equals_generate(self, er30, kind, params):
        scenario = resolve_scenario(kind)(er30, **params)
        eager = scenario.generate(20, np.random.default_rng(42))
        lazy = list(stream_rounds(scenario, 20, np.random.default_rng(42)))
        assert len(lazy) == len(eager) == 20
        for a, b in zip(eager, lazy):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind,params", SCENARIOS)
    def test_streaming_ledger_equals_materialised(self, er30, kind, params):
        scenario = resolve_scenario(kind)(er30, **params)
        st = StreamingTrace(scenario, 20, seed=7, scenario_name="s")
        mat = st.materialize()
        assert_runs_equal(
            simulate(er30, OnTH(), st, seed=5),
            simulate(er30, OnTH(), mat, seed=5),
        )

    def test_offline_policy_on_streaming_input(self, line5):
        scenario = resolve_scenario("timezones")(
            line5, period=3, sojourn=2, requests_per_round=2
        )
        st = StreamingTrace(scenario, 12, seed=11)
        assert_runs_equal(
            simulate(line5, Opt(), st, seed=0),
            simulate(line5, Opt(), st.materialize(), seed=0),
        )

    def test_opt_solve_accepts_streaming(self, line5):
        scenario = resolve_scenario("commuter")(line5, period=4, sojourn=2)
        st = StreamingTrace(scenario, 10, seed=2)
        lazy_cost, _ = Opt.solve(line5, st)
        eager_cost, _ = Opt.solve(line5, st.materialize())
        assert lazy_cost == eager_cost


def streaming_spec(materialize: bool, queue_path=None) -> SweepSpec:
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("line", {"n": 5}),
            scenario=ScenarioSpec(
                "streaming",
                {
                    "scenario": "timezones",
                    "params": {"period": 3, "sojourn": 2, "requests_per_round": 3},
                    "materialize": materialize,
                },
            ),
            policies=(PolicySpec("onth"), PolicySpec("onbr")),
            horizon=24,
        ),
        parameter="scenario.params.sojourn",
        values=(2, 4),
        runs=2,
        seed=123,
    )


class TestSpecLevelIdentity:
    """The registered 'streaming' wrapper: lazy == materialised == every
    backend, because both variants consume exactly one seed draw."""

    def test_generate_consumes_one_draw_each(self, line5):
        inner = resolve_scenario("timezones")(line5, period=3, sojourn=2)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        lazy = StreamingScenario(inner, materialize=False).generate(10, rng_a)
        eager = StreamingScenario(inner, materialize=True).generate(10, rng_b)
        assert isinstance(lazy, StreamingTrace)
        assert isinstance(eager, Trace)
        for a, b in zip(lazy, eager):
            np.testing.assert_array_equal(a, b)
        # both rngs advanced identically => downstream draws stay aligned
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_generate_trace_accepts_streaming_result(self, line5):
        scenario = resolve_scenario("streaming")(
            line5, scenario="commuter", params={"period": 4, "sojourn": 2}
        )
        st = generate_trace(scenario, 9, seed=4)
        assert isinstance(st, StreamingTrace)
        assert len(st) == 9

    def test_lazy_equals_materialised_sweep(self):
        lazy = run_sweep(streaming_spec(materialize=False))
        eager = run_sweep(streaming_spec(materialize=True))
        assert lazy.to_dict() == eager.to_dict()

    def test_serial_equals_pool_equals_queue(self, tmp_path):
        spec = streaming_spec(materialize=False)
        serial = run_sweep(spec)
        pool = run_sweep(spec, backend=ProcessPoolBackend(2))
        queue = run_sweep(
            spec,
            backend=QueueBackend(tmp_path / "queue.db"),
            cache=ResultCache(tmp_path / "queue-cache"),
        )
        assert serial.to_dict() == pool.to_dict()
        assert serial.to_dict() == queue.to_dict()

    def test_golden_streaming_sweep_pinned(self):
        """One streaming sweep pinned bit-for-bit (see golden_traces.json)."""
        entry = json.loads((DATA / "golden_traces.json").read_text())
        result = run_sweep(streaming_spec(materialize=False))
        assert result.to_dict() == entry["streaming_sweep"]

    def test_params_and_inline_kwargs_conflict(self, line5):
        with pytest.raises(ValueError, match="params"):
            resolve_scenario("streaming")(
                line5, scenario="commuter", params={"sojourn": 2}, sojourn=3
            )
