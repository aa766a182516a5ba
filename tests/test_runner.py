"""Tests for the sweep engine (repro.experiments.runner)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.api.execution import SerialBackend
from repro.api.experiment import run_sweep
from repro.experiments.runner import (
    FigureResult,
    PointSchedule,
    SeriesValidator,
    _run_batched,
    aggregate_samples,
    spawn_tasks,
)


class TestFigureResult:
    def make(self):
        return FigureResult(
            figure="figX",
            title="test",
            x_label="x",
            x_values=(1, 2, 3),
            series={"a": (1.0, 2.0, 3.0), "b": (9.0, 8.0, 7.0)},
            errors={"a": (0.1, 0.1, 0.1)},
        )

    def test_accessors(self):
        result = self.make()
        assert result.y("a") == (1.0, 2.0, 3.0)
        assert result.series_names == ("a", "b")

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError, match="values"):
            FigureResult("f", "t", "x", (1, 2), {"a": (1.0,)})

    def test_unknown_error_series_rejected(self):
        with pytest.raises(ValueError, match="unknown series"):
            FigureResult(
                "f", "t", "x", (1,), {"a": (1.0,)}, errors={"zzz": (0.0,)}
            )

    def test_misaligned_errors_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            FigureResult(
                "f", "t", "x", (1,), {"a": (1.0,)}, errors={"a": (0.0, 0.0)}
            )


def batched_sweep(x_values, replicate, runs, seed, backend=None, notes=""):
    """One sweep through the engine's primitives, as ``_fill_points`` runs it:
    seeded tasks, one :func:`_run_batched` batch under a
    :class:`SeriesValidator`, then :func:`aggregate_samples`."""
    tasks = spawn_tasks(x_values, runs, seed)
    samples = []
    _run_batched(
        backend if backend is not None else SerialBackend(),
        replicate,
        [(tasks, samples.extend)],
        SeriesValidator(runs),
    )
    return aggregate_samples(
        "f", "t", "x", x_values, samples, runs, notes=notes
    )


class TestSweepExperiment:
    """The replicate batch runner and aggregation behind every sweep."""

    def test_averages_across_runs(self):
        def replicate(x, rng):
            return {"y": float(x) * 10 + rng.normal(0, 0.001)}

        result = batched_sweep([1, 2, 3], replicate, runs=5, seed=0)
        np.testing.assert_allclose(result.y("y"), [10, 20, 30], atol=0.01)
        assert all(e < 0.01 for e in result.errors["y"])

    def test_deterministic_given_seed(self):
        a = run_sweep(_engine_sweep(seed=9))
        b = run_sweep(_engine_sweep(seed=9))
        assert a.series == b.series

    def test_different_seeds_differ(self):
        a = run_sweep(_engine_sweep(seed=1))
        b = run_sweep(_engine_sweep(seed=2))
        assert a.series != b.series

    def test_replicates_get_independent_rngs(self):
        seen = []

        def replicate(x, rng):
            seen.append(float(rng.random()))
            return {"y": 0.0}

        batched_sweep([1], replicate, runs=4, seed=0)
        assert len(set(seen)) == 4

    def test_single_run_has_zero_stderr(self):
        result = batched_sweep([5], lambda x, rng: {"y": 1.0}, runs=1, seed=0)
        assert result.errors["y"] == (0.0,)

    def test_inconsistent_series_keys_rejected(self):
        def replicate(x, rng):
            return {"a": 1.0} if x == 1 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            batched_sweep([1, 2], replicate, runs=1, seed=0)

    def test_inconsistent_keys_within_first_point_rejected(self):
        """Ragged replicates inside the *first* sweep point must fail too,
        not merge silently into misaligned series."""
        samples = iter([{"a": 1.0}, {"a": 1.0, "b": 2.0}])

        def replicate(x, rng):
            return next(samples)

        with pytest.raises(RuntimeError, match="series"):
            batched_sweep([1], replicate, runs=2, seed=0)

    def test_serial_ragged_series_fails_fast(self):
        """A serial sweep aborts at the offending replicate, not after
        burning through every remaining sweep point."""
        calls = []

        def replicate(x, rng):
            calls.append(x)
            return {"a": 1.0} if x < 3 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            batched_sweep([1, 2, 3, 4, 5], replicate, runs=1, seed=0)
        assert calls == [1, 2, 3]  # replicates after the bad one never ran

    def test_backend_ignoring_on_result_still_validated(self):
        """The backstop pass catches ragged series from third-party backends
        that never invoke the result hook."""
        from repro.api.execution import ExecutionBackend

        class SilentBackend(ExecutionBackend):
            def run_replicates(self, replicate, tasks, on_result=None):
                return [replicate(t.x, np.random.default_rng(t.seed))
                        for t in tasks]  # on_result deliberately ignored

        def replicate(x, rng):
            return {"a": 1.0} if x == 1 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            batched_sweep(
                [1, 2], replicate, runs=1, seed=0, backend=SilentBackend()
            )

    def test_hook_driven_sweep_skips_backstop_revalidation(self):
        """When the backend invoked on_result for every task, the key-set
        check runs exactly once per replicate — no duplicate backstop pass.

        The validation is the only consumer of the sample's iteration
        protocol (``set(sample)``); aggregation uses ``.items()``. Counting
        ``__iter__`` calls therefore counts validation passes.
        """

        class CountedSeries(dict):
            validations = 0

            def __iter__(self):
                CountedSeries.validations += 1
                return super().__iter__()

        batched_sweep(
            [1, 2], lambda x, rng: CountedSeries({"y": float(x)}),
            runs=2, seed=0,
        )
        assert CountedSeries.validations == 4  # one per replicate, not two

    def test_to_dict_round_trip(self):
        result = batched_sweep(
            [1, 2], lambda x, rng: {"y": float(x)}, runs=2, seed=0, notes="n"
        )
        rebuilt = FigureResult.from_dict(result.to_dict())
        assert rebuilt.series == result.series
        assert rebuilt.errors == result.errors
        assert rebuilt.x_values == result.x_values
        assert rebuilt.notes == "n"

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError, match="runs"):
            spawn_tasks([1], 0, seed=0)
        with pytest.raises(ValueError, match="runs"):
            _engine_sweep(runs=0)

    def test_notes_carried(self):
        result = run_sweep(_engine_sweep(notes="hello"))
        assert result.notes == "hello"


def _engine_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 20}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=20,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=0,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _samples(values):
    return [{"y": float(v)} for v in values]


#: Targets every two-replicate block meets, and none that varies can.
LOOSE = ReplicationSpec(ci_level=0.9, target_halfwidth=1e12, max_runs=10)
NEVER = ReplicationSpec(ci_level=0.9, target_halfwidth=0.0, max_runs=7, batch=3)


class TestPointSchedule:
    def test_initial_block_starts_at_zero(self):
        assert PointSchedule(4).next([]) == (0, 4)
        assert PointSchedule(4, NEVER).next([]) == (0, 4)

    def test_fixed_schedule_stops_after_the_initial_block(self):
        assert PointSchedule(4).next(_samples([1, 2, 3, 4])) is None

    def test_top_ups_are_capped_by_max_runs(self):
        schedule = PointSchedule(2, NEVER)
        assert schedule.next(_samples([1, 2])) == (2, 3)
        assert schedule.next(_samples([1, 2, 3, 4, 5])) == (5, 2)

    def test_none_at_max_runs(self):
        assert PointSchedule(2, NEVER).next(_samples(range(7))) is None

    def test_none_once_the_target_is_met(self):
        assert PointSchedule(2, LOOSE).next(_samples([1, 2])) is None

    def test_batch_defaults_to_the_initial_runs(self):
        assert PointSchedule(3, LOOSE).next(_samples([1])) == (1, 3)

    def test_of_a_sweep_spec(self):
        spec = SweepSpec(
            experiment=ExperimentSpec(
                topology=TopologySpec("erdos_renyi", {"n": 30}),
                scenario=ScenarioSpec("commuter"),
                policies=(PolicySpec("onth"), PolicySpec("onbr")),
            ),
            runs=3,
        )
        assert PointSchedule.of(spec) == PointSchedule(3)
        fixed = SweepSpec(
            experiment=spec.experiment,
            runs=3,
            replication=ReplicationSpec(runs=2, ci_level=0.9),
        )
        assert PointSchedule.of(fixed) == PointSchedule(2)
        comparison = ComparisonSpec(baseline="ONTH")
        adaptive = SweepSpec(
            experiment=spec.experiment,
            runs=3,
            replication=NEVER,
            comparison=comparison,
        )
        assert PointSchedule.of(adaptive) == PointSchedule(3, NEVER, comparison)

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.integers(1, 6),
        batch=st.none() | st.integers(1, 5),
        extra=st.integers(0, 12),
        target=st.floats(0.0, 40.0),
        relative=st.booleans(),
        values=st.lists(st.floats(0.0, 100.0), min_size=18, max_size=18),
    )
    def test_blocks_tile_the_replicates_up_to_max_runs(
        self, runs, batch, extra, target, relative, values
    ):
        max_runs = runs + extra
        schedule = PointSchedule(
            runs,
            ReplicationSpec(
                ci_level=0.9, target_halfwidth=target, relative=relative,
                max_runs=max_runs, batch=batch,
            ),
        )
        samples = []
        blocks = []
        while (step := schedule.next(samples)) is not None:
            offset, size = step
            assert offset == len(samples)  # no gap, no overlap
            assert size >= 1 and offset + size <= max_runs
            blocks.append(step)
            samples.extend(_samples(values[offset : offset + size]))
        assert blocks[0] == (0, runs)
        assert runs <= len(samples) <= max_runs
