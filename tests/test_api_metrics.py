"""Tests for the metric pipeline: registry, built-ins, spec integration."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api.experiment import (
    resolve_series_labels,
    run_experiment,
    run_replicate,
    run_sweep,
)
from repro.api.metrics import MetricContext, evaluate_metrics
from repro.api.registry import (
    METRICS,
    UnknownNameError,
    list_metrics,
    resolve_metric,
)
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)


def line_experiment(**overrides) -> ExperimentSpec:
    """A tiny line-graph spec OPT can solve quickly."""
    defaults = dict(
        topology=TopologySpec(
            "line", {"n": 4, "unit_latency": False, "latency_range": (5.0, 20.0)}
        ),
        scenario=ScenarioSpec("commuter", {"period": 4, "sojourn": 5}),
        policies=(PolicySpec("onth", label="ONTH"),),
        horizon=30,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestMetricRegistry:
    def test_builtins_registered(self):
        names = list_metrics()
        for expected in ("total_cost", "cost_ratio_vs", "cost_breakdown",
                         "per_round_average", "reference_cost"):
            assert expected in names

    def test_resolve_and_typo_suggestion(self):
        assert callable(resolve_metric("total_cost"))
        with pytest.raises(UnknownNameError) as excinfo:
            resolve_metric("total_cots")
        assert "total_cost" in str(excinfo.value)

    def test_separator_insensitive(self):
        assert resolve_metric("total-cost") is resolve_metric("total_cost")
        assert "cost_ratio_vs" in METRICS


class TestMetricSpec:
    def test_round_trip(self):
        spec = MetricSpec("cost_ratio_vs", {"reference": "OPT"}, label="vs OPT")
        restored = MetricSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown MetricSpec keys"):
            MetricSpec.from_dict({"kind": "total_cost", "prams": {}})

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            MetricSpec("total_cost", label="  ")

    def test_resolve(self):
        assert MetricSpec("total_cost").resolve() is resolve_metric("total_cost")


class TestExperimentSpecMetrics:
    def test_default_metric_is_total_cost(self):
        spec = line_experiment()
        assert [m.kind for m in spec.metrics] == ["total_cost"]

    def test_metrics_round_trip_through_json(self):
        spec = line_experiment(
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec("cost_ratio_vs", {"reference": "OPT"}, label="ratio"),
            )
        )
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_dict_without_metrics_gets_default(self):
        data = line_experiment().to_dict()
        del data["metrics"]
        assert [m.kind for m in ExperimentSpec.from_dict(data).metrics] == [
            "total_cost"
        ]

    def test_explicitly_empty_metrics_list_rejected(self):
        # Only a *missing* key falls back to the default; "metrics": [] in
        # a hand-written dict is malformed, same as ExperimentSpec(metrics=()).
        data = line_experiment().to_dict()
        data["metrics"] = []
        with pytest.raises(ValueError, match="at least one metric"):
            ExperimentSpec.from_dict(data)

    def test_duplicate_metrics_rejected(self):
        with pytest.raises(ValueError, match="duplicate metrics"):
            line_experiment(
                metrics=(MetricSpec("total_cost"), MetricSpec("total_cost"))
            )

    def test_no_metrics_rejected(self):
        with pytest.raises(ValueError, match="at least one metric"):
            line_experiment(metrics=())


class TestPolicyOverrides:
    def test_round_trip(self):
        spec = line_experiment(
            policies=(
                PolicySpec("offstat", label="β<c"),
                PolicySpec(
                    "offstat",
                    label="β>c",
                    costs=CostSpec.migration_expensive(),
                    scenario=ScenarioSpec("timezones", {"period": 4}),
                ),
            )
        )
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.policies[1].costs == CostSpec.migration_expensive()

    def test_scenario_substitution_reaches_overrides(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="base"),
                PolicySpec(
                    "onth",
                    label="tz",
                    scenario=ScenarioSpec("timezones", {"period": 4}),
                ),
            )
        )
        moved = spec.with_param("scenario.sojourn", 17)
        assert moved.scenario.params["sojourn"] == 17
        assert moved.policies[1].scenario.params["sojourn"] == 17

    def test_costs_substitution_reaches_overrides(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="a"),
                PolicySpec(
                    "onth", label="b", costs=CostSpec.migration_expensive()
                ),
            )
        )
        moved = spec.with_param("costs.run_active", 9.0)
        assert moved.costs.run_active == 9.0
        assert moved.policies[1].costs.run_active == 9.0
        # the override's defining fields survive the substitution
        assert moved.policies[1].costs.migration == 400.0

    def test_shared_scenario_shares_one_trace(self):
        # Two identical effective scenarios must produce identical demand:
        # the policies see one trace, so equal policies yield equal totals.
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="first"),
                PolicySpec("onth", label="second"),
            )
        )
        out = run_replicate(spec, np.random.default_rng(5))
        assert out["first"] == out["second"]


class TestBuiltinMetrics:
    def test_total_cost_matches_ledgers(self):
        spec = line_experiment()
        outcome = run_experiment(spec)
        assert outcome.series == pytest.approx(outcome.total_costs)

    def test_per_round_average(self):
        spec = line_experiment(metrics=(MetricSpec("per_round_average"),))
        outcome = run_experiment(spec)
        ledger = outcome.results["ONTH"]
        assert outcome.series["ONTH/round"] == pytest.approx(
            ledger.total_cost / ledger.rounds
        )

    def test_cost_ratio_vs_opt_at_least_one(self):
        spec = line_experiment(
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "OPT"}),)
        )
        out = run_replicate(spec, np.random.default_rng(1))
        assert out["ONTH"] >= 1.0 - 1e-9

    def test_cost_ratio_vs_policy_label(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "OFFSTAT"}),),
        )
        out = run_replicate(spec, np.random.default_rng(2))
        # the reference's trivial self-ratio is omitted
        assert set(out) == {"ONTH"}
        assert out["ONTH"] > 0

    def test_reference_cost_series(self):
        spec = line_experiment(
            policies=(PolicySpec("offstat", label="OFFSTAT"),),
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec("reference_cost", {"reference": "OPT"}),
            ),
        )
        out = run_replicate(spec, np.random.default_rng(3))
        assert set(out) == {"OFFSTAT", "OPT"}
        assert out["OFFSTAT"] >= out["OPT"] - 1e-9

    def test_reference_cost_ambiguous_without_policy(self):
        spec = line_experiment(
            policies=(
                PolicySpec("offstat", label="a"),
                PolicySpec(
                    "offstat", label="b", costs=CostSpec.migration_expensive()
                ),
            ),
            metrics=(MetricSpec("reference_cost", {"reference": "OPT"}),),
        )
        with pytest.raises(ValueError, match="policy=<label>"):
            run_replicate(spec, np.random.default_rng(4))

    def test_cost_breakdown_single_policy_part_names(self):
        spec = line_experiment(
            metrics=(
                MetricSpec(
                    "cost_breakdown",
                    {"parts": ("access", "running", "migration+creation",
                               "total")},
                ),
            )
        )
        out = run_replicate(spec, np.random.default_rng(6))
        assert set(out) == {"access", "running", "migration+creation", "total"}
        assert out["total"] == pytest.approx(
            out["access"] + out["running"] + out["migration+creation"]
        )

    def test_cost_breakdown_multi_policy_prefixes_labels(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            metrics=(MetricSpec("cost_breakdown", {"parts": ("total",)}),),
        )
        out = run_replicate(spec, np.random.default_rng(7))
        assert set(out) == {"ONTH total", "OFFSTAT total"}

    def test_migrations_count_the_ledgers_moves(self):
        policies = (
            PolicySpec("onth", label="ONTH"),
            PolicySpec("offstat", label="OFFSTAT"),
        )
        single = line_experiment(metrics=(MetricSpec("migrations"),))
        multi = line_experiment(
            policies=policies, metrics=(MetricSpec("migrations"),)
        )
        assert set(run_replicate(single, np.random.default_rng(3))) == {
            "migrations"
        }
        out = run_replicate(multi, np.random.default_rng(3))
        ledgers = run_experiment(replace(multi, seed=3)).results
        assert out == {
            f"{label} migrations": float(run.total_migrations)
            for label, run in ledgers.items()
        }

    def test_cost_breakdown_unknown_part(self):
        spec = line_experiment(
            metrics=(MetricSpec("cost_breakdown", {"parts": ("latency!",)}),)
        )
        with pytest.raises(ValueError, match="unknown breakdown part"):
            run_replicate(spec, np.random.default_rng(8))

    def test_unknown_reference_lists_options(self):
        spec = line_experiment(
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "NOPE"}),)
        )
        with pytest.raises(ValueError, match="unknown reference"):
            run_replicate(spec, np.random.default_rng(9))


class TestSeriesNameCollisions:
    def test_two_metrics_colliding_raise(self):
        # total_cost and cost_ratio_vs both emit bare policy labels.
        spec = line_experiment(
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec("cost_ratio_vs", {"reference": "OPT"}),
            )
        )
        with pytest.raises(ValueError, match="already produced"):
            run_replicate(spec, np.random.default_rng(1))

    def test_metric_label_resolves_the_collision(self):
        spec = line_experiment(
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec(
                    "cost_ratio_vs", {"reference": "OPT"}, label="vs OPT"
                ),
            )
        )
        out = run_replicate(spec, np.random.default_rng(1))
        # single-series output: the label replaces the series name outright
        assert set(out) == {"ONTH", "vs OPT"}

    def test_metric_label_prefixes_multi_series_output(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="A"),
                PolicySpec("offstat", label="B"),
            ),
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec(
                    "cost_ratio_vs", {"reference": "OPT"}, label="ratio"
                ),
            ),
        )
        out = run_replicate(spec, np.random.default_rng(2))
        assert set(out) == {"A", "B", "ratio A", "ratio B"}


class TestResolveSeriesLabels:
    def test_happy_path_returns_labels_in_order(self):
        spec = line_experiment(
            policies=(PolicySpec("onth", label="X"), PolicySpec("offstat"))
        )
        labels = resolve_series_labels(spec)
        assert labels[0] == "X"
        assert len(labels) == 2

    def test_same_kind_same_params_collides(self):
        # Two identical unlabelled policies build the same .name.
        spec = line_experiment(
            policies=(PolicySpec("onth"), PolicySpec("onth"))
        )
        with pytest.raises(ValueError, match="collide on series label"):
            resolve_series_labels(spec)

    def test_label_matching_other_policys_built_name_collides(self):
        built_name = PolicySpec("onth").build().name
        spec = line_experiment(
            policies=(
                PolicySpec("offstat", label=built_name),
                PolicySpec("onth"),
            )
        )
        with pytest.raises(ValueError, match="collide on series label"):
            resolve_series_labels(spec)

    def test_explicit_duplicate_labels_rejected_at_spec_build(self):
        with pytest.raises(ValueError, match="labels must be unique"):
            line_experiment(
                policies=(
                    PolicySpec("onth", label="same"),
                    PolicySpec("offstat", label="same"),
                )
            )


class TestMultiScenarioReplicates:
    def test_distinct_scenarios_distinct_traces(self):
        spec = line_experiment(
            policies=(
                PolicySpec("onth", label="commuter"),
                PolicySpec(
                    "onth",
                    label="tz",
                    scenario=ScenarioSpec(
                        "timezones", {"period": 4, "requests_per_round": 3}
                    ),
                ),
            )
        )
        out = run_replicate(spec, np.random.default_rng(11))
        assert set(out) == {"commuter", "tz"}
        assert out["commuter"] != out["tz"]

    def test_sweep_moves_all_scenarios(self):
        spec = SweepSpec(
            experiment=line_experiment(
                policies=(
                    PolicySpec("onth", label="commuter"),
                    PolicySpec(
                        "onth",
                        label="tz",
                        scenario=ScenarioSpec("timezones", {"period": 4}),
                    ),
                )
            ),
            parameter="scenario.sojourn",
            values=(2, 6),
            runs=2,
            seed=3,
            figure="t",
        )
        result = run_sweep(spec)
        assert set(result.series) == {"commuter", "tz"}
        assert result.x_values == (2, 6)


class TestCoupledSweeps:
    def base(self):
        return ExperimentSpec(
            topology=TopologySpec("erdos_renyi"),
            scenario=ScenarioSpec("timezones", {"sojourn": 5}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        )

    def test_values_substituted_per_path(self):
        spec = SweepSpec(
            experiment=self.base(),
            parameter=("topology.n", "scenario.requests_per_round"),
            values=((30, 3), (60, 6)),
            runs=1,
            seed=1,
            figure="t",
        )
        probe = spec.experiment_at((60, 6))
        assert probe.topology.params["n"] == 60
        assert probe.scenario.params["requests_per_round"] == 6

    def test_figure_x_values_are_primary_components(self):
        spec = SweepSpec(
            experiment=self.base(),
            parameter=("topology.n", "scenario.requests_per_round"),
            values=((30, 3), (60, 6)),
            runs=1,
            seed=1,
            figure="t",
        )
        result = run_sweep(spec)
        assert result.x_values == (30, 60)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="swept paths"):
            SweepSpec(
                experiment=self.base(),
                parameter=("topology.n", "scenario.requests_per_round"),
                values=((30, 3), (60,)),
                runs=1,
                figure="t",
            )

    def test_round_trip_through_json(self):
        spec = SweepSpec(
            experiment=self.base(),
            parameter=("topology.n", "scenario.requests_per_round"),
            values=((30, 3), (60, 6)),
            runs=2,
            seed=4,
            figure="t",
        )
        restored = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.parameter == ("topology.n", "scenario.requests_per_round")

    def test_seed_path_rejected_in_tuple_too(self):
        with pytest.raises(ValueError, match="cannot be swept"):
            SweepSpec(
                experiment=self.base(),
                parameter=("topology.n", "seed"),
                values=((30, 1),),
                figure="t",
            )


class TestEvaluateMetricsDirectly:
    def test_custom_metric_via_context(self):
        spec = line_experiment()
        rng = np.random.default_rng(1)
        from repro.api.experiment import _simulate_spec

        context = _simulate_spec(spec, rng)
        assert isinstance(context, MetricContext)
        assert context.labels == ("ONTH",)
        out = evaluate_metrics(context, (MetricSpec("total_cost"),))
        assert out["ONTH"] == context.runs[0].run.total_cost

    def test_opt_reference_is_cached_per_regime(self):
        spec = line_experiment(
            policies=(
                PolicySpec("offstat", label="a"),
                PolicySpec("offstat", label="b"),
            )
        )
        from repro.api.experiment import _simulate_spec

        context = _simulate_spec(spec, np.random.default_rng(2))
        first = context.reference_cost("OPT", context.runs[0])
        assert context.reference_cost("OPT", context.runs[1]) == first
        assert len(context._reference_cache) == 1
