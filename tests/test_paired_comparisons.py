"""Paired policy-vs-policy comparisons on the sweep engine.

The contracts pinned here:

* comparisons are strictly additive: a sweep re-run with a
  :class:`ComparisonSpec` reproduces the marginal series *bit for bit*
  (golden-pinned for fig03) and reuses every per-point cache entry — no
  new point entries, no new simulation;
* serial, pooled and 2-shard-assembled executions agree on the comparison
  payloads exactly;
* adaptive replication driven by the *paired* halfwidth stops with fewer
  (or equal) total replicates than the marginal criterion on the fig03
  smoke case, while settling the identical policy orderings;
* spec/result round trips, resolve errors, reporting columns, the
  difference-band chart, and the CLI flags (`--compare`,
  `--compare-mode`).
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import (
    ExecutionBackend,
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
)
from repro.api.experiment import capture_sweeps, refine_sweep, run_sweep
from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments import figures
from repro.experiments.__main__ import main
from repro.experiments.plotting import render_comparison_chart
from repro.experiments.reporting import format_figure
from repro.experiments.runner import ComparisonResult, FigureResult

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_figures.json").read_text()
)

#: The golden fig03 parameterisation (see tests/test_sharded_sweeps.py).
FIG03_PARAMS = dict(sizes=(30, 60), horizon=80, sojourn=5, runs=2, seed=2)

#: fig03's series labels; ONTH is the natural baseline (the paper's best).
VS_ONTH = ComparisonSpec(baseline="ONTH")


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 40}),
            scenario=ScenarioSpec("commuter", {"period": 6}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            horizon=60,
        ),
        parameter="scenario.sojourn",
        values=(2, 5, 9),
        runs=2,
        seed=3,
        figure="t",
        comparison=ComparisonSpec(baseline="OFFSTAT"),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestComparisonSpecValidation:
    def test_round_trip_and_unknown_keys(self):
        spec = ComparisonSpec(
            baseline="OPT", contrasts=("ONTH", "ONBR"), mode="ratio",
            ci_level=0.9, method="bootstrap",
        )
        assert ComparisonSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="basline"):
            ComparisonSpec.from_dict({"basline": "OPT"})

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            ComparisonSpec(baseline="  ")
        with pytest.raises(ValueError, match="mode"):
            ComparisonSpec(baseline="OPT", mode="delta")
        with pytest.raises(ValueError, match="ci_level"):
            ComparisonSpec(baseline="OPT", ci_level=0.0)
        with pytest.raises(ValueError, match="method"):
            ComparisonSpec(baseline="OPT", method="magic")
        with pytest.raises(ValueError, match="target_halfwidth"):
            ComparisonSpec(baseline="OPT", target_halfwidth=float("nan"))
        with pytest.raises(ValueError, match="duplicate"):
            ComparisonSpec(baseline="OPT", contrasts=("A", "A"))
        with pytest.raises(ValueError, match="contrast"):
            ComparisonSpec(baseline="OPT", contrasts=("OPT",))

    def test_resolve_contrasts(self):
        spec = ComparisonSpec(baseline="B")
        assert spec.resolve_contrasts(("A", "B", "C")) == ("A", "C")
        explicit = ComparisonSpec(baseline="B", contrasts=("C",))
        assert explicit.resolve_contrasts(("A", "B", "C")) == ("C",)
        with pytest.raises(ValueError, match="baseline"):
            spec.resolve_contrasts(("A", "C"))
        with pytest.raises(ValueError, match="not result series"):
            explicit.resolve_contrasts(("A", "B"))
        with pytest.raises(ValueError, match="no contrast"):
            spec.resolve_contrasts(("B",))

    def test_sweep_spec_coerces_comparison_dicts(self):
        spec = small_sweep(comparison=VS_ONTH.to_dict())
        assert spec.comparison == VS_ONTH
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_comparison_target_needs_adaptive_replication(self):
        with pytest.raises(ValueError, match="adaptive ReplicationSpec"):
            small_sweep(
                comparison=ComparisonSpec(baseline="OFFSTAT",
                                          target_halfwidth=10.0)
            )
        # fine once an adaptive replication spec supplies the machinery
        small_sweep(
            comparison=ComparisonSpec(baseline="OFFSTAT", target_halfwidth=10.0),
            replication=ReplicationSpec(target_halfwidth=10.0, max_runs=5),
        )


class TestComparisonsAreAdditive:
    """Same samples, same marginal payload — comparisons only add."""

    def test_fig03_marginals_stay_golden(self):
        golden = GOLDEN["fig03"]["result"]
        result = figures.figure03(**FIG03_PARAMS, comparison=VS_ONTH)
        assert result.has_comparisons
        stripped = result.to_dict()
        stripped.pop("comparisons")
        assert stripped == golden

    def test_comparison_values_match_series_differences(self):
        result = run_sweep(small_sweep())
        diff = result.comparison_for("ONTH")
        assert diff.baseline == "OFFSTAT" and diff.mode == "diff"
        for i in range(len(result.x_values)):
            assert diff.values[i] == pytest.approx(
                result.series["ONTH"][i] - result.series["OFFSTAT"][i]
            )
        assert diff.counts == (2, 2, 2)

    def test_ratio_mode(self):
        result = run_sweep(
            small_sweep(comparison=ComparisonSpec(baseline="OFFSTAT",
                                                  mode="ratio"))
        )
        ratio = result.comparison_for("ONTH")
        assert ratio.null == 1.0
        assert all(v > 0 for v in ratio.values)

    def test_paired_interval_tighter_than_marginal(self):
        """The CRN effect on real sweeps: shared traces cancel."""
        result = run_sweep(small_sweep(runs=4))
        diff = result.comparison_for("ONTH")
        paired_halfwidths = [
            (high - low) / 2.0 for low, high in diff.ci
        ]
        # marginal t halfwidth ∝ stderr; compare via stderr directly
        for i in range(len(result.x_values)):
            assert paired_halfwidths[i] > 0
            assert diff.stderr[i] < result.errors["ONTH"][i] + \
                result.errors["OFFSTAT"][i]

    def test_unknown_baseline_raises_clearly(self):
        with pytest.raises(ValueError, match="comparison baseline"):
            run_sweep(small_sweep(comparison=ComparisonSpec(baseline="OPT")))
        # the adaptive path must raise the same clean error, not a KeyError
        # from indexing the samples by the unvalidated baseline name
        with pytest.raises(ValueError, match="comparison baseline"):
            run_sweep(small_sweep(
                comparison=ComparisonSpec(baseline="OPT"),
                replication=ReplicationSpec(target_halfwidth=1.0, max_runs=4),
            ))

    def test_result_dict_round_trip(self):
        result = run_sweep(small_sweep())
        restored = FigureResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored == result
        summaries = restored.comparison_for("ONTH").summaries()
        assert len(summaries) == 3
        assert all(s.mode == "diff" for s in summaries)

    def test_comparison_result_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ComparisonResult("b", "c", "delta", 0.95, (), (), (), ())
        with pytest.raises(ValueError, match="level"):
            ComparisonResult("b", "c", "diff", 0.0, (), (), (), ())
        with pytest.raises(ValueError, match="baseline"):
            ComparisonResult("b", "b", "diff", 0.95, (), (), (), ())
        with pytest.raises(ValueError, match="misaligned"):
            ComparisonResult("b", "c", "diff", 0.95, (1.0,), (), (), ())
        result = run_sweep(small_sweep())
        with pytest.raises(ValueError, match="not a result series"):
            replace(result, comparisons=(
                ComparisonResult("nope", "ONTH", "diff", 0.95,
                                 result.comparisons[0].values,
                                 result.comparisons[0].stderr,
                                 result.comparisons[0].ci,
                                 result.comparisons[0].counts),
            ))
        with pytest.raises(KeyError, match="no comparison"):
            result.comparison_for("OFFSTAT")


class TestCacheReuseUnderComparisons:
    def test_plain_then_compare_is_all_point_hits(self, tmp_path):
        """A plain sweep's point entries fully serve a --compare re-run."""
        golden = GOLDEN["fig03"]["result"]
        warmer = ResultCache(tmp_path)
        plain = figures.figure03(**FIG03_PARAMS, cache=warmer)
        assert plain.to_dict() == golden
        assert warmer.point_stores == 2

        cache = ResultCache(tmp_path)
        compared = figures.figure03(
            **FIG03_PARAMS, cache=cache, comparison=VS_ONTH
        )
        # every point loaded from the plain run's entries; nothing new
        assert cache.point_hits == 2
        assert cache.point_stores == 0 and cache.extension_stores == 0
        # marginal series bit-identical to the golden plain run
        stripped = compared.to_dict()
        stripped.pop("comparisons")
        assert stripped == golden

    def test_compare_rerun_hits_its_own_sweep_entry(self, tmp_path):
        spec = small_sweep()
        first = run_sweep(spec, cache=ResultCache(tmp_path))
        rerun = ResultCache(tmp_path)
        again = run_sweep(spec, cache=rerun)
        assert again == first and rerun.hits == 1

    def test_adaptive_paired_reuses_plain_entries(self, tmp_path):
        """Plain point entries seed the initial blocks of a paired sweep."""
        plain = small_sweep(comparison=None)
        warmer = ResultCache(tmp_path)
        run_sweep(plain, cache=warmer)
        cache = ResultCache(tmp_path)
        result = run_sweep(
            small_sweep(replication=ReplicationSpec(
                target_halfwidth=50.0, max_runs=8, batch=1,
            )),
            cache=cache,
        )
        assert cache.point_hits == 3
        assert result.has_comparisons and result.has_confidence


class TestComparisonDeterminism:
    def test_serial_pool_and_shard_assembled_identical(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        assert run_sweep(spec, backend=ProcessPoolBackend(2)) == serial
        for index in range(2):
            run_sweep(spec, cache=ResultCache(tmp_path), shard=(index, 2))
        assembled = run_sweep(spec, cache=ResultCache(tmp_path))
        assert assembled == serial
        assert assembled.comparisons == serial.comparisons

    def test_partial_shard_restricts_comparisons_to_its_points(self, tmp_path):
        partial = run_sweep(
            small_sweep(), cache=ResultCache(tmp_path), shard=(1, 2)
        )
        assert "partial" in partial.notes
        assert len(partial.x_values) == 1
        diff = partial.comparison_for("ONTH")
        assert len(diff.values) == 1


class TestPairedAdaptiveStopping:
    #: An absolute target between the typical paired and marginal
    #: halfwidths at this scale, so the two criteria separate.
    TARGET = ReplicationSpec(target_halfwidth=200.0, max_runs=16, batch=1)

    def test_paired_needs_fewer_replicates_same_orderings(self):
        """The acceptance criterion on the fig03-shaped smoke case."""
        marginal = run_sweep(
            small_sweep(comparison=None, replication=self.TARGET)
        )
        paired = run_sweep(small_sweep(replication=self.TARGET))
        assert sum(paired.counts) < sum(marginal.counts)
        # identical per-point policy orderings
        for i in range(len(marginal.x_values)):
            assert (
                marginal.series["ONTH"][i] > marginal.series["OFFSTAT"][i]
            ) == (
                paired.series["ONTH"][i] > paired.series["OFFSTAT"][i]
            )
        # and the paired intervals actually settle those orderings
        for summary in paired.comparison_for("ONTH").summaries():
            assert summary.meets(self.TARGET.target_halfwidth)

    def test_comparison_target_overrides_replication_target(self):
        loose = run_sweep(
            small_sweep(
                replication=self.TARGET,
                comparison=ComparisonSpec(baseline="OFFSTAT",
                                          target_halfwidth=1e9),
            )
        )
        assert loose.counts == (2, 2, 2)
        tight = run_sweep(
            small_sweep(
                replication=self.TARGET,
                comparison=ComparisonSpec(baseline="OFFSTAT",
                                          target_halfwidth=50.0),
            )
        )
        assert sum(tight.counts) > sum(loose.counts)

    def test_paired_adaptive_shard_assembly_bit_identical(self, tmp_path):
        spec = small_sweep(replication=self.TARGET)
        serial = run_sweep(spec)
        for index in range(2):
            run_sweep(spec, cache=ResultCache(tmp_path), shard=(index, 2))
        assembler = ResultCache(tmp_path)
        assembled = run_sweep(spec, cache=assembler)
        assert assembled == serial
        assert assembler.point_stores == 0 and assembler.extension_stores == 0


class TestRefineAndSorting:
    def test_refined_comparison_results_stay_x_sorted(self, tmp_path):
        spec = small_sweep(values=(2, 9), runs=3)
        cache = ResultCache(tmp_path)
        base = run_sweep(spec, cache=cache)
        refined_spec, refined = refine_sweep(spec, base, cache=cache)
        assert refined.x_values == tuple(sorted(refined_spec.values))
        diff = refined.comparison_for("ONTH")
        assert len(diff.values) == len(refined.x_values)
        # prefix points kept their paired values bit for bit
        base_diff = base.comparison_for("ONTH")
        for i, x in enumerate(base.x_values):
            j = refined.x_values.index(x)
            assert diff.values[j] == base_diff.values[i]


class TestReportingAndPlotting:
    def test_table_gains_delta_and_halfwidth_columns(self):
        result = run_sweep(small_sweep())
        text = format_figure(result)
        assert "Δ ONTH" in text
        assert "±95%" in text
        assert "paired vs OFFSTAT" in text

    def test_ratio_table_header(self):
        result = run_sweep(
            small_sweep(comparison=ComparisonSpec(baseline="OFFSTAT",
                                                  mode="ratio"))
        )
        text = format_figure(result)
        assert "ONTH/OFFSTAT" in text
        assert "ratio = contrast / baseline" in text

    def test_comparison_chart_draws_null_line_and_bands(self):
        result = run_sweep(small_sweep())
        chart = render_comparison_chart(result)
        assert "paired vs OFFSTAT" in chart
        assert "- = no difference" in chart
        assert "·" in chart  # the paired CI band
        assert "Δ ONTH" in chart

    def test_comparison_chart_requires_comparisons(self):
        plain = run_sweep(small_sweep(comparison=None))
        with pytest.raises(ValueError, match="no comparisons"):
            render_comparison_chart(plain)


class TestComparisonCLI:
    ARGS = [
        "run", "--policy", "onth", "--policy", "offstat",
        "--topology", "erdos_renyi:n=40", "--horizon", "60",
        "--sweep", "scenario.sojourn=2,5", "--runs", "2",
    ]

    def test_compare_emits_payload_and_footer(self, capsys):
        assert main(self.ARGS + ["--compare", "OFFSTAT"]) == 0
        out = capsys.readouterr().out
        assert "Δ ONTH" in out and "paired vs OFFSTAT" in out

    def test_compare_json_payload(self, capsys):
        assert main(self.ARGS + ["--compare", "OFFSTAT", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (comparison,) = payload["comparisons"]
        assert comparison["baseline"] == "OFFSTAT"
        assert comparison["contrast"] == "ONTH"
        assert payload["spec"]["comparison"]["baseline"] == "OFFSTAT"

    def test_compare_mode_ratio(self, capsys):
        assert main(
            self.ARGS + ["--compare", "OFFSTAT", "--compare-mode", "ratio",
                         "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["comparisons"][0]["mode"] == "ratio"

    def test_compare_mode_without_compare_is_an_error(self, capsys):
        assert main(self.ARGS + ["--compare-mode", "ratio"]) == 2
        assert "--compare-mode" in capsys.readouterr().err

    def test_unknown_baseline_fails_fast(self, capsys):
        assert main(self.ARGS + ["--compare", "TYPO"]) == 2
        err = capsys.readouterr().err
        assert "comparison baseline" in err and "TYPO" in err

    def test_unknown_baseline_in_figure_mode_exits_cleanly(self, capsys):
        """Figure series only exist post-run; still exit 2, no traceback."""
        assert main(["fig13", "--runs", "1", "--compare", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "comparison baseline" in err and "NOPE" in err

    def test_compare_plot_renders_difference_chart(self, capsys):
        assert main(self.ARGS + ["--compare", "OFFSTAT", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "- = no difference" in out

    def test_figure_mode_threads_comparison(self, capsys):
        assert main([
            "fig03", "--runs", "2", "--compare", "ONTH", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        contrasts = {c["contrast"] for c in payload["comparisons"]}
        assert contrasts == {"ONBR-fixed", "ONBR-dyn"}
        assert payload["params"]["comparison"]["baseline"] == "ONTH"

    def test_trajectory_figures_ignore_compare_with_a_note(self, capsys):
        assert main(["fig12", "--compare", "ONTH"]) == 0
        assert "does not take --compare" in capsys.readouterr().err


class CountingBackend(ExecutionBackend):
    """Serial execution recording the size of every scheduled batch."""

    def __init__(self):
        self.batches = []

    def run_replicates(self, replicate, tasks, on_result=None):
        self.batches.append(len(tasks))
        return SerialBackend().run_replicates(replicate, tasks, on_result)

    @property
    def total(self):
        return sum(self.batches)


class TestPairedRefinement:
    """refine_sweep driven by *paired* CIs when the spec carries a comparison."""

    def paired_sweep(self, **overrides):
        defaults = dict(
            experiment=ExperimentSpec(
                topology=TopologySpec("erdos_renyi", {"n": 40}),
                scenario=ScenarioSpec("commuter", {"period": 6}),
                policies=(
                    PolicySpec("onth", label="ONTH"),
                    PolicySpec("onbr", label="ONBR"),
                ),
                horizon=60,
            ),
            values=(2, 9),
            runs=2,
            seed=2,  # the ONTH-ONBR paired CI straddles 0 at sojourn 9
            comparison=ComparisonSpec(baseline="ONBR"),
        )
        defaults.update(overrides)
        return small_sweep(**defaults)

    def _with_paired(self, base, values, ci):
        """``base`` with its single comparison's values/CIs replaced."""
        comparison = replace(base.comparisons[0], values=values, ci=ci)
        return replace(base, comparisons=(comparison,))

    def test_straddling_endpoint_bisects_its_intervals_only(self):
        spec = self.paired_sweep(values=(2, 5, 9))
        base = run_sweep(spec)
        # decisive everywhere except x=2: only (2, 5) is worth bisecting
        doctored = self._with_paired(
            base,
            values=(15.0, 8.0, 18.0),
            ci=((-5.0, 30.0), (3.0, 13.0), (12.0, 25.0)),
        )
        refined_spec, _ = refine_sweep(spec, doctored)
        assert refined_spec.values == (2, 5, 9, 3)

    def test_null_crossing_bisects_despite_decisive_cis(self):
        spec = self.paired_sweep(values=(2, 5, 9))
        base = run_sweep(spec)
        # every CI excludes 0, but the paired mean changes sign over (2, 5)
        doctored = self._with_paired(
            base,
            values=(-15.0, 8.0, 18.0),
            ci=((-20.0, -10.0), (3.0, 13.0), (12.0, 25.0)),
        )
        refined_spec, _ = refine_sweep(spec, doctored)
        assert refined_spec.values == (2, 5, 9, 3)

    def test_settled_paired_sweep_adds_nothing(self):
        spec = self.paired_sweep(values=(2, 5, 9))
        base = run_sweep(spec)
        settled = self._with_paired(
            base,
            values=(15.0, 8.0, 18.0),
            ci=((10.0, 20.0), (3.0, 13.0), (12.0, 25.0)),
        )
        refined_spec, refined = refine_sweep(spec, settled)
        assert refined_spec.values == spec.values
        assert refined.x_values == (2, 5, 9)

    def test_marginal_overlap_is_ignored_under_a_comparison(self):
        """Settled paired CIs beat wildly overlapping marginal CIs."""
        spec = self.paired_sweep(
            values=(2, 5, 9), replication=ReplicationSpec()
        )
        base = run_sweep(spec)
        assert base.has_confidence
        wide = replace(
            base,
            ci={
                name: tuple((v - 1e6, v + 1e6) for v in base.series[name])
                for name in base.series_names
            },
        )
        settled = self._with_paired(
            wide,
            values=(15.0, 8.0, 18.0),
            ci=((10.0, 20.0), (3.0, 13.0), (12.0, 25.0)),
        )
        refined_spec, _ = refine_sweep(spec, settled)
        assert refined_spec.values == spec.values

    def test_ratio_mode_bisects_around_one(self):
        spec = self.paired_sweep(
            comparison=ComparisonSpec(baseline="ONBR", mode="ratio")
        )
        base = run_sweep(spec)
        settled = self._with_paired(
            base, values=(1.3, 1.4), ci=((1.1, 1.5), (1.2, 1.6))
        )
        assert refine_sweep(spec, settled)[0].values == spec.values
        straddling = self._with_paired(
            base, values=(1.3, 1.05), ci=((1.1, 1.5), (0.9, 1.2))
        )
        assert refine_sweep(spec, straddling)[0].values == (2, 9, 5)

    def test_rejects_result_missing_comparison_payloads(self):
        spec = self.paired_sweep()
        plain = run_sweep(self.paired_sweep(comparison=None))
        with pytest.raises(ValueError, match="without paired-comparison"):
            refine_sweep(spec, plain)

    def test_rejects_comparison_payloads_on_a_plain_spec(self):
        paired = run_sweep(self.paired_sweep())
        with pytest.raises(ValueError, match="without a ComparisonSpec"):
            refine_sweep(self.paired_sweep(comparison=None), paired)

    def test_rejects_mismatched_baseline_and_mode(self):
        base = run_sweep(self.paired_sweep())
        ratio = self.paired_sweep(
            comparison=ComparisonSpec(baseline="ONBR", mode="ratio")
        )
        with pytest.raises(ValueError, match="do not match the spec's"):
            refine_sweep(ratio, base)


class TestPairedRefinementWarmCache:
    def test_warm_cache_simulates_only_the_appended_midpoint(self, tmp_path):
        """The ISSUE's acceptance test, golden-pinned on the bisection.

        A paired refinement pass over a warm cache loads every pre-existing
        grid point from its per-point entries and simulates *only* the
        appended midpoints — then serial, pooled and queue-drained re-runs
        of the refined spec agree bit for bit.
        """
        spec = TestPairedRefinement().paired_sweep()
        cache = ResultCache(tmp_path)
        base = run_sweep(spec, cache=cache)
        counting = CountingBackend()
        probe = ResultCache(tmp_path)
        refined_spec, refined = refine_sweep(
            spec, base, backend=counting, cache=probe
        )
        # golden-pinned: the straddle at sojourn 9 bisects (2, 9) to 5,
        # appended so the prefix keeps its indices, seeds and cache keys
        assert refined_spec.values == (2, 9, 5)
        # only the midpoint simulated: one batch of spec.runs replicates
        assert counting.batches == [spec.runs]
        # the old grid came entirely from the warm cache — no new entries
        assert probe.point_hits == len(spec.values)
        assert probe.point_stores == 1 and probe.extension_stores == 0
        # prefix points kept their values bit for bit
        for name in base.series_names:
            for i, x in enumerate(base.x_values):
                j = refined.x_values.index(x)
                assert refined.series[name][j] == base.series[name][i]
        # serial == pool == queue on the refined spec
        serial = run_sweep(refined_spec)
        pool = run_sweep(refined_spec, backend=ProcessPoolBackend(2))
        queued = run_sweep(
            refined_spec,
            backend=QueueBackend(tmp_path / "q.db"),
            cache=ResultCache(tmp_path / "queue-cache"),
        )
        assert pool.to_dict() == serial.to_dict()
        assert queued.to_dict() == serial.to_dict()
        # and the refined result is exactly the x-sorted view of them
        for name in serial.series_names:
            for i, x in enumerate(serial.x_values):
                j = refined.x_values.index(x)
                assert refined.series[name][j] == serial.series[name][i]

    def test_fig03_refinement_keeps_the_golden_prefix(self, tmp_path):
        """Refining the golden fig03 smoke never perturbs the pinned points."""
        cache = ResultCache(tmp_path)
        with capture_sweeps() as captured:
            base = figures.figure03(
                **FIG03_PARAMS, cache=cache, comparison=VS_ONTH
            )
        [(spec, _)] = captured
        refined_spec, refined = refine_sweep(
            spec, base, cache=ResultCache(tmp_path)
        )
        # the paired CI straddles 0 at size 60, so (30, 60) bisects
        assert refined_spec.values == (30, 60, 45)
        golden = GOLDEN["fig03"]["result"]
        for name, values in golden["series"].items():
            for i, x in enumerate(golden["x_values"]):
                j = refined.x_values.index(x)
                assert refined.series[name][j] == values[i]
