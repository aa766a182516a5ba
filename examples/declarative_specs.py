#!/usr/bin/env python
"""Declarative experiments: describe a run as data, execute it anywhere.

The spec API (``repro.api``) separates *what* an experiment is from *how*
it runs. This example

1. builds an :class:`ExperimentSpec` naming registered components
   ("onth", "commuter", "erdos_renyi") instead of importing their classes,
2. round-trips the spec through JSON — the exact run is reproducible from a
   text blob (cache keys, experiment manifests, issue reports),
3. sweeps a parameter with ``run_sweep`` serially and on a process pool,
   verifying the results are bit-identical,
4. shows the matching one-liner CLI invocation,
5. expresses a *derived* result — the ONTH/OPT competitive ratio of
   Figure 11 — as a :class:`MetricSpec` instead of custom code,
6. re-runs a sweep through a spec-keyed :class:`ResultCache`, loading the
   second invocation from disk without simulating anything, and
7. splits one sweep across two independent "processes" with
   ``run_sweep(..., shard=(i, n))`` — each fills a disjoint subset of the
   per-point cache entries, and the assembly pass reproduces the serial
   result bit for bit without simulating. The same cache makes interrupted
   sweeps resumable: only missing points are recomputed, and
8. attaches a :class:`ReplicationSpec` for confidence-aware replication:
   per-point confidence intervals (error bars / shaded bands), adaptive
   top-ups until every point's CI meets a halfwidth target, and an
   error-band figure rendered straight to the terminal, and
9. adds a :class:`ComparisonSpec` for *paired* policy-vs-policy statistics
   on common random numbers: the shared trace noise cancels out of the
   per-replicate differences, so paired intervals are several times
   tighter than marginal ones — and a paired adaptive sweep settles the
   same ordering with a fraction of the replicates, and
10. runs the same sweep through a :class:`QueueBackend` — a single-file
    SQLite work queue that any number of worker processes may drain
    (``python -m repro.experiments worker``), with the samples travelling
    through a shared result cache; with zero external workers the backend
    drains its own queue, and either way the result is bit-identical to
    serial, and
11. swaps production workloads into the same specs: a ``replay`` scenario
    scores the policies on an external request log (any CSV/JSONL with a
    node column, deterministically mapped onto the substrate, cache keys
    tracking the file's content hash), and a ``streaming`` wrapper runs
    any scenario lazily in O(round) memory — the million-round switch —
    while staying bit-identical to its materialised twin, and
12. refines a paired sweep where the *paired* CI straddles its null —
    the policies' crossing region — with the warm cache re-simulating
    only the appended midpoints, then renders the sweep as a publishable
    EXPERIMENTS.md plus a self-contained repro bundle that replays and
    re-renders byte-identically, and
13. pits the heuristics against the optimizer-backed ``ilp`` policy — a
    periodic re-solve placement program whose solver knobs (epoch,
    window, LP relaxation, backend) are ordinary spec parameters — with
    a paired ratio comparison on common random numbers, and checks the
    exact tiny-instance ``milp-opt`` optimum agrees with the OPT dynamic
    program on a small line instance.

Run:  python examples/declarative_specs.py
"""

import json
import tempfile

from repro import (
    ComparisonSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ProcessPoolBackend,
    QueueBackend,
    ReplicationSpec,
    ResultCache,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    refine_sweep,
    run_experiment,
    run_sweep,
)
from repro.experiments.plotting import render_comparison_chart, render_figure_chart
from repro.experiments.report import (
    ReportSection,
    load_bundle,
    render_report,
    write_bundle,
)


def main() -> None:
    # 1. A run described purely as data: no classes, just registered names.
    experiment = ExperimentSpec(
        topology=TopologySpec("erdos_renyi", {"n": 120}),
        scenario=ScenarioSpec("commuter", {"sojourn": 10}),
        policies=(
            PolicySpec("onth", label="ONTH"),
            PolicySpec("onbr-dyn", label="ONBR-dyn"),
            PolicySpec("offstat", label="OFFSTAT"),
        ),
        horizon=200,
        seed=7,
    )
    outcome = run_experiment(experiment)
    print("single run, total cost per policy:")
    for label, cost in outcome.total_costs.items():
        print(f"  {label:<10} {cost:10.1f}")

    # 2. Specs serialise to JSON-safe dicts and back without loss.
    blob = json.dumps(experiment.to_dict())
    assert ExperimentSpec.from_dict(json.loads(blob)) == experiment
    print(f"\nspec JSON round-trip ok ({len(blob)} bytes)")

    # 3. Sweep the network size; the process pool preserves per-replicate
    #    seeds, so parallel results are bit-identical to serial ones.
    sweep = SweepSpec(
        experiment=experiment,
        parameter="topology.n",
        values=(60, 120, 240),
        runs=3,
        seed=7,
        figure="example",
        x_label="network size",
    )
    serial = run_sweep(sweep)
    parallel = run_sweep(sweep, backend=ProcessPoolBackend(4))
    assert serial.series == parallel.series and serial.errors == parallel.errors
    print("\nsize sweep (serial == 4-worker pool, bit-identical):")
    for name in serial.series_names:
        values = ", ".join(f"{v:9.1f}" for v in serial.y(name))
        print(f"  {name:<10} {values}")

    # 4. The same sweep from the command line, no code required:
    print(
        "\nequivalent CLI:\n"
        "  python -m repro.experiments run --policy onth --policy onbr-dyn \\\n"
        "      --policy offstat --scenario commuter:sojourn=10 \\\n"
        "      --topology erdos_renyi:n=120 --horizon 200 \\\n"
        "      --sweep topology.n=60,120,240 --runs 3 --workers 4"
    )

    # 5. Derived metrics as data: the ONTH/OPT competitive ratio on a line
    #    graph (the shape of the paper's Figure 11), swept over λ. The
    #    "cost_ratio_vs" metric solves the exact offline optimum per
    #    replicate — no closure, the whole figure is this JSON-able spec.
    ratio_sweep = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec(
                "line",
                {"n": 5, "unit_latency": False, "latency_range": (5.0, 20.0)},
            ),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=60,
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "OPT"}),),
        ),
        parameter="scenario.sojourn",
        values=(2, 5, 15),
        runs=3,
        seed=7,
        figure="example-ratio",
        x_label="λ",
    )
    assert SweepSpec.from_dict(json.loads(json.dumps(ratio_sweep.to_dict())))
    ratios = run_sweep(ratio_sweep)
    print("\nONTH/OPT ratio vs λ (a MetricSpec, not a closure):")
    print("  " + ", ".join(f"λ={x}: {r:.3f}"
                           for x, r in zip(ratios.x_values, ratios.y("ONTH"))))
    print(
        "equivalent CLI:\n"
        "  python -m repro.experiments run --policy onth \\\n"
        "      --topology line:n=5,unit_latency=false --scenario commuter:period=4 \\\n"
        "      --metric cost_ratio_vs:reference=OPT --sweep scenario.sojourn=2,5,15"
    )

    # 6. Because the spec is the complete input, it doubles as a cache key:
    #    the second run_sweep loads the stored FigureResult from disk.
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        first = run_sweep(ratio_sweep, cache=cache)     # simulates + stores
        second = run_sweep(ratio_sweep, cache=cache)    # pure disk read
        assert second == first and cache.hits == 1
        print(
            f"\ncached re-run identical (1 store, 1 hit under {root});\n"
            "  CLI: ... --cache-dir ~/.cache/repro-experiments"
        )

    # 7. Caching is per sweep *point*, which makes sweeps shardable and
    #    resumable: shard (i, n) computes every n-th point into the shared
    #    cache dir, and any later run assembles the full figure from the
    #    warm entries — bit-identical to the serial run. An interrupted
    #    sweep resumes the same way, recomputing only its missing points.
    with tempfile.TemporaryDirectory() as root:
        for index in range(2):                          # two CI jobs, say
            run_sweep(ratio_sweep, cache=ResultCache(root), shard=(index, 2))
        assembler = ResultCache(root)
        assembled = run_sweep(ratio_sweep, cache=assembler)
        assert assembled == first and assembler.point_stores == 0
        print(
            "sharded 2-way + assembled from the warm cache, bit-identical\n"
            "  CLI: ... --cache-dir DIR --shard 1/2   (then 2/2, then assemble)"
        )

    # 8. Confidence-aware replication: every sweep point tops itself up —
    #    cache-first, marginal seeds only — until the 95% CI of every series
    #    is within ±10% of its mean, or the point hits max_runs. Low-variance
    #    points stop early, so per-point n varies; the result carries
    #    mean/stderr/CI/n per point and renders with shaded error bands.
    adaptive = SweepSpec(
        experiment=ratio_sweep.experiment,
        parameter=ratio_sweep.parameter,
        values=ratio_sweep.values,
        runs=3,
        seed=7,
        figure="example-ci",
        x_label="λ",
        replication=ReplicationSpec(
            ci_level=0.95, target_halfwidth=0.10, relative=True, max_runs=12,
        ),
    )
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        confident = run_sweep(adaptive, cache=cache)
        print("\nadaptive replication (CI within ±10% of the mean):")
        for x, summary in zip(
            confident.x_values, confident.point_summaries("ONTH")
        ):
            print(f"  λ={x:<3} {summary}")
        print(render_figure_chart(confident, width=56, height=12))
        rerun = ResultCache(root)
        assert run_sweep(adaptive, cache=rerun) == confident
        assert rerun.point_stores == 0 and rerun.extension_stores == 0
        print(
            "warm re-run simulated zero replicates;\n"
            "  CLI: ... --ci 0.95 --target-halfwidth 10% --max-runs 12"
        )

    # 9. Paired comparisons on common random numbers: the policies of one
    #    sweep point share each replicate's trace, so comparing them via the
    #    per-replicate *difference* cancels the shared noise. The same
    #    adaptive sweep, retargeted at the paired halfwidth, settles the
    #    ONTH-vs-OFFSTAT ordering with far fewer replicates than the
    #    marginal criterion needs.
    duel = SweepSpec(
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
        figure="example-paired",
        x_label="λ",
        replication=ReplicationSpec(target_halfwidth=200.0, max_runs=16),
    )
    marginal = run_sweep(duel)
    paired = run_sweep(
        duel, comparison=ComparisonSpec(baseline="OFFSTAT")
    )
    print("\npaired comparison vs OFFSTAT (common random numbers):")
    for x, summary in zip(
        paired.x_values, paired.comparison_for("ONTH").summaries()
    ):
        settled = "settled" if summary.decisive else "open"
        print(f"  λ={x:<3} {summary}  [{settled}]")
    print(render_comparison_chart(paired, width=56, height=10))
    saved = 1 - sum(paired.counts) / sum(marginal.counts)
    print(
        f"replicates: marginal {sum(marginal.counts)} vs paired "
        f"{sum(paired.counts)} ({saved:.0%} saved, same ordering);\n"
        "  CLI: ... --compare OFFSTAT --target-halfwidth 200 --max-runs 16"
    )

    # 10. The same sweep through a shared work queue. The backend publishes
    #     each sweep point as a task on a single SQLite file; any number of
    #     `python -m repro.experiments worker --queue ... --cache-dir ...`
    #     processes (on any machine sharing the filesystem) may pick them
    #     up, and killed workers' leases expire and re-serve. With no
    #     external workers — as here — the backend drains its own queue,
    #     so the queue admits helpers without requiring them. Tasks carry
    #     only sweep positions and samples land in the shared cache, so
    #     the answer is bit-identical to serial no matter who executes
    #     what.
    with tempfile.TemporaryDirectory() as root:
        queued = run_sweep(
            sweep,
            backend=QueueBackend(f"{root}/queue.db"),
            cache=ResultCache(f"{root}/cache"),
        )
        assert queued == serial
        print(
            "\nqueue-backed sweep matches serial bit for bit;\n"
            "  CLI: ... enqueue/worker/serve --queue sweeps.db "
            "--cache-dir cache/"
        )

    # 11. Production workloads through the identical machinery. A `replay`
    #     scenario turns an external request log into rounds (here a tiny
    #     CSV; `python -m repro.experiments trace convert` preconverts big
    #     ones to .npz) with node names hashed onto the substrate, and a
    #     `streaming` wrapper generates any scenario's rounds lazily — the
    #     horizon stops being a memory limit, and the ledgers match the
    #     materialised run bit for bit.
    with tempfile.TemporaryDirectory() as root:
        log = f"{root}/requests.csv"
        with open(log, "w", encoding="utf-8") as handle:
            handle.write("round,node\n")
            handle.writelines(
                f"{t},web-{t % 3}\n" for t in range(30) for _ in range(1 + t % 4)
            )
        replayed = run_experiment(
            ExperimentSpec(
                topology=TopologySpec("line", {"n": 5}),
                scenario=ScenarioSpec("replay", {"path": log}),
                policies=(PolicySpec("onth"),),
                horizon=30,
            )
        )
        lazy, eager = (
            run_experiment(
                ExperimentSpec(
                    topology=TopologySpec("line", {"n": 5}),
                    scenario=ScenarioSpec("streaming", {
                        "scenario": "commuter",
                        "params": {"period": 6, "sojourn": 3},
                        "materialize": materialize,
                    }),
                    policies=(PolicySpec("onth"),),
                    horizon=400,
                    seed=7,
                )
            )
            for materialize in (False, True)
        )
        assert lazy.results["ONTH"].total_cost == eager.results["ONTH"].total_cost
        print(
            "\nproduction workloads: replayed log cost "
            f"{replayed.results['ONTH'].total_cost:.0f}; streaming == "
            "materialised commuter run at horizon 400;\n"
            "  CLI: ... run --scenario replay:path=requests.csv  (or "
            "--scenario streaming:scenario=commuter,sojourn=3)"
        )

    # 12. Paired-CI-aware refinement + a publishable report. Under a
    #     ComparisonSpec, refine_sweep bisects exactly the axis intervals
    #     whose *paired* CI straddles its null (or whose paired mean
    #     crosses it) — the crossing regions the paper's figures are
    #     about. Midpoints are appended, so old points keep their seeds
    #     and per-point cache entries: a pass over the warm cache
    #     simulates only the new points. render_report/write_bundle then
    #     turn the sweep into EXPERIMENTS.md plus a repro bundle whose
    #     specs replay and re-render byte-identically.
    crossing = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 40}),
            scenario=ScenarioSpec("commuter", {"period": 6}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("onbr", label="ONBR"),
            ),
            horizon=60,
        ),
        parameter="scenario.sojourn",
        values=(2, 9),
        runs=2,
        seed=2,
        figure="example-refine",
        title="ONTH vs ONBR near their crossing",
        x_label="λ",
        comparison=ComparisonSpec(baseline="ONBR"),
    )
    with tempfile.TemporaryDirectory() as root:
        cache_dir = f"{root}/cache"
        base = run_sweep(crossing, cache=ResultCache(cache_dir))
        refined_spec, _ = refine_sweep(
            crossing, base, cache=ResultCache(cache_dir)
        )
        added = sorted(set(refined_spec.values) - set(crossing.values))
        print(
            f"\npaired refinement bisected at λ={added} (the paired CI "
            "straddles 0 there); the warm cache re-simulated only those "
            "midpoints"
        )
        final = run_sweep(refined_spec, cache=ResultCache(cache_dir))
        sections = [ReportSection("crossing", refined_spec, final)]
        text = render_report(sections, cache=ResultCache(cache_dir))
        write_bundle(
            f"{root}/bundle", sections,
            cache=ResultCache(cache_dir), report_text=text,
        )
        _manifest, bundled = load_bundle(f"{root}/bundle")
        [(key, replay_spec)] = bundled
        replayed = run_sweep(replay_spec, cache=ResultCache(cache_dir))
        again = render_report(
            [ReportSection(key, replay_spec, replayed)],
            cache=ResultCache(cache_dir),
        )
        assert again == text
        print(
            f"report: {len(text.splitlines())} markdown lines; bundle "
            "replayed + re-rendered byte-identically;\n"
            "  CLI: ... report fig03 --compare ONTH --cache-dir cache/ "
            "--out EXPERIMENTS.md --bundle bundle/  →  "
            "run --from-bundle bundle/"
        )

    # 13. Heuristics vs the optimizer. The "ilp" policy re-solves a
    #     placement program every `epoch` rounds (scipy's bundled HiGHS;
    #     relax=True rounds the LP relaxation instead), and its solver
    #     knobs are ordinary spec parameters — so pitting the threshold
    #     heuristics against it is just another paired-ratio sweep on
    #     common random numbers. "milp-opt" is the exact tiny-instance
    #     optimum the differential test harness pins against OPT.
    showdown = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 40}),
            scenario=ScenarioSpec("commuter", {"period": 6}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("ilp", {"epoch": 10}, label="ILP"),
                PolicySpec("ilp", {"epoch": 10, "relax": True}, label="LP"),
            ),
            horizon=60,
        ),
        parameter="scenario.sojourn",
        values=(2, 6),
        runs=2,
        seed=5,
        figure="example-optim",
        x_label="λ",
        comparison=ComparisonSpec(baseline="ILP", mode="ratio"),
    )
    versus = run_sweep(showdown)
    print("\nheuristic/ILP paired cost ratios (shared traces):")
    for contrast in ("ONTH", "LP"):
        values = versus.comparison_for(contrast).values
        print("  " + f"{contrast:<5}"
              + ", ".join(f"λ={x}: {v:.3f}"
                          for x, v in zip(versus.x_values, values)))
    exact = run_experiment(
        ExperimentSpec(
            topology=TopologySpec("line", {"n": 3}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("milp-opt", label="MILP-OPT"),),
            horizon=8,
            metrics=(MetricSpec("cost_ratio_vs", {"reference": "OPT"}),),
            seed=11,
        )
    )
    ratio = exact.series["MILP-OPT"]
    assert abs(ratio - 1.0) < 1e-9
    print(
        f"exact MILP optimum / OPT dynamic program = {ratio:.6f} "
        "on a 3-node line;\n"
        "  CLI: ... run --policy onth --policy ilp:epoch=10,label=ILP \\\n"
        "      --compare ILP --compare-mode ratio"
    )


if __name__ == "__main__":
    main()
