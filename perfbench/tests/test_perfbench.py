"""Tests for the benchmark itself, at tiny sizes.

The traced runs replay the program's work step by step through its public
calls. These tests pin that replay to the untraced entry points
(``run_sweep``, ``figure02`` / ``simulate``) bit for bit, so the replay
cannot drift from the program's RNG contract unnoticed, and check that the
traced queue loop drains its job.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from recorder import PER_LAYER, LAYER_SECONDS, Recorder, layer_table  # noqa: E402

from repro.experiments.figures import figure03, figure04, figure15  # noqa: E402

SEED = 7


def tiny(name, tmp_path):
    prepare, run, trace = workloads.WORKLOADS[name]
    sizes = workloads.SIZES[name]["tiny"]
    return (
        lambda sub: prepare(SEED, sizes, tmp_path / sub),
        run,
        trace,
    )


def run_both(name, tmp_path):
    prepare, run, trace = tiny(name, tmp_path)
    untraced = run(prepare("untraced"))
    rec = Recorder()
    traced = trace(prepare("traced"), rec)
    return untraced, traced, rec


@pytest.mark.parametrize("name", ["size-sweep", "onth-trajectory", "opt-ratio"])
def test_traced_replay_is_bit_identical(name, tmp_path):
    untraced, traced, rec = run_both(name, tmp_path)
    assert untraced.results and all(ok for _n, ok in untraced.checks + traced.checks)
    assert workloads.digest(traced.results) == workloads.digest(untraced.results)
    assert traced.policy_rounds == untraced.policy_rounds
    assert rec.counters["core.rounds"] == traced.policy_rounds


def test_specs_are_the_figure_specs(tmp_path):
    """The workloads run exactly what the figure functions run."""
    size = workloads.SIZES["size-sweep"]["tiny"]
    prepare, run, _trace = tiny("size-sweep", tmp_path)
    assert workloads.digest(run(prepare("a")).results) == workloads.digest([
        figure03(seed=SEED, **size), figure04(seed=SEED, **size),
    ])
    ratio = workloads.SIZES["opt-ratio"]["tiny"]
    prepare, run, _trace = tiny("opt-ratio", tmp_path)
    assert workloads.digest(run(prepare("b")).results) == workloads.digest(
        [figure15(seed=SEED, **ratio)]
    )


def test_layers_add_up_to_the_wall_time(tmp_path):
    _untraced, _traced, rec = run_both("size-sweep", tmp_path)
    table = layer_table(rec.to_dict(), traced_wall=10.0)
    layers = sum(table[f"{name}_s"] for name in LAYER_SECONDS)
    assert layers + table["harness.unaccounted_s"] == pytest.approx(10.0)
    assert table["core.loop_s"] == pytest.approx(sum(
        table[f"core.loop.{kind}_s"] for kind in ("onth", "onbr", "onbr-dyn")
    ))
    assert set(table) | {"harness.trace_overhead_s"} == {n for n, _u in PER_LAYER}


def test_queue_loops_drain_the_job(tmp_path):
    untraced, traced, rec = run_both("queue-adaptive", tmp_path)
    for outcome in (untraced, traced):
        assert outcome.results and all(ok for _n, ok in outcome.checks)
        assert outcome.tasks_attempted > 0 and outcome.tasks_failed == 0
    assert workloads.digest(traced.results) == workloads.digest(untraced.results)
    state = tiny("queue-adaptive", tmp_path)[0]("serial")
    assert workloads.serial_check("queue-adaptive", state, traced) == [
        ("queue result equals serial run_sweep", True)
    ]
    assert rec.counters["queue.workers"] == workloads.QUEUE_WORKERS
    assert rec.counters["queue.tasks.point"] == 2


def copy_benchmark(tmp_path, with_source: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_source:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def run_benchmark(root: Path, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_contract(tmp_path, trace):
    root = copy_benchmark(tmp_path, with_source=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    done = run_benchmark(root, "--workload", "opt-ratio", "--seed", "3",
                         "--seconds", "0", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert list((root / "perfbench" / "results" / "raw").glob("opt-ratio-seed3-*.json"))


def test_fails_without_the_program(tmp_path):
    root = copy_benchmark(tmp_path, with_source=False)
    done = run_benchmark(root, "--workload", "opt-ratio", "--seconds", "0")
    assert done.returncode != 0
    assert done.stdout == ""
