"""Bit-identity regression pins for the spec-ported figures.

``tests/data/golden_figures.json`` pins small, deterministic
parameterisations of every sweep-based figure: figures 3, 5-6, 8, 11,
13-19 and the Rocketfuel table were generated by the pre-metric-pipeline
closure implementations; figures 4, 7, 9-10 were pinned from the
whole-sweep ``run_sweep`` path before per-point caching and sharded
execution landed underneath it. Current code must reproduce those outputs
*exactly* — the same randomness stream, the same series names, the same
floats — so any refactor that perturbs the replicate execution order or
the sample aggregation shows up here as a bit-level diff rather than a
silent result drift.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import figures

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_figures.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: golden key -> figure function name (figNN keys map by number).
_SPECIAL = {"rocketfuel": "rocketfuel_table"}


def _figure_fn(key: str):
    name = _SPECIAL.get(key, f"figure{key[3:]}")
    return getattr(figures, name)


def _params(entry: dict) -> dict:
    # JSON turned the tuple-valued parameters (sizes, lambdas, periods)
    # into lists; the figure functions were called with tuples.
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in entry["params"].items()
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_figure_bit_identical_to_closure_implementation(key):
    entry = GOLDEN[key]
    result = _figure_fn(key)(**_params(entry)).to_dict()
    assert result == entry["result"]


def test_golden_file_covers_the_ported_figures():
    # Every spec-ported figure is pinned: the bespoke-closure ports (5-6,
    # 11, 13-19, rocketfuel) plus all plain sweep ports (3-4, 7-10), so the
    # per-point cache/shard machinery underneath run_sweep is regression-
    # locked against every figure it serves. Only the trajectory figures
    # (1-2) and the single-run curve (12) are absent — they do not sweep.
    expected = {"fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
                "fig09", "fig10", "fig11", "fig13", "fig14", "fig15",
                "fig16", "fig17", "fig18", "fig19", "rocketfuel"}
    assert set(GOLDEN) == expected


def test_fig03_then_fig04_run_dijkstra_once_per_graph(monkeypatch):
    # fig04 rebuilds fig03's seeded graphs byte for byte, so in one process
    # the distance cache answers every fig04 replicate: Dijkstra runs once
    # per (size, replicate) and both figures still match their goldens.
    from scipy.sparse.csgraph import dijkstra

    from repro.topology import substrate

    assert GOLDEN["fig03"]["params"] == GOLDEN["fig04"]["params"]
    substrate._DISTANCES.clear()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(substrate, "dijkstra", counting)
    for key in ("fig03", "fig04"):
        assert _figure_fn(key)(**_params(GOLDEN[key])).to_dict() == GOLDEN[key]["result"]
    params = GOLDEN["fig03"]["params"]
    assert len(calls) == len(params["sizes"]) * params["runs"]
