"""Tests for the ablation experiments (scaled-down parameters).

``tests/data/golden_ablations.json`` pins every ablation at the parameters
of the smoke tests below. The entries were recorded from the closure
implementations that predate the :class:`~repro.api.specs.SweepSpec`
port, so the ported figures must reproduce them *exactly* — same series
names, same floats — whichever executor runs them.

Regenerate (only when an ablation's output is meant to change) with::

    PYTHONPATH=src python tests/test_ablations.py > tests/data/golden_ablations.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ablations

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_ablations.json"

#: figure id -> (ablation function name, smoke parameters).
CASES = {
    "abl-routing": (
        "ablation_routing",
        dict(sizes=(30,), horizon=60, sojourn=5, runs=2, seed=0),
    ),
    "abl-cache": (
        "ablation_cache_size",
        dict(cache_sizes=(1, 3), n=40, horizon=80, sojourn=5, runs=2, seed=1),
    ),
    "abl-threshold": (
        "ablation_threshold",
        dict(factors=(1.0, 4.0), n=40, horizon=80, sojourn=5, runs=2, seed=2),
    ),
    "abl-migration": (
        "ablation_migration_model",
        dict(horizon=60, sojourn=5, period=4, requests_per_round=5, runs=2,
             seed=3),
    ),
    "abl-mobility": (
        "ablation_mobility_correlation",
        dict(correlations=(0.0, 1.0), n=40, n_users=8, horizon=100, runs=2,
             seed=4),
    ),
    "abl-beta": (
        "ablation_beta_over_c",
        dict(ratios=(0.1, 1.0, 10.0), n=50, horizon=200, runs=2, seed=5),
    ),
}


def run_case(key: str, **overrides):
    name, params = CASES[key]
    return getattr(ablations, name)(**params, **overrides)


class TestRoutingAblation:
    def test_load_aware_never_worse(self):
        result = run_case("abl-routing")
        near = result.y("nearest")
        aware = result.y("load-aware")
        # load-aware routing can only help under convex load
        assert aware[0] <= near[0] * 1.02


class TestCacheAblation:
    def test_structure(self):
        result = run_case("abl-cache")
        assert result.x_values == (1, 3)
        assert set(result.series) == {"ONTH", "ONBR"}
        assert all(np.isfinite(result.y("ONTH")))


class TestThresholdAblation:
    def test_structure(self):
        result = run_case("abl-threshold")
        assert result.x_values == (1.0, 4.0)
        assert all(v > 0 for v in result.y("ONBR total"))


class TestMigrationModelAblation:
    def test_both_models_run(self):
        result = run_case("abl-migration")
        assert set(result.series) == {"constant β", "bandwidth β(u,v)"}
        for name in result.series_names:
            assert result.y(name)[0] > 0


class TestMobilityAblation:
    def test_adaptivity_gap_reported(self):
        result = run_case("abl-mobility")
        assert set(result.series) == {"ONTH", "OFFSTAT", "OFFSTAT/ONTH"}
        ratios = result.y("OFFSTAT/ONTH")
        assert all(np.isfinite(ratios))


class TestBetaOverCAblation:
    def test_migrations_vanish_beyond_parity(self):
        result = run_case("abl-beta")
        migrations = dict(zip(result.x_values, result.y("migrations")))
        # β/c > 1: the pricer never migrates (§II-C model invariant)
        assert migrations[10.0] == 0.0
        assert all(v > 0 for v in result.y("ONTH total"))


def compute_golden() -> dict:
    return {
        key: {
            "function": name,
            "params": params,
            "result": run_case(key).to_dict(),
        }
        for key, (name, params) in CASES.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_ablation(golden):
    assert set(golden) == set(CASES)
    assert {entry["function"] for entry in golden.values()} == {
        name for name, _params in CASES.values()
    }


@pytest.mark.parametrize("key", sorted(CASES))
def test_ablation_bit_identical_to_closure_implementation(key, golden):
    assert run_case(key).to_dict() == golden[key]["result"]


if __name__ == "__main__":
    json.dump(compute_golden(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
