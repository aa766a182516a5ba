"""Full-ledger regression pins for the single-service round loop.

``tests/data/golden_ledgers.json`` maps every case of the matrix below to
the sha256 digest of its complete :class:`~repro.core.results.RunResult`
ledger (all ten columns plus the policy and scenario names). The digests
were recorded from the round-by-round loop that predates the gather-backed
one, so a refactor of the loop, the cost evaluator or the ledger writer
that moves a single ULP in any round shows up here.

The matrix crosses policies (online, offline and an OPT plan replay),
scenarios, load functions, routing strategies, node strengths and trace
input (materialised vs streaming). Streaming online runs evaluate their
epochs on standalone request windows while materialised runs share one
distance gather, so the pairs also pin those two sources to each other.

Regenerate (only when a ledger change is intended) with::

    PYTHONPATH=src python tests/test_golden_ledgers.py > tests/data/golden_ledgers.json
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import OffBR, OffStat, OnBR, OnConf, OnTH, Opt, StaticPolicy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.load import LinearLoad, QuadraticLoad
from repro.core.routing import RoutingStrategy
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi, line
from repro.topology.substrate import Substrate
from repro.traces.streaming import StreamingTrace
from repro.workload.base import as_trace
from repro.workload.commuter import CommuterScenario
from repro.workload.timezones import TimeZoneScenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_ledgers.json"

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

POLICIES = ("onth", "onbr", "onbr-dyn", "static", "onconf", "offstat", "offbr", "opt")
SCENARIOS = ("commuter-dynamic", "commuter-static", "timezones")
LOADS = ("linear", "quadratic")
ROUTINGS = ("nearest", "load_aware")
STRENGTHS = ("uniform", "nonuniform")
INPUTS = ("materialised", "streaming")

HORIZON = 60
TRACE_SEED = 20110330


def ledger_digest(run) -> str:
    """sha256 of a run's names and every ledger column's bytes."""
    digest = hashlib.sha256()
    digest.update(run.policy_name.encode())
    digest.update(b"\0")
    digest.update(run.scenario_name.encode())
    for field in LEDGER_FIELDS:
        column = getattr(run, field)
        dtype = np.float64 if field.endswith("cost") else np.int64
        digest.update(field.encode())
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


def _substrate(policy: str, strengths: str) -> Substrate:
    # OPT's dynamic program enumerates 3^n states: it gets the 5-node line.
    base = (
        line(5, seed=np.random.default_rng(5), unit_latency=False)
        if policy == "opt"
        else erdos_renyi(n=14, p=0.3, seed=np.random.default_rng(14))
    )
    if strengths == "uniform":
        return base
    weights = np.random.default_rng(3).uniform(0.5, 2.0, base.n)
    return Substrate(base.n, base.links, strengths=weights)


def _scenario(name: str, substrate: Substrate):
    if name == "timezones":
        return TimeZoneScenario(
            substrate, period=4, sojourn=4, requests_per_round=8
        )
    return CommuterScenario(
        substrate, period=8, dynamic_load=name == "commuter-dynamic"
    )


def _policy(name: str, substrate: Substrate):
    if name == "onth":
        return OnTH()
    if name == "onbr":
        return OnBR()
    if name == "onbr-dyn":
        return OnBR(dynamic_threshold=True)
    if name == "static":
        far = int(np.argmax(substrate.distances[substrate.center]))
        return StaticPolicy(Configuration((substrate.center, far), ()))
    if name == "onconf":
        return OnConf()
    if name == "offstat":
        return OffStat()
    if name == "offbr":
        return OffBR()
    return Opt()


def run_case(policy, scenario, load, routing, strengths, trace_input):
    """Simulate one matrix case and return its :class:`RunResult`."""
    substrate = _substrate(policy, strengths)
    # Cheap moves (β=4, c=40) keep every policy busy on a 60-round trace.
    costs = CostModel(
        migration=4.0, creation=40.0,
        load=QuadraticLoad() if load == "quadratic" else LinearLoad(),
    )
    trace = StreamingTrace(
        _scenario(scenario, substrate), HORIZON, seed=TRACE_SEED
    )
    if trace_input == "materialised":
        trace = as_trace(trace)
    return simulate(
        substrate, _policy(policy, substrate), trace, costs,
        routing=RoutingStrategy(routing), seed=np.random.default_rng(7),
    )


CASES = list(itertools.product(POLICIES, SCENARIOS, LOADS, ROUTINGS, STRENGTHS, INPUTS))


def case_id(case) -> str:
    return "/".join(case)


def compute_digests() -> dict:
    return {case_id(case): ledger_digest(run_case(*case)) for case in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_matrix(golden):
    assert set(golden) == {case_id(case) for case in CASES}


@pytest.mark.parametrize("policy", POLICIES)
def test_ledgers_match_the_recorded_digests(policy, golden):
    diverged = [
        case_id(case)
        for case in CASES
        if case[0] == policy
        and ledger_digest(run_case(*case)) != golden[case_id(case)]
    ]
    assert not diverged, f"ledgers diverged from the golden digests: {diverged}"


def test_streaming_and_materialised_ledgers_agree(golden):
    for case in CASES:
        if case[-1] == "streaming":
            twin = case[:-1] + ("materialised",)
            assert golden[case_id(case)] == golden[case_id(twin)], case_id(case)


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
