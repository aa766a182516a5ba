"""Cross-module property-based tests (hypothesis).

These pin the library's global invariants on randomly generated instances:
OPT optimality against every online policy, ledger accounting identities
and sign constraints, cost monotonicity in the migration price, spec
serialisation round-trips, trace/scenario conservation laws, and the
consistency between candidate prediction and pricing.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms._families import apply_choice, enumerate_choices
from repro.algorithms.onbr import OnBR
from repro.algorithms.onth import OnTH
from repro.algorithms.opt import Opt
from repro.api.registry import resolve_policy
from repro.api.specs import (
    ComparisonSpec,
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.servercache import InactiveServerCache
from repro.core.simulator import simulate
from repro.core.transitions import price_transition
from repro.topology.generators import line
from repro.workload.base import Trace

SUB = line(5, seed=0, unit_latency=False, latency_range=(5, 20))
SLOW = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_trace(rng, n_nodes=5, rounds=8, max_requests=4):
    return Trace(
        tuple(
            rng.integers(0, n_nodes, size=rng.integers(0, max_requests + 1))
            for _ in range(rounds)
        )
    )


@st.composite
def cost_models(draw):
    beta = draw(st.sampled_from([1.0, 10.0, 40.0, 400.0]))
    creation = draw(st.sampled_from([5.0, 40.0, 400.0]))
    run_active = draw(st.sampled_from([0.5, 2.5, 10.0]))
    return CostModel(
        migration=beta,
        creation=creation,
        run_active=run_active,
        run_inactive=min(0.5, run_active),
    )


#: Every registered online policy with a no-argument construction — each
#: produces a feasible schedule, so OPT lower-bounds all of them.
_ONLINE_POLICY_KINDS = ("onth", "onbr", "onbr-dyn", "onconf", "wfa")


@settings(max_examples=20, **SLOW)
@given(seed=st.integers(0, 10_000), costs=cost_models())
def test_opt_lower_bounds_online_policies(seed, costs):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng)
    opt_cost, _ = Opt.solve(SUB, trace, costs)
    for kind in _ONLINE_POLICY_KINDS:
        online = simulate(SUB, resolve_policy(kind)(), trace, costs, seed=1)
        assert opt_cost <= online.total_cost + 1e-6, kind


@settings(max_examples=20, **SLOW)
@given(seed=st.integers(0, 10_000), costs=cost_models())
def test_ledger_accounting_identity(seed, costs):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, rounds=12)
    result = simulate(SUB, OnTH(), trace, costs, seed=2)
    assert result.total_cost == pytest.approx(
        float(
            result.latency_cost.sum()
            + result.load_cost.sum()
            + result.running_cost.sum()
            + result.migration_cost.sum()
            + result.creation_cost.sum()
        )
    )
    # every ledger component non-negative; server census sane
    for component in ("latency_cost", "load_cost", "running_cost",
                      "migration_cost", "creation_cost", "access_cost",
                      "migrations", "creations", "n_requests"):
        assert (getattr(result, component) >= 0).all(), component
    assert (result.n_active >= 1).all()


@settings(max_examples=20, **SLOW)
@given(
    seed=st.integers(0, 10_000),
    betas=st.lists(
        st.sampled_from([0.0, 1.0, 10.0, 40.0, 100.0, 400.0]),
        min_size=2, max_size=2, unique=True,
    ),
)
def test_opt_cost_monotone_in_migration_cost(seed, betas):
    """Raising β cannot lower the optimum: every schedule's cost is
    non-decreasing in the per-migration price, hence so is the minimum."""
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, rounds=8, max_requests=3)
    low, high = sorted(betas)
    cheap, _ = Opt.solve(
        SUB, trace, CostModel(migration=low, creation=100.0, run_inactive=0.5)
    )
    dear, _ = Opt.solve(
        SUB, trace, CostModel(migration=high, creation=100.0, run_inactive=0.5)
    )
    assert cheap <= dear + 1e-9


@settings(max_examples=20, **SLOW)
@given(seed=st.integers(0, 10_000))
def test_opt_cost_monotone_in_horizon(seed):
    """Serving a prefix can never cost more than serving the whole trace."""
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, rounds=8, max_requests=3)
    costs = CostModel.paper_default()
    full, _ = Opt.solve(SUB, trace, costs)
    prefix, _ = Opt.solve(SUB, trace.window(0, 4), costs)
    assert prefix <= full + 1e-9


@settings(max_examples=30, **SLOW)
@given(
    seed=st.integers(0, 10_000),
    active=st.sets(st.integers(0, 4), min_size=1, max_size=3),
    cached=st.sets(st.integers(0, 4), max_size=2),
    costs=cost_models(),
)
def test_choice_predictions_match_pricer(seed, active, cached, costs):
    """Family predictions equal pricer charges for arbitrary states."""
    cached = cached - active
    rng = np.random.default_rng(seed)
    rounds = [rng.integers(0, 5, size=3) for _ in range(2)]
    batch = RequestBatch(SUB, costs, rounds)
    config = Configuration.of(active, cached)

    def fresh_cache():
        cache = InactiveServerCache(max_size=3)
        for node in cached:
            cache.push(node)
        return cache

    for choice in enumerate_choices(batch, config, fresh_cache(), costs):
        cache = fresh_cache()
        new_config = apply_choice(choice, config, cache)
        charged = price_transition(config, new_config, costs).cost
        assert charged == pytest.approx(choice.transition_cost), choice.kind


@settings(max_examples=25, **SLOW)
@given(
    seed=st.integers(0, 10_000),
    beta=st.sampled_from([1.0, 40.0, 400.0]),
)
def test_simulated_policy_cost_deterministic(seed, beta):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, rounds=10)
    costs = CostModel(migration=beta, creation=100.0, run_inactive=0.5)
    a = simulate(SUB, OnTH(), trace, costs, seed=9).total_cost
    b = simulate(SUB, OnTH(), trace, costs, seed=9).total_cost
    assert a == b


@settings(max_examples=20, **SLOW)
@given(seed=st.integers(0, 10_000))
def test_transition_triangle_inequality_via_intermediate(seed):
    """Direct transition is never dearer than any two-step route."""
    rng = np.random.default_rng(seed)
    costs = CostModel.paper_default()

    def random_config():
        nodes = rng.permutation(5)
        n_act = int(rng.integers(1, 3))
        n_inact = int(rng.integers(0, 2))
        return Configuration(
            tuple(int(v) for v in nodes[:n_act]),
            tuple(int(v) for v in nodes[n_act: n_act + n_inact]),
        )

    a, b, c = random_config(), random_config(), random_config()
    direct = price_transition(a, c, costs).cost
    two_step = price_transition(a, b, costs).cost + price_transition(b, c, costs).cost
    assert direct <= two_step + 1e-9


# ---------------------------------------------------------------------------
# Spec serialisation: to_dict -> JSON -> from_dict is lossless
# ---------------------------------------------------------------------------

#: Component/parameter names: non-empty, no surrounding whitespace (specs
#: strip kinds and labels, so padded names would not round-trip verbatim).
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=10
)

#: JSON-safe parameter scalars, plus one level of list nesting (specs
#: freeze sequences to tuples on both construction and from_dict).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    _names,
)
_params = st.dictionaries(
    _names, st.one_of(_scalars, st.lists(_scalars, max_size=3)), max_size=3
)


@st.composite
def cost_specs(draw):
    load = draw(st.sampled_from(["linear", "quadratic", "power"]))
    run_active = draw(st.floats(0, 100, allow_nan=False))
    return CostSpec(
        migration=draw(st.floats(0, 1e4, allow_nan=False)),
        creation=draw(st.floats(0, 1e4, allow_nan=False)),
        run_active=run_active,
        # the cost model rejects idle servers dearer than active ones
        run_inactive=draw(st.floats(0, run_active, allow_nan=False)),
        wireless_hop=draw(st.floats(0, 10, allow_nan=False)),
        load=load,
        load_exponent=draw(st.floats(1.0, 3.0, allow_nan=False)),
    )


@st.composite
def experiment_specs(draw):
    policies = []
    labels = draw(
        st.lists(_names, min_size=1, max_size=3, unique=True)
    )
    for label in labels:
        policies.append(
            PolicySpec(
                kind=draw(_names),
                params=draw(_params),
                label=label,
                costs=draw(st.none() | cost_specs()),
                scenario=(
                    ScenarioSpec(draw(_names), draw(_params))
                    if draw(st.booleans())
                    else None
                ),
            )
        )
    metric_kinds = draw(st.lists(_names, min_size=1, max_size=2, unique=True))
    return ExperimentSpec(
        topology=TopologySpec(draw(_names), draw(_params)),
        scenario=ScenarioSpec(draw(_names), draw(_params)),
        policies=tuple(policies),
        costs=draw(cost_specs()),
        horizon=draw(st.integers(1, 10_000)),
        routing=draw(st.sampled_from(["nearest", "load_aware"])),
        seed=draw(st.integers(0, 2**31)),
        name=draw(st.one_of(st.just(""), _names)),
        metrics=tuple(MetricSpec(kind, draw(_params)) for kind in metric_kinds),
    )


@st.composite
def replication_specs(draw):
    runs = draw(st.none() | st.integers(1, 10))
    adaptive = draw(st.booleans())
    floor = runs if runs is not None else 1
    if adaptive:
        max_runs = draw(st.integers(floor, 50))
        ci_level = draw(st.floats(0.5, 0.999, allow_nan=False))
        target = draw(st.floats(0.001, 1e3, allow_nan=False))
    else:
        max_runs = draw(st.none() | st.integers(floor, 50))
        ci_level = draw(st.floats(0.0, 0.999, allow_nan=False))
        target = None
    return ReplicationSpec(
        runs=runs,
        max_runs=max_runs,
        ci_level=ci_level,
        target_halfwidth=target,
        relative=draw(st.booleans()),
        batch=draw(st.none() | st.integers(1, 10)),
        method=draw(st.sampled_from(["t", "bootstrap"])),
    )


@st.composite
def comparison_specs(draw, with_target=False):
    baseline = draw(_names)
    contrasts = draw(
        st.just(())
        | st.lists(
            _names.filter(lambda n: n != baseline),
            min_size=1, max_size=2, unique=True,
        ).map(tuple)
    )
    return ComparisonSpec(
        baseline=baseline,
        contrasts=contrasts,
        mode=draw(st.sampled_from(["diff", "ratio"])),
        ci_level=draw(st.floats(0.5, 0.999, allow_nan=False)),
        # a comparison target is only legal on adaptive sweeps
        target_halfwidth=(
            draw(st.none() | st.floats(0.001, 1e3, allow_nan=False))
            if with_target
            else None
        ),
        relative=draw(st.booleans()),
        method=draw(st.sampled_from(["t", "bootstrap"])),
    )


@st.composite
def sweep_specs(draw):
    experiment = draw(experiment_specs())
    shape = draw(st.sampled_from(["none", "horizon", "component", "coupled"]))
    if shape == "none":
        parameter, values = None, draw(
            st.lists(_scalars.filter(lambda v: v is not None),
                     min_size=1, max_size=3).map(tuple)
        )
    elif shape == "horizon":
        parameter = "horizon"
        values = tuple(draw(st.lists(st.integers(1, 1000), min_size=1,
                                     max_size=4)))
    elif shape == "component":
        parameter = f"scenario.{draw(_names)}"
        values = tuple(draw(st.lists(_scalars, min_size=1, max_size=4)))
    else:
        paths = (f"scenario.{draw(_names)}", f"topology.{draw(_names)}")
        values = tuple(
            (draw(_scalars), draw(_scalars))
            for _ in range(draw(st.integers(1, 3)))
        )
        parameter = paths
    replication = draw(st.none() | replication_specs())
    adaptive = replication is not None and replication.adaptive
    # an adaptive spec starting above its max_runs cap is invalid
    runs_cap = (
        min(10, replication.max_runs)
        if adaptive and replication.runs is None
        else 10
    )
    return SweepSpec(
        experiment=experiment,
        parameter=parameter,
        values=values,
        runs=draw(st.integers(1, runs_cap)),
        seed=draw(st.integers(0, 2**31)),
        figure=draw(_names),
        title=draw(st.one_of(st.just(""), _names)),
        x_label=draw(st.one_of(st.just(""), _names)),
        notes=draw(st.one_of(st.just(""), _names)),
        replication=replication,
        comparison=draw(
            st.none() | comparison_specs(with_target=adaptive)
        ),
    )


@settings(max_examples=50, **SLOW)
@given(spec=experiment_specs())
def test_experiment_spec_round_trips_losslessly(spec):
    restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.cache_key() == spec.cache_key()


@settings(max_examples=50, **SLOW)
@given(spec=sweep_specs())
def test_sweep_spec_round_trips_losslessly(spec):
    restored = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.cache_key() == spec.cache_key()
    # the restored sweep substitutes points identically
    for value in spec.values:
        assert restored.experiment_at(value) == spec.experiment_at(value)
