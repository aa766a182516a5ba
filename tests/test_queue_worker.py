"""Tests for queue-backed sweep execution (repro.queue.worker, QueueBackend).

The property under test throughout: a sweep drained through the queue —
whatever the worker count, lease churn, or adaptive topping-up — assembles
a figure bit-identical to the plain serial ``run_sweep``.
"""

import json
import pickle
import sqlite3
import threading
from dataclasses import replace

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ProcessPoolBackend, QueueBackend
from repro.api.experiment import capture_sweeps, run_sweep
from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments import ablations
from repro.queue.broker import Broker
from repro.queue.worker import enqueue_sweep, execute_lease, try_finalize, worker_loop


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=1,
        figure="t",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def adaptive_sweep(**overrides) -> SweepSpec:
    """A confidence-driven paired sweep: exercises topup tasks end to end."""
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("onbr", label="ONBR"),
            ),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=1,
        figure="t",
        replication=ReplicationSpec(
            ci_level=0.9, target_halfwidth=0.02, relative=True, max_runs=6
        ),
        comparison=ComparisonSpec(baseline="ONTH"),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def drain(broker, cache, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("idle_exit", 0.2)
    return worker_loop(broker, cache, **kwargs)


@pytest.fixture()
def broker(tmp_path):
    return Broker(tmp_path / "queue.db")


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestEnqueue:
    def test_cold_enqueue_creates_one_task_per_point(self, broker, cache):
        state = enqueue_sweep(broker, cache, small_sweep())
        assert state["status"] == "pending"
        assert state["tasks"] == {"pending": 2}

    def test_job_id_is_the_cache_key(self, broker, cache):
        spec = small_sweep()
        state = enqueue_sweep(broker, cache, spec)
        assert state["job"] == cache.key_for(spec)

    def test_warm_enqueue_touches_nothing(self, broker, cache):
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        state = enqueue_sweep(broker, cache, spec)
        assert state["status"] == "done"
        assert state["cached"] is True
        assert state["tasks"] == {}
        assert broker.stats()["jobs"] == {}  # broker never touched

    def test_requeue_recreates_a_failed_job(self, tmp_path, cache):
        broker = Broker(tmp_path / "queue.db", max_attempts=1)
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        # burn every task's attempt budget, then finalize: job is failed
        while (lease := broker.lease_task("w")) is not None:
            broker.fail(lease, "induced")
        assert try_finalize(broker, job_id, cache) is None
        assert broker.job_state(job_id)["status"] == "failed"
        # plain enqueue leaves the terminal job alone; requeue restarts it
        assert enqueue_sweep(broker, cache, spec)["status"] == "failed"
        fresh = enqueue_sweep(broker, cache, spec, requeue=True)
        assert fresh["status"] == "pending"
        assert fresh["tasks"] == {"pending": 2}


class TestDrainBitIdentity:
    def test_single_worker_matches_serial(self, broker, cache):
        spec = small_sweep()
        serial = run_sweep(spec)
        enqueue_sweep(broker, cache, spec)
        executed = drain(broker, cache)
        assert executed == 2
        assert broker.job_state(cache.key_for(spec))["status"] == "done"
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_two_threaded_workers_match_serial(self, tmp_path):
        spec = small_sweep(values=(2, 3, 4, 5))
        serial = run_sweep(spec)
        path = tmp_path / "queue.db"
        cache_dir = tmp_path / "cache"
        enqueue_sweep(Broker(path), ResultCache(cache_dir), spec)

        def work():
            worker_loop(
                Broker(path), ResultCache(cache_dir), poll=0.02, idle_exit=0.3
            )

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cache = ResultCache(cache_dir)
        assert Broker(path).job_state(cache.key_for(spec))["status"] == "done"
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_adaptive_comparison_sweep_matches_serial(self, broker, cache):
        spec = adaptive_sweep()
        serial = run_sweep(spec)
        enqueue_sweep(broker, cache, spec)
        executed = drain(broker, cache)
        # one point task per point plus one topup task per top-up block:
        # a point whose initial block meets the target chains no topup
        blocks = sum(-(-(n - spec.runs) // spec.runs) for n in serial.counts)
        assert executed == len(spec.values) + blocks
        assert cache.load(spec).to_dict() == serial.to_dict()

    def test_topup_chain_runs_every_batch_in_tasks(self, broker, cache):
        # an unreachable target: each point tops up 2 -> 4 -> 6 = max_runs,
        # so it needs two top-up tasks; a top-up must be able to chain its
        # successor while its own row is still leased
        spec = adaptive_sweep(
            replication=ReplicationSpec(
                ci_level=0.9, target_halfwidth=1e-9, relative=True, max_runs=6
            ),
            comparison=None,
        )
        serial = run_sweep(spec)
        assert serial.counts == (6, 6)
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        while (lease := broker.lease_task("w")) is not None:
            execute_lease(broker, lease, cache)
            assert broker.complete(lease)
        topups = [t for t in broker.tasks_for(job_id) if t["kind"] == "topup"]
        for index in range(len(spec.values)):
            assert sum(t["payload"] == {"point": index} for t in topups) == 2
        stores = cache.extension_stores
        result = try_finalize(broker, job_id, cache)
        assert cache.extension_stores == stores  # finalize simulated nothing
        assert result.to_dict() == serial.to_dict()

    def test_drained_job_answers_warm_on_reenqueue(self, broker, cache):
        spec = small_sweep()
        enqueue_sweep(broker, cache, spec)
        drain(broker, cache)
        again = enqueue_sweep(broker, cache, spec)
        assert again["cached"] is True
        assert again["tasks"] == {}


class TestLeaseExecution:
    def test_point_lease_stores_cache_entry(self, broker, cache):
        spec = small_sweep()
        enqueue_sweep(broker, cache, spec)
        lease = broker.lease_task("w")
        execute_lease(broker, lease, cache)
        index = lease.payload["point"]
        experiment = spec.experiment_at(spec.values[index])
        assert cache.load_point(
            experiment, spec.seed, index * spec.runs, spec.runs
        ) is not None

    def test_point_meeting_its_target_chains_no_topup(self, broker, cache):
        # any two replicates meet a target this loose
        spec = adaptive_sweep(
            replication=ReplicationSpec(
                ci_level=0.9, target_halfwidth=1e12, max_runs=6
            ),
            comparison=None,
        )
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        lease = broker.lease_task("w")
        assert lease.kind == "point"
        execute_lease(broker, lease, cache)
        assert broker.complete(lease)
        kinds = [task["kind"] for task in broker.tasks_for(job_id)]
        assert kinds == ["point", "point"]

    def test_finalize_assembles_after_last_task(self, broker, cache):
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        while (lease := broker.lease_task("w")) is not None:
            execute_lease(broker, lease, cache)
            broker.complete(lease)
        result = try_finalize(broker, job_id, cache)
        assert result is not None
        assert broker.job_state(job_id)["status"] == "done"
        assert cache.load(spec).to_dict() == result.to_dict()

    def test_failed_task_fails_the_job(self, broker, cache):
        spec = small_sweep()
        job_id = enqueue_sweep(broker, cache, spec)["job"]
        own = Broker(broker.path, max_attempts=1)
        while (lease := own.lease_task("w")) is not None:
            own.fail(lease, "simulated crash")
        assert try_finalize(own, job_id, cache) is None
        state = own.job_state(job_id)
        assert state["status"] == "failed"
        assert "simulated crash" in state["error"]


class TestQueueBackend:
    def test_backend_matches_serial(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        pooled = run_sweep(spec, backend=ProcessPoolBackend(2))
        backend = QueueBackend(tmp_path / "queue.db")
        cache = ResultCache(tmp_path / "cache")
        queued = run_sweep(spec, backend=backend, cache=cache)
        assert pooled.to_dict() == serial.to_dict()
        assert queued.to_dict() == serial.to_dict()
        # the sweep ran as an ordinary queue job, left done for re-use
        assert backend.broker.job_state(cache.key_for(spec))["status"] == "done"

    @pytest.mark.parametrize("name, params", [
        ("ablation_routing",
         dict(sizes=(30,), horizon=60, sojourn=5, runs=2, seed=0)),
        ("ablation_beta_over_c",
         dict(ratios=(0.1, 10.0), n=30, horizon=80, runs=2, seed=5)),
    ])
    def test_ported_ablation_is_executor_independent(
        self, tmp_path, name, params
    ):
        figure = getattr(ablations, name)
        serial = figure(**params)
        pooled = figure(**params, backend=ProcessPoolBackend(2))
        queued = figure(
            **params,
            backend=QueueBackend(tmp_path / "queue.db"),
            cache=ResultCache(tmp_path / "cache"),
        )
        assert pooled.to_dict() == serial.to_dict()
        assert queued.to_dict() == serial.to_dict()

    def test_empty_task_list(self, tmp_path):
        # a warm cache answers before the queue sees a single task
        spec = small_sweep()
        cache = ResultCache(tmp_path / "cache")
        serial = run_sweep(spec, cache=cache)
        backend = QueueBackend(tmp_path / "queue.db")
        assert run_sweep(spec, backend=backend, cache=cache) == serial
        assert backend.broker.stats()["jobs"] == {}

    def test_external_worker_drains_backend_job(self, tmp_path):
        spec = small_sweep(values=(2, 3, 4, 5))
        serial = run_sweep(spec)
        path, cache_dir = tmp_path / "queue.db", tmp_path / "cache"
        stop = threading.Event()

        def work():
            worker_loop(
                Broker(path), ResultCache(cache_dir), poll=0.02,
                stop=stop.is_set,
            )

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        try:
            queued = run_sweep(
                spec, backend=QueueBackend(path), cache=ResultCache(cache_dir)
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert queued.to_dict() == serial.to_dict()

    def test_needs_a_cache_and_the_whole_sweep(self, tmp_path):
        backend = QueueBackend(tmp_path / "queue.db")
        with pytest.raises(ValueError, match="cache"):
            run_sweep(small_sweep(), backend=backend)
        with pytest.raises(ValueError, match="shard"):
            run_sweep(
                small_sweep(), backend=backend,
                cache=ResultCache(tmp_path / "cache"), shard=(0, 2),
            )
        assert backend.broker.stats()["jobs"] == {}

    def test_failed_job_raises(self, tmp_path):
        # an odd commuter day length passes spec validation but fails in
        # every replicate, so each task exhausts its single attempt
        spec = small_sweep(
            experiment=replace(
                small_sweep().experiment,
                scenario=ScenarioSpec("commuter", {"period": 3}),
            )
        )
        backend = QueueBackend(Broker(tmp_path / "queue.db", max_attempts=1))
        with pytest.raises(RuntimeError, match="period T must be even"):
            run_sweep(spec, backend=backend, cache=ResultCache(tmp_path / "c"))

    def test_capture_records_only_the_callers_sweep(self, tmp_path):
        # the queue's internal assembly is not a sweep the caller ran
        with capture_sweeps() as captured:
            run_sweep(
                small_sweep(),
                backend=QueueBackend(tmp_path / "queue.db"),
                cache=ResultCache(tmp_path / "cache"),
            )
        assert [spec for spec, _result in captured] == [small_sweep()]


class _TouchOnLoad:
    """Unpickling this creates ``path``: the side effect a worker must
    never run for bytes it reads from the shared queue file."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


#: The queue schema as releases with pickled ``block`` tasks wrote it.
_OLDER_SCHEMA = """
CREATE TABLE jobs (
    id TEXT PRIMARY KEY, kind TEXT NOT NULL, spec TEXT,
    status TEXT NOT NULL DEFAULT 'pending', error TEXT,
    created REAL NOT NULL, updated REAL NOT NULL
);
CREATE TABLE tasks (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    job TEXT NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
    kind TEXT NOT NULL, payload TEXT NOT NULL DEFAULT '{}', blob BLOB,
    status TEXT NOT NULL DEFAULT 'pending', lease TEXT, worker TEXT,
    deadline REAL, attempts INTEGER NOT NULL DEFAULT 0, result BLOB,
    error TEXT, created REAL NOT NULL, updated REAL NOT NULL
);
CREATE INDEX tasks_by_status ON tasks(status, id);
CREATE INDEX tasks_by_job ON tasks(job, status);
"""


class TestQueueFileRows:
    def test_block_row_fails_without_running_its_blob(self, tmp_path):
        marker = tmp_path / "unpickled"
        broker = Broker(tmp_path / "queue.db")
        broker.enqueue_job("old", "block")
        with sqlite3.connect(broker.path) as db:
            db.execute(
                "INSERT INTO tasks (job, kind, payload, blob, status,"
                " created, updated) VALUES ('old', 'block', '{}', ?,"
                " 'pending', 0, 0)",
                (pickle.dumps(_TouchOnLoad(marker)),),
            )
        executed = worker_loop(
            broker, ResultCache(tmp_path / "cache"), poll=0.01, max_tasks=1
        )
        assert executed == 1
        assert not marker.exists()
        (task,) = broker.tasks_for("old")
        assert "unknown task kind 'block'" in task["error"]
        assert "\n" not in task["error"]

    def test_older_queue_file_opens_and_drains(self, tmp_path):
        spec = small_sweep()
        path = tmp_path / "queue.db"
        cache = ResultCache(tmp_path / "cache")
        with sqlite3.connect(path) as db:
            db.executescript(_OLDER_SCHEMA)
            db.execute(
                "INSERT INTO jobs (id, kind, spec, status, created, updated)"
                " VALUES (?, 'sweep', ?, 'pending', 0, 0)",
                (cache.key_for(spec), json.dumps(spec.to_dict(), sort_keys=True)),
            )
            for index in range(len(spec.values)):
                db.execute(
                    "INSERT INTO tasks (job, kind, payload, blob, status,"
                    " created, updated) VALUES (?, 'point', ?, NULL,"
                    " 'pending', 0, 0)",
                    (cache.key_for(spec), json.dumps({"point": index})),
                )
        broker = Broker(path)
        assert drain(broker, cache) == len(spec.values)
        assert broker.job_state(cache.key_for(spec))["status"] == "done"
        assert cache.load(spec).to_dict() == run_sweep(spec).to_dict()
