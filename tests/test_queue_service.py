"""Tests for the what-if results service (repro.queue.service)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.cache import ResultCache
from repro.api.experiment import run_sweep
from repro.api.specs import (
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.queue.broker import Broker
from repro.queue.service import ResultsServer
from repro.queue.worker import worker_loop


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


@pytest.fixture()
def server(tmp_path):
    instance = ResultsServer(
        ("127.0.0.1", 0), tmp_path / "queue.db", tmp_path / "cache"
    )
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def request(server, path, body=None):
    """(status, decoded JSON) for one request; POST when a body is given."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        server.url + path,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        assert request(server, "/healthz") == (200, {"ok": True})

    def test_unknown_get_is_404(self, server):
        status, payload = request(server, "/nope")
        assert status == 404
        assert "nope" in payload["error"]

    def test_unknown_post_is_404(self, server):
        status, payload = request(server, "/jobs", body={})
        assert status == 404

    def test_unknown_job_is_404(self, server):
        status, payload = request(server, "/jobs/does-not-exist")
        assert status == 404
        assert "does-not-exist" in payload["error"]

    def test_malformed_spec_is_400(self, server):
        status, payload = request(server, "/sweep", body={"figure": 42})
        assert status == 400
        assert "malformed sweep spec" in payload["error"]

    def test_max_runs_below_initial_runs_is_400_with_nothing_enqueued(
        self, server
    ):
        body = small_sweep().to_dict()
        body["runs"] = 6
        body["replication"] = ReplicationSpec(
            target_halfwidth=1.0, max_runs=3
        ).to_dict()
        status, payload = request(server, "/sweep", body=body)
        assert status == 400
        assert "max_runs" in payload["error"]
        assert "\n" not in payload["error"]
        stats = server.broker.stats()
        assert stats["jobs"] == {} and stats["tasks"] == {}

    def test_stats_cover_broker_and_cache(self, server):
        status, payload = request(server, "/stats")
        assert status == 200
        assert payload["jobs"] == {}
        assert "cache" in payload


class TestSweepLifecycle:
    def test_cold_post_enqueues_and_accepts(self, server):
        spec = small_sweep()
        status, payload = request(server, "/sweep", body=spec.to_dict())
        assert status == 202
        assert payload["status"] == "pending"
        assert payload["cached"] is False
        assert payload["tasks"] == {"pending": 2}
        assert payload["poll"] == f"/jobs/{payload['job']}"
        # the job is visible and resubmission does not double the tasks
        status, state = request(server, payload["poll"])
        assert status == 200
        assert state["tasks"] == {"pending": 2}
        status, again = request(server, "/sweep", body=spec.to_dict())
        assert status == 202
        assert again["tasks"] == {"pending": 2}

    def test_envelope_body_is_accepted(self, server):
        status, payload = request(
            server, "/sweep", body={"sweep": small_sweep().to_dict()}
        )
        assert status == 202

    def test_warm_post_answers_from_cache_with_no_tasks(self, server):
        spec = small_sweep()
        serial = run_sweep(spec, cache=server.cache())
        status, payload = request(server, "/sweep", body=spec.to_dict())
        assert status == 200
        assert payload["cached"] is True
        assert payload["status"] == "done"
        assert payload["result"] == serial.to_dict()
        # acceptance property: nothing was enqueued anywhere
        assert server.broker.stats()["jobs"] == {}
        assert server.broker.stats()["tasks"] == {}

    def test_poll_to_done_attaches_result(self, server):
        spec = small_sweep()
        serial = run_sweep(spec)
        _, accepted = request(server, "/sweep", body=spec.to_dict())
        worker_loop(
            Broker(server.broker.path),
            server.cache(),
            poll=0.02,
            idle_exit=0.2,
        )
        status, state = request(server, accepted["poll"])
        assert status == 200
        assert state["status"] == "done"
        assert state["result"] == serial.to_dict()
        # job listing shows it too
        status, listing = request(server, "/jobs")
        assert [job["job"] for job in listing["jobs"]] == [accepted["job"]]

    def test_in_process_workers_complete_jobs(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        instance = ResultsServer(
            ("127.0.0.1", 0), tmp_path / "queue.db", tmp_path / "cache"
        )
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        instance.start_workers(2, poll=0.02)
        try:
            _, accepted = request(instance, "/sweep", body=spec.to_dict())
            deadline = threading.Event()
            for _ in range(200):  # up to ~20s
                status, state = request(instance, accepted["poll"])
                if state["status"] in ("done", "failed"):
                    break
                deadline.wait(0.1)
            assert state["status"] == "done"
            assert state["result"] == serial.to_dict()
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=5)

    def test_restart_loses_nothing(self, tmp_path):
        """Kill the server; queue file + cache dir carry the state."""
        spec = small_sweep()
        first = ResultsServer(
            ("127.0.0.1", 0), tmp_path / "queue.db", tmp_path / "cache"
        )
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        _, accepted = request(first, "/sweep", body=spec.to_dict())
        first.shutdown()
        first.server_close()
        thread.join(timeout=5)

        second = ResultsServer(
            ("127.0.0.1", 0), tmp_path / "queue.db", tmp_path / "cache"
        )
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            status, state = request(second, accepted["poll"])
            assert status == 200
            assert state["tasks"] == {"pending": 2}
        finally:
            second.shutdown()
            second.server_close()
            thread.join(timeout=5)
