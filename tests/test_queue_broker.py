"""Tests for the SQLite task broker (repro.queue.broker)."""

import threading
import time

import pytest

from repro.queue.broker import (
    DEFAULT_MAX_ATTEMPTS,
    Broker,
    Heartbeat,
    default_worker_id,
)


@pytest.fixture()
def broker(tmp_path):
    return Broker(tmp_path / "queue.db", ttl=30.0)


def enqueue_points(broker, job="job-1", count=3):
    return broker.enqueue_job(
        job, "sweep", spec={"figure": "t"},
        tasks=[("point", {"point": i}) for i in range(count)],
    )


class TestConstruction:
    def test_rejects_directory_path(self, tmp_path):
        with pytest.raises(ValueError, match="directory"):
            Broker(tmp_path)

    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            Broker(tmp_path / "q.db", ttl=0)

    def test_creates_parent_directories(self, tmp_path):
        Broker(tmp_path / "deep" / "nested" / "q.db")
        assert (tmp_path / "deep" / "nested" / "q.db").exists()

    def test_default_worker_id_mentions_pid(self):
        import os

        assert str(os.getpid()) in default_worker_id()


class TestJobs:
    def test_enqueue_reports_pending_tasks(self, broker):
        state = enqueue_points(broker, count=3)
        assert state["created"] is True
        assert state["status"] == "pending"
        assert state["tasks"] == {"pending": 3}

    def test_enqueue_is_idempotent_on_job_id(self, broker):
        enqueue_points(broker, count=3)
        again = enqueue_points(broker, count=3)
        assert again["created"] is False
        assert again["tasks"] == {"pending": 3}  # not 6

    def test_job_state_unknown_job_is_none(self, broker):
        assert broker.job_state("nope") is None

    def test_delete_job_cascades_to_tasks(self, broker):
        enqueue_points(broker, count=2)
        assert broker.delete_job("job-1") is True
        assert broker.job_state("job-1") is None
        assert broker.stats()["tasks"] == {}

    def test_spec_round_trips(self, broker):
        enqueue_points(broker)
        assert broker.job_state("job-1")["spec"] == {"figure": "t"}

    def test_jobs_listing(self, broker):
        enqueue_points(broker, job="a")
        enqueue_points(broker, job="b")
        assert {state["job"] for state in broker.jobs()} == {"a", "b"}


class TestLeasing:
    def test_lease_serves_oldest_pending_first(self, broker):
        enqueue_points(broker, count=3)
        lease = broker.lease_task("w1")
        assert lease.payload == {"point": 0}
        assert lease.job == "job-1"
        assert lease.job_kind == "sweep"
        assert lease.attempts == 1

    def test_leased_task_is_not_served_twice(self, broker):
        enqueue_points(broker, count=1)
        assert broker.lease_task("w1") is not None
        assert broker.lease_task("w2") is None

    def test_empty_queue_leases_none(self, broker):
        assert broker.lease_task("w1") is None

    def test_complete_marks_done(self, broker):
        enqueue_points(broker, count=1)
        lease = broker.lease_task("w1")
        assert broker.complete(lease) is True
        assert broker.job_state("job-1")["tasks"] == {"done": 1}

    def test_result_blob_round_trips(self, broker):
        enqueue_points(broker, job="j", count=1)
        lease = broker.lease_task("w1")
        broker.complete(lease, b"result-bytes")
        assert broker.tasks_for("j")[0]["result"] == b"result-bytes"

    def test_job_filter(self, broker):
        enqueue_points(broker, job="a", count=1)
        enqueue_points(broker, job="b", count=1)
        lease = broker.lease_task("w", job="b")
        assert lease.job == "b"


class TestExpiry:
    def test_expired_lease_is_reserved_with_attempt_count(self, broker):
        enqueue_points(broker, count=1)
        first = broker.lease_task("w1", ttl=0.05)
        time.sleep(0.1)
        second = broker.lease_task("w2")
        assert second is not None
        assert second.task_id == first.task_id
        assert second.attempts == 2
        assert second.token != first.token

    def test_heartbeat_keeps_lease_alive(self, broker):
        enqueue_points(broker, count=1)
        lease = broker.lease_task("w1", ttl=0.2)
        for _ in range(4):
            time.sleep(0.1)
            assert broker.heartbeat(lease) is True
        assert broker.lease_task("w2") is None  # never expired

    def test_heartbeat_after_reap_is_false(self, broker):
        enqueue_points(broker, count=1)
        lease = broker.lease_task("w1", ttl=0.05)
        time.sleep(0.1)
        broker.lease_task("w2")  # reaps + re-serves
        assert broker.heartbeat(lease) is False

    def test_stale_complete_is_false_and_harmless(self, broker):
        enqueue_points(broker, count=1)
        stale = broker.lease_task("w1", ttl=0.05)
        time.sleep(0.1)
        fresh = broker.lease_task("w2")
        assert broker.complete(stale) is False
        # the fresh owner still completes normally
        assert broker.complete(fresh) is True

    def test_task_fails_after_max_attempts(self, tmp_path):
        broker = Broker(tmp_path / "q.db", max_attempts=2)
        broker.enqueue_job("j", "sweep", tasks=[("point", {"point": 0})])
        for _ in range(2):
            lease = broker.lease_task("w", ttl=0.05)
            assert lease is not None
            time.sleep(0.1)
        broker.release_expired()
        assert broker.lease_task("w") is None
        state = broker.job_state("j")
        assert state["tasks"] == {"failed": 1}

    def test_fail_reserves_until_attempts_run_out(self, tmp_path):
        broker = Broker(tmp_path / "q.db", max_attempts=2)
        broker.enqueue_job("j", "sweep", tasks=[("point", {"point": 0})])
        lease = broker.lease_task("w")
        assert broker.fail(lease, "boom") is True
        assert broker.job_state("j")["tasks"] == {"pending": 1}
        lease = broker.lease_task("w")
        broker.fail(lease, "boom again")
        assert broker.job_state("j")["tasks"] == {"failed": 1}
        assert "boom again" in broker.tasks_for("j")[0]["error"]


class TestAddTask:
    def test_add_task_dedupes_outstanding_payloads(self, broker):
        enqueue_points(broker, count=1)
        assert broker.add_task("job-1", "topup", {"point": 0}) is True
        assert broker.add_task("job-1", "topup", {"point": 0}) is False
        assert broker.job_state("job-1")["tasks"] == {"pending": 2}

    def test_successor_skips_only_its_own_leased_row(self, broker):
        enqueue_points(broker, count=1)
        assert broker.add_task("job-1", "topup", {"point": 0}) is True
        broker.complete(broker.lease_task("w"))  # the point task
        own = broker.lease_task("w")
        assert own.kind == "topup"
        assert broker.add_task("job-1", "topup", {"point": 0}) is False
        assert broker.add_task(
            "job-1", "topup", {"point": 0}, successor_of=own.task_id
        ) is True
        # the successor is pending now, so a second chain link is refused
        assert broker.add_task(
            "job-1", "topup", {"point": 0}, successor_of=own.task_id
        ) is False

    def test_successor_still_blocked_by_another_leased_row(self, broker):
        enqueue_points(broker, count=1)
        broker.complete(broker.lease_task("w"))
        broker.add_task("job-1", "topup", {"point": 0})
        other = broker.lease_task("w1")
        assert broker.add_task(
            "job-1", "topup", {"point": 0}, successor_of=other.task_id
        ) is True
        mine = broker.lease_task("w2")  # ``other`` is still running
        assert mine.task_id != other.task_id
        assert broker.add_task(
            "job-1", "topup", {"point": 0}, successor_of=mine.task_id
        ) is False

    def test_add_task_allows_revisiting_done_payloads(self, broker):
        enqueue_points(broker, count=1)
        lease = broker.lease_task("w")
        broker.complete(lease)
        assert broker.add_task("job-1", "point", {"point": 0}) is True

    def test_add_task_reopens_finished_job(self, broker):
        enqueue_points(broker, count=1)
        broker.complete(broker.lease_task("w"))
        assert broker.claim_finalize("job-1")
        broker.finish_job("job-1", "done")
        broker.add_task("job-1", "topup", {"point": 0})
        assert broker.job_state("job-1")["status"] == "pending"


class TestFinalize:
    def test_claim_requires_drained_job(self, broker):
        enqueue_points(broker, count=2)
        assert broker.claim_finalize("job-1") is False  # pending tasks
        first = broker.lease_task("w")
        broker.complete(first)
        assert broker.claim_finalize("job-1") is False  # one still pending
        broker.complete(broker.lease_task("w"))
        assert broker.claim_finalize("job-1") is True

    def test_claim_has_a_single_winner(self, broker):
        enqueue_points(broker, count=1)
        broker.complete(broker.lease_task("w"))
        assert broker.claim_finalize("job-1") is True
        assert broker.claim_finalize("job-1") is False

    def test_finish_job_done(self, broker):
        enqueue_points(broker, count=1)
        broker.complete(broker.lease_task("w"))
        broker.claim_finalize("job-1")
        broker.finish_job("job-1", "done")
        assert broker.job_state("job-1")["status"] == "done"

    def test_finish_job_rejects_unknown_status(self, broker):
        with pytest.raises(ValueError, match="unknown job status"):
            broker.finish_job("job-1", "bogus")

    def test_finalizable_jobs_lists_drained_unassembled(self, broker):
        enqueue_points(broker, job="a", count=1)
        enqueue_points(broker, job="b", count=1)
        broker.complete(broker.lease_task("w", job="a"))
        assert broker.finalizable_jobs() == ["a"]

    def test_stale_assembling_job_is_reaped(self, tmp_path):
        broker = Broker(tmp_path / "q.db", assembly_ttl=0.05)
        enqueue_points(broker, count=1)
        broker.complete(broker.lease_task("w"))
        assert broker.claim_finalize("job-1") is True
        time.sleep(0.1)
        # the assembler died; the job is claimable again
        assert broker.finalizable_jobs() == ["job-1"]
        assert broker.claim_finalize("job-1") is True


class TestPersistenceAndConcurrency:
    def test_state_survives_broker_instances(self, tmp_path):
        path = tmp_path / "q.db"
        enqueue_points(Broker(path), count=2)
        fresh = Broker(path)
        assert fresh.job_state("job-1")["tasks"] == {"pending": 2}
        assert fresh.lease_task("w") is not None

    def test_concurrent_leasing_never_double_serves(self, tmp_path):
        broker_path = tmp_path / "q.db"
        count = 20
        enqueue_points(Broker(broker_path), count=count)
        seen: "list[int]" = []
        lock = threading.Lock()

        def drain(name):
            own = Broker(broker_path)
            while True:
                lease = own.lease_task(name)
                if lease is None:
                    return
                with lock:
                    seen.append(lease.task_id)
                own.complete(lease)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(seen) == sorted(set(seen))  # no double-serves
        assert len(seen) == count

    def test_heartbeat_thread_extends_until_exit(self, broker):
        enqueue_points(broker, count=1)
        lease = broker.lease_task("w", ttl=0.3)
        with Heartbeat(broker, lease):
            time.sleep(0.8)
            assert broker.lease_task("other") is None  # still held
        assert broker.complete(lease) is True

    def test_default_max_attempts_sane(self):
        assert DEFAULT_MAX_ATTEMPTS >= 2
