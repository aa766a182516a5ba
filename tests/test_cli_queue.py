"""Tests for the queue CLI surface: enqueue / worker / serve + error paths.

Every bad invocation must exit 2 with a one-line stderr hint — the same
contract the figure and run commands follow — and the enqueue → worker →
re-enqueue round trip must end on a warm cache hit.
"""

import json

import pytest

from repro.experiments.__main__ import (
    _SUBCOMMANDS,
    build_enqueue_parser,
    build_serve_parser,
    build_worker_parser,
    main,
)

RUN_ARGS = [
    "run", "--policy", "onth", "--topology", "erdos_renyi:n=30",
    "--horizon", "30", "--runs", "1",
    "--sweep", "scenario.sojourn=2,5",
]

ENQUEUE_ARGS = [
    "enqueue", "--policy", "onth", "--topology", "erdos_renyi:n=30",
    "--horizon", "30", "--runs", "1",
    "--sweep", "scenario.sojourn=2,5",
]


def one_line(err: str) -> str:
    """Assert stderr is exactly one line and return it."""
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1, err
    return lines[0]


class TestErrorPaths:
    def test_subcommand_registry_is_complete(self):
        assert set(_SUBCOMMANDS) == {
            "run", "list", "cache", "trace", "enqueue", "worker", "serve",
            "report",
        }

    def test_unknown_subcommand_names_the_alternatives(self, capsys):
        assert main(["serveq"]) == 2
        hint = one_line(capsys.readouterr().err)
        assert "cache, enqueue, list, report, run, serve, trace, worker" in hint

    def test_zero_runs_is_a_flag_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*RUN_ARGS[:-2], "--runs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_queue_path_must_not_be_a_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*RUN_ARGS, "--queue", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_queue_path_must_not_be_empty(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*RUN_ARGS, "--queue", "  "])
        assert excinfo.value.code == 2
        assert "must not be empty" in capsys.readouterr().err

    def test_queue_and_workers_conflict(self, tmp_path, capsys):
        code = main([
            *RUN_ARGS, "--queue", str(tmp_path / "q.db"), "--workers", "2",
        ])
        assert code == 2
        hint = one_line(capsys.readouterr().err)
        assert hint.startswith("error:")
        assert "mutually exclusive" in hint

    @pytest.mark.parametrize("argv", [
        RUN_ARGS,
        ["abl-threshold", "--runs", "1"],
        ["report", "fig13", "--runs", "1"],
        ["run", "--from-bundle", "bundle"],
    ], ids=["run", "figure", "report", "from-bundle"])
    def test_queue_needs_a_cache_dir(self, tmp_path, capsys, argv):
        queue = tmp_path / "q.db"
        assert main([*argv, "--queue", str(queue)]) == 2
        assert "--cache-dir" in one_line(capsys.readouterr().err)
        assert not queue.exists()

    @pytest.mark.parametrize("argv", [
        RUN_ARGS, ["abl-threshold", "--runs", "1"],
    ], ids=["run", "figure"])
    def test_queue_cannot_run_a_shard(self, tmp_path, capsys, argv):
        assert main([
            *argv, "--queue", str(tmp_path / "q.db"),
            "--cache-dir", str(tmp_path / "c"), "--shard", "1/2",
        ]) == 2
        assert "--shard" in one_line(capsys.readouterr().err)

    def test_enqueue_rejects_unknown_policy(self, tmp_path, capsys):
        code = main([
            "enqueue", "--policy", "nope",
            "--queue", str(tmp_path / "q.db"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 2
        assert one_line(capsys.readouterr().err).startswith("error:")

    def test_worker_rejects_nonpositive_ttl(self, tmp_path, capsys):
        code = main([
            "worker", "--queue", str(tmp_path / "q.db"),
            "--cache-dir", str(tmp_path / "cache"), "--ttl", "0",
        ])
        assert code == 2
        assert "--ttl must be > 0" in one_line(capsys.readouterr().err)

    def test_queue_flags_are_required(self, tmp_path, capsys):
        for argv in (
            ["worker", "--cache-dir", str(tmp_path)],
            ["enqueue", "--queue", str(tmp_path / "q.db")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_unopenable_queue_file_is_exit_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"this is not a sqlite database" * 10)
        code = main([
            "worker", "--queue", str(garbage),
            "--cache-dir", str(tmp_path / "cache"), "--idle-exit", "0.1",
        ])
        assert code == 2
        assert "cannot open queue" in one_line(capsys.readouterr().err)


class TestParsers:
    def test_enqueue_defaults(self, tmp_path):
        args = build_enqueue_parser().parse_args([
            "--policy", "onth",
            "--queue", str(tmp_path / "q.db"), "--cache-dir", str(tmp_path),
        ])
        assert args.requeue is False
        assert args.wait is False
        assert args.poll == 0.5

    def test_worker_defaults(self, tmp_path):
        args = build_worker_parser().parse_args([
            "--queue", str(tmp_path / "q.db"), "--cache-dir", str(tmp_path),
        ])
        assert args.ttl is None
        assert args.max_tasks is None
        assert args.idle_exit is None

    def test_serve_defaults(self, tmp_path):
        args = build_serve_parser().parse_args([
            "--queue", str(tmp_path / "q.db"), "--cache-dir", str(tmp_path),
        ])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8765, 0)


class TestRoundTrip:
    def flags(self, tmp_path):
        return [
            "--queue", str(tmp_path / "q.db"),
            "--cache-dir", str(tmp_path / "cache"),
        ]

    def test_enqueue_worker_then_warm_hit(self, tmp_path, capsys):
        flags = self.flags(tmp_path)
        assert main([*ENQUEUE_ARGS, *flags]) == 0
        err = one_line(capsys.readouterr().err)
        assert "enqueued: 2 pending task(s)" in err

        # re-submitting the identical spec does not double the tasks
        assert main([*ENQUEUE_ARGS, *flags]) == 0
        assert "already queued" in one_line(capsys.readouterr().err)

        assert main([
            "worker", *flags, "--poll", "0.02", "--idle-exit", "0.3",
        ]) == 0
        worker_err = capsys.readouterr().err
        assert "exiting after" in worker_err

        # third submission answers warm, prints the figure, enqueues nothing
        assert main([*ENQUEUE_ARGS, *flags]) == 0
        captured = capsys.readouterr()
        assert "cache hit" in captured.err
        assert "nothing enqueued" in captured.err
        assert "sojourn" in captured.out or "ONTH" in captured.out

    def test_enqueue_wait_json_matches_run(self, tmp_path, capsys):
        flags = self.flags(tmp_path)
        assert main([*RUN_ARGS, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)

        assert main([*ENQUEUE_ARGS, *flags]) == 0
        capsys.readouterr()
        assert main(["worker", *flags, "--poll", "0.02", "--idle-exit", "0.3",
                     "--quiet"]) == 0
        quiet_err = capsys.readouterr().err
        assert quiet_err == ""

        assert main([*ENQUEUE_ARGS, *flags, "--wait", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] is True
        serial.pop("elapsed_seconds")
        serial.pop("spec")
        assert payload["result"] == serial

    def test_worker_max_tasks_stops_early(self, tmp_path, capsys):
        flags = self.flags(tmp_path)
        assert main([*ENQUEUE_ARGS, *flags]) == 0
        capsys.readouterr()
        assert main([
            "worker", *flags, "--poll", "0.02", "--max-tasks", "1",
        ]) == 0
        assert "exiting after 1 task(s)" in capsys.readouterr().err

    def test_run_with_queue_backend_prints_backend_label(
        self, tmp_path, capsys
    ):
        queue = str(tmp_path / "q.db")
        assert main([
            *RUN_ARGS, "--queue", queue, "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        out = capsys.readouterr().out
        assert f"backend=queue {queue}" in out
