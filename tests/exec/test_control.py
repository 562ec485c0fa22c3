"""Tests for the control plane and the shared-secret handshake.

Covers the tentpole's trust model (HMAC challenge/response, mutual proof,
rejection *before* any job frame) and the ``repro workers`` verb: ``list``
snapshots the fleet, ``drain`` waits out in-flight jobs before retiring
anyone, and ``scale`` shrinks the fleet without losing a single queued job.
"""

import queue
import re
import socket
import threading
import time

import pytest

from repro.exec import ControlClient, ControlError, RemoteBackend, run_worker
from repro.exec.queue import JobQueue
from repro.exec.wire import auth_mac, recv_message, send_message
from repro.exec.worker import WorkerRejected, parse_hostport
from repro.simulation.runner import ParallelRunner
from test_remote import (
    backend_on_ephemeral_port,
    coordinator_readers,
    scripted_peer,
    start_worker,
    tiny_spec,
    wait_for,
)

#: How long a sweep may go without finishing a job before a test calls it hung.
STALL_SECONDS = 60.0


def execute_in_thread(backend, specs) -> tuple[threading.Thread, list]:
    """Run a sweep on a background thread; returns (thread, results-or-error)."""
    outcome = []

    def sweep():
        try:
            outcome.append(ParallelRunner(backend=backend).run_specs(specs))
        except Exception as error:  # surfaced by the test, not swallowed
            outcome.append(error)

    thread = threading.Thread(target=sweep, daemon=True)
    thread.start()
    return thread, outcome


class TestHandshake:
    def test_matching_secret_serves_jobs(self):
        specs = [tiny_spec("tiny-auth", seed=3)]
        backend, address = backend_on_ephemeral_port(secret="hunter2")
        start_worker(address, "authed", secret="hunter2")
        report = ParallelRunner(backend=backend).run_specs(specs)
        assert [r.worker for r in report.results] == ["authed"]

    def test_wrong_secret_rejected_before_any_job_frame(self):
        """A wrong MAC gets a reject and EOF; no job (or any other) frame
        ever crosses the wire."""
        backend, address = backend_on_ephemeral_port(secret="right")
        backend.listen()
        host, port = parse_hostport(address)
        with socket.create_connection((host, port), timeout=5.0) as sock:
            send_message(sock, {"type": "hello", "worker": "mallory", "capacity": 1, "pid": 0})
            challenge = recv_message(sock)
            assert challenge["type"] == "challenge"
            send_message(sock, {"type": "auth", "mac": auth_mac("wrong", challenge["nonce"])})
            reply = recv_message(sock)
            assert reply == {"type": "reject", "reason": "authentication failed"}
            assert recv_message(sock) is None  # connection closed; nothing followed
        assert backend.connected_workers() == 0
        backend.close()

    def test_missing_secret_rejected(self):
        """A worker without the secret cannot answer the challenge."""
        backend, address = backend_on_ephemeral_port(secret="right")
        backend.listen()
        with pytest.raises(WorkerRejected, match="requires a shared secret"):
            run_worker(address, worker_id="naive", retry_seconds=2.0)
        assert backend.connected_workers() == 0
        backend.close()

    def test_worker_refuses_unauthenticated_coordinator(self):
        """Mutual auth: a worker configured with a secret never serves a
        coordinator that cannot prove knowledge of it."""
        backend, address = backend_on_ephemeral_port()  # no secret
        backend.listen()
        with pytest.raises(WorkerRejected, match="prove knowledge"):
            run_worker(address, worker_id="wary", secret="hunter2", retry_seconds=2.0)
        backend.close()

    def test_rejection_is_fatal_even_for_daemons(self):
        """A daemon redials on link loss but not on rejection — redialling a
        coordinator that refused the secret would loop forever."""
        backend, address = backend_on_ephemeral_port(secret="right")
        backend.listen()
        with pytest.raises(WorkerRejected):
            run_worker(
                address, worker_id="d", secret="wrong", daemon=True, retry_seconds=2.0
            )
        backend.close()

    def test_welcome_precedes_the_first_job_frame(self, monkeypatch):
        """A worker that joins a waiting sweep gets its welcome before any
        job frame, however long the welcome takes to build: a job frame that
        overtook it would fail the worker's handshake."""
        from repro.exec import coordinator

        build_mac = coordinator.coordinator_mac

        def slow_mac(secret, nonce):
            time.sleep(0.3)  # three polls of a sweep waiting for workers
            return build_mac(secret, nonce)

        monkeypatch.setattr(coordinator, "coordinator_mac", slow_mac)
        specs = [tiny_spec("tiny-welcome", seed=4)]
        backend, address = backend_on_ephemeral_port(secret="hunter2", wait_timeout=5.0)
        thread, outcome = execute_in_thread(backend, specs)
        errors = []

        def serve():
            try:
                run_worker(address, worker_id="w-welcome", secret="hunter2", retry_seconds=5.0)
            except WorkerRejected as error:
                errors.append(error)

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        try:
            thread.join(timeout=30)
            worker.join(timeout=5)
            assert errors == []
            assert not thread.is_alive() and outcome, "the sweep hung"
            report = outcome[0]
            assert not isinstance(report, Exception), report
            assert [r.worker for r in report.results] == ["w-welcome"]
        finally:
            backend.close()

    def test_control_session_requires_secret_too(self):
        backend, address = backend_on_ephemeral_port(secret="right")
        backend.listen()
        with pytest.raises(ControlError, match="refused|authentication"):
            ControlClient(address, secret="wrong")
        with ControlClient(address, secret="right") as fleet:
            assert fleet.list()["workers"] == []
        backend.close()


class TestWorkersList:
    def test_fleet_snapshot_shows_workers_and_queue(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-list", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        try:
            with ControlClient(address) as fleet:
                view = fleet.list()
            assert view["sweeping"] is False
            assert view["queue"] is None
            (row,) = view["workers"]
            assert row["worker"] == "w-list"
            assert row["daemon"] is True
            assert row["capacity"] == 1
            assert row["in_flight"] == 0
            assert row["jobs_done"] == 0
            assert row["status"] == "ok"
        finally:
            backend.drain()
            backend.close()

    def test_jobs_done_counts_after_a_sweep(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-count", daemon=True)
        try:
            ParallelRunner(backend=backend).run_specs(specs)
            with ControlClient(address) as fleet:
                (row,) = fleet.list()["workers"]
            assert row["jobs_done"] == 2
        finally:
            backend.drain()
            backend.close()

    def test_unknown_command_reports_control_error(self):
        backend, address = backend_on_ephemeral_port()
        backend.listen()
        with ControlClient(address) as fleet:
            with pytest.raises(ControlError, match="unknown control command"):
                fleet._command({"type": "mystery"}, expect="anything")
        backend.close()


class TestDrain:
    def test_drain_waits_for_in_flight_jobs(self):
        """A drain issued mid-job lets the job finish (the result is
        delivered, the report is complete) before retiring the worker."""
        release = threading.Event()
        started = threading.Event()

        def slow_runner(spec, *, worker):
            from repro.exec.serial import run_one

            started.set()
            assert release.wait(5.0), "drain should have released the job"
            return run_one(spec, worker=worker)

        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-drain", daemon=True, runner=slow_runner)
        specs = [tiny_spec("tiny-drain", seed=9)]
        thread, outcome = execute_in_thread(backend, specs)
        try:
            assert started.wait(5.0)

            drained = []
            with ControlClient(address) as fleet:
                drainer = threading.Thread(
                    target=lambda: drained.append(fleet.drain()), daemon=True
                )
                drainer.start()
                # The drain must be *waiting*, not retiring: the job is in
                # flight and the worker must survive until it completes.
                time.sleep(0.3)
                assert not drained
                assert backend.connected_workers() == 1
                release.set()
                drainer.join(timeout=10)
                assert not drainer.is_alive() and drained, "the drain hung"
            assert drained[0]["workers"] == 1
            thread.join(timeout=10)
            assert not thread.is_alive() and outcome, "the sweep hung through the drain"
            report = outcome[0]
            assert not isinstance(report, Exception), report
            assert len(report.results) == 1  # the in-flight job was delivered
            assert backend.connected_workers() == 0  # ...and the fleet retired
        finally:
            release.set()
            backend.close()

    def test_drain_while_idle_retires_daemons(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-idle-a", daemon=True)
        start_worker(address, "w-idle-b", daemon=True)
        wait_for(lambda: backend.connected_workers() == 2, message="fleet assembly")
        with ControlClient(address) as fleet:
            reply = fleet.drain()
        assert reply["workers"] == 2
        assert backend.connected_workers() == 0
        assert backend.wait_drained(timeout=1.0)
        backend.close()


class TestScale:
    def test_scale_down_mid_sweep_loses_no_jobs(self, monkeypatch):
        """Shrinking the fleet to one worker mid-sweep still completes every
        job, byte-identical to a serial run."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(6)]
        # Follow the sweep by its queue's DONE transitions rather than by a
        # wall-clock join: however slow a loaded host runs each job, the
        # test waits for the next one to finish.
        finished = queue.Queue()
        mark_done = JobQueue.mark_done

        def recording_mark_done(jobs, index):
            mark_done(jobs, index)
            finished.put(index)

        monkeypatch.setattr(JobQueue, "mark_done", recording_mark_done)
        backend, address = backend_on_ephemeral_port(workers=2, persistent=True)
        start_worker(address, "w-keep", daemon=True)
        start_worker(address, "w-shed", daemon=True)
        wait_for(lambda: backend.connected_workers() == 2, message="fleet assembly")
        thread, outcome = execute_in_thread(backend, specs)
        try:
            with ControlClient(address) as fleet:
                reply = fleet.scale(1)
            assert reply["alive"] == 1
            assert reply["stopped"] == 1
            done = set()
            while len(done) < len(specs):
                try:
                    done.add(finished.get(timeout=STALL_SECONDS))
                except queue.Empty:
                    raise AssertionError(
                        f"no job finished in {STALL_SECONDS} s after the scale-down; "
                        f"done: {sorted(done)}; outcome: {outcome}"
                    ) from None
            thread.join(timeout=STALL_SECONDS)  # every job is DONE: the sweep is returning
            assert not thread.is_alive() and outcome, "the sweep hung after its last job"
            report = outcome[0]
            assert not isinstance(report, Exception), report
            serial = ParallelRunner(workers=1).run_specs(specs)
            assert report.to_json() == serial.to_json()
            assert backend.connected_workers() == 1
        finally:
            backend.drain()
            backend.close()

    def test_scale_down_racing_a_dispatch_loses_no_job(self, monkeypatch):
        """A scale-down that marks a worker while a job frame is on its way
        to it waits for that job instead of retiring the worker under it."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(4)]
        backend, address = backend_on_ephemeral_port(workers=2, persistent=True)
        start_worker(address, "w-old", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="first worker")
        start_worker(address, "w-new", daemon=True)
        wait_for(lambda: backend.connected_workers() == 2, message="fleet assembly")
        replies = []
        dispatched = []
        mark_running = JobQueue.mark_running

        def scale_down_mid_dispatch(queue, index, *, worker):
            # The second job goes to the newest worker; its frame is out but
            # the job is not RUNNING yet.  Scale down to one worker now.
            dispatched.append(worker)
            if len(dispatched) == 2:
                victim = backend._workers[worker]
                threading.Thread(
                    target=lambda: replies.append(backend.scale_to(1, poll=0.01)), daemon=True
                ).start()
                wait_for(lambda: victim.draining, message="scale-down marking the worker")
                try:  # a scale-down blind to the job retires the worker at once
                    wait_for(lambda: not victim.alive, timeout=0.5, message="retirement")
                except AssertionError:
                    pass
            return mark_running(queue, index, worker=worker)

        monkeypatch.setattr(JobQueue, "mark_running", scale_down_mid_dispatch)
        thread, outcome = execute_in_thread(backend, specs)
        try:
            thread.join(timeout=30)
            assert not thread.is_alive() and outcome, "the sweep hung: a dispatched job was lost"
            report = outcome[0]
            assert not isinstance(report, Exception), report
            assert report.to_json() == ParallelRunner(workers=1).run_specs(specs).to_json()
            wait_for(lambda: replies, message="scale-down reply")
            registered = [row["worker"] for row in backend._fleet_snapshot()["workers"]]
            assert replies == [{"alive": 1, "stopped": 1, "needed": 0}], (
                f"scale-down replied {replies}; registered workers now: {registered}"
            )
        finally:
            backend.drain()
            backend.close()

    def test_a_retired_daemon_reads_its_final_shutdown_despite_racing_heartbeats(self):
        """Retirement closes the coordinator's socket right after the final
        shutdown, while a daemon beating every millisecond keeps writing to
        it, so the close often resets the connection.  The frame still
        arrives before the reset: the daemon exits instead of redialling."""
        backend, address = backend_on_ephemeral_port(persistent=True)
        served = []
        worker = threading.Thread(
            target=lambda: served.append(
                run_worker(address, worker_id="w-beat", daemon=True, retry_seconds=5.0,
                           heartbeat_interval=0.001)
            ),
            daemon=True,
        )
        worker.start()
        try:
            wait_for(lambda: backend.connected_workers() == 1, message="worker join")
            assert backend.scale_to(0) == {"alive": 0, "stopped": 1, "needed": 0}
            worker.join(timeout=10)
            assert not worker.is_alive() and served == [0], "the retired daemon redialled"
            assert backend.connected_workers() == 0
        finally:
            backend.close()

    def test_scale_up_is_advisory(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-solo", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        with ControlClient(address) as fleet:
            reply = fleet.scale(3)
        assert (reply["alive"], reply["stopped"], reply["needed"]) == (1, 0, 2)
        assert backend.connected_workers() == 1  # nothing was retired
        backend.drain()
        backend.close()

    def test_scale_to_zero_idle_retires_everyone(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-z", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        with ControlClient(address) as fleet:
            reply = fleet.scale(0)
        assert reply["stopped"] == 1
        assert backend.connected_workers() == 0
        backend.close()


class TestHangUp:
    """Retiring a worker shuts its socket down after the last frame, so the
    peer reads EOF and the coordinator's reader ends even when the peer
    never writes or closes again."""

    def test_a_retired_peer_that_goes_silent_reads_eof(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        before = coordinator_readers()
        peer = scripted_peer(address, "w-mute", daemon=True)
        try:
            assert backend.scale_to(0) == {"alive": 0, "stopped": 1, "needed": 0}
            peer.settimeout(1.0)
            assert recv_message(peer) == {"type": "shutdown", "final": True}
            assert recv_message(peer) is None  # EOF, although the peer stays open
            wait_for(
                lambda: not coordinator_readers() - before,
                timeout=1.0,
                message="the retired peer's reader to end",
            )
        finally:
            peer.close()
            backend.close()

    @pytest.mark.parametrize("retire", ["drain", "close"])
    def test_retiring_the_fleet_ends_every_reader_of_silent_peers(self, retire):
        backend, address = backend_on_ephemeral_port(persistent=True)
        before = coordinator_readers()
        peers = [scripted_peer(address, f"w-mute-{i}", daemon=True) for i in range(3)]
        try:
            getattr(backend, retire)()
            for peer in peers:
                peer.settimeout(1.0)
                assert recv_message(peer) == {"type": "shutdown", "final": retire == "drain"}
                assert recv_message(peer) is None
            wait_for(
                lambda: not coordinator_readers() - before,
                timeout=1.0,
                message="every reader to end",
            )
        finally:
            for peer in peers:
                peer.close()
            backend.close()


#: Control frames whose argument is unusable, and the error each must get.
BAD_CONTROL_COMMANDS = [
    pytest.param(
        {"type": "drain", "timeout": "soon"},
        "drain timeout must be null or a finite number >= 0, not 'soon'",
        id="drain-timeout-text",
    ),
    pytest.param(
        {"type": "drain", "timeout": float("nan")},
        "drain timeout must be null or a finite number >= 0, not nan",
        id="drain-timeout-nan",
    ),
    pytest.param(
        {"type": "drain", "timeout": True},
        "drain timeout must be null or a finite number >= 0, not True",
        id="drain-timeout-bool",
    ),
    pytest.param(
        {"type": "scale", "count": "many"},
        "scale count must be an integer >= 0, not 'many'",
        id="scale-count-text",
    ),
    pytest.param(
        {"type": "scale", "count": -1},
        "scale count must be an integer >= 0, not -1",
        id="scale-count-negative",
    ),
    pytest.param(
        {"type": "scale"},
        "scale count must be an integer >= 0, not None",
        id="scale-count-missing",
    ),
]


class TestControlArguments:
    """A bad ``drain`` or ``scale`` argument gets a ``control-error`` that
    names it, before anything runs: the fleet keeps serving, and so does
    the session."""

    @pytest.mark.parametrize("command, error", BAD_CONTROL_COMMANDS)
    def test_a_bad_argument_is_refused_and_the_session_serves_on(self, command, error):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-args", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        try:
            with socket.create_connection(parse_hostport(address), timeout=5.0) as sock:
                send_message(sock, {"type": "control"})
                assert recv_message(sock)["type"] == "welcome"
                send_message(sock, command)
                assert recv_message(sock) == {"type": "control-error", "message": error}
                send_message(sock, {"type": "workers-list"})
                view = recv_message(sock)
            assert [row["worker"] for row in view["workers"]] == ["w-args"]
            assert view["draining"] is False
        finally:
            backend.drain()
            backend.close()

    def test_bad_arguments_through_the_client_leave_the_fleet_serving(self):
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-client-args", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        try:
            timeout_error = "drain timeout must be null or a finite number >= 0, not "
            count_error = "scale count must be an integer >= 0, not "
            with ControlClient(address) as fleet:
                with pytest.raises(ControlError, match=re.escape(timeout_error + "'soon'")):
                    fleet.drain(timeout="soon")
                with pytest.raises(ControlError, match=re.escape(count_error + "-1")):
                    fleet.scale(-1)
                with pytest.raises(ControlError, match=re.escape(count_error + "'many'")):
                    fleet.scale("many")
                assert [row["worker"] for row in fleet.list()["workers"]] == ["w-client-args"]
            specs = [tiny_spec("tiny-args", seed=5)]
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert [r.worker for r in report.results] == ["w-client-args"]
        finally:
            backend.drain()
            backend.close()


class TestScaleCounts:
    """``scale_to`` checks its count itself, so no caller can coerce a bad
    one into a fleet size: it raises before anyone is retired."""

    @staticmethod
    def two_worker_fleet():
        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-one", daemon=True)
        start_worker(address, "w-two", daemon=True)
        wait_for(lambda: backend.connected_workers() == 2, message="both workers to join")
        return backend, address

    @pytest.mark.parametrize("count", [-1, 1.5, True], ids=["negative", "fraction", "bool"])
    def test_scale_to_refuses_a_bad_count_and_retires_nobody(self, count):
        backend, _ = self.two_worker_fleet()
        try:
            with pytest.raises(ValueError, match=re.escape(f"must be an integer >= 0, not {count!r}")):
                backend.scale_to(count)
            assert backend.connected_workers() == 2
        finally:
            backend.drain()
            backend.close()

    def test_a_fractional_count_through_the_client_keeps_the_fleet(self):
        backend, address = self.two_worker_fleet()
        try:
            with ControlClient(address) as fleet:
                with pytest.raises(ControlError, match=re.escape("not 1.9")):
                    fleet.scale(1.9)
                assert sorted(row["worker"] for row in fleet.list()["workers"]) == ["w-one", "w-two"]
            assert backend.connected_workers() == 2
        finally:
            backend.drain()
            backend.close()


class TestWorkersCLI:
    def test_workers_list_renders_fleet_table(self, capsys):
        from repro.cli import main

        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-cli", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        try:
            assert main(["workers", "list", "--connect", address]) == 0
            out = capsys.readouterr().out
            assert "w-cli" in out
            assert "daemon" in out
            assert "idle" in out
        finally:
            backend.drain()
            backend.close()

    def test_workers_drain_cli_retires_fleet(self, capsys):
        from repro.cli import main

        backend, address = backend_on_ephemeral_port(persistent=True)
        start_worker(address, "w-cli-drain", daemon=True)
        wait_for(lambda: backend.connected_workers() == 1, message="worker join")
        assert main(["workers", "drain", "--connect", address]) == 0
        assert "1 worker(s) retired" in capsys.readouterr().out
        assert backend.connected_workers() == 0
        backend.close()

    def test_workers_against_dead_coordinator_exits_1(self, capsys):
        from repro.cli import main

        assert main(["workers", "list", "--connect", "127.0.0.1:9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_remote_only_flags_rejected_for_other_backends(self, capsys):
        from repro.cli import main

        for argv in (
            ["sweep", "--backend", "process", "--secret", "s"],
            ["sweep", "--backend", "process", "--persist"],
            ["sweep", "--heartbeat-timeout", "1"],
            ["sweep", "--retry-budget", "2"],
        ):
            assert main(argv) == 2
            assert "only applies to --backend remote" in capsys.readouterr().err