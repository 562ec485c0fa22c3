"""Tests for the remote execution fabric: dispatch, failure, and determinism.

Workers here are real protocol speakers — either :func:`repro.exec.run_worker`
running in a thread (full daemon loop, heartbeats and all) or hand-scripted
sockets for the adversarial cases (a worker that dies mid-job, a duplicate
id, a capacity probe).  Everything runs on localhost ephemeral ports.
"""

import socket
import threading
import time

import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.exec import RemoteBackend, WorkerError, run_worker
from repro.exec.wire import recv_message, send_message
from repro.exec.worker import parse_hostport
from repro.simulation.catalog import ScenarioSpec
from repro.simulation.runner import ParallelRunner
from repro.simulation.scenario import ScenarioConfig


def tiny_spec(name: str = "tiny", seed: int = 0, auctions: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="tiny remote-test economy",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=2, sites=1, machines_range=(5, 10)),
            population=PopulationSpec(team_count=4, budget_per_team=100_000.0),
            seed=seed,
        ),
        auctions=auctions,
    )


def backend_on_ephemeral_port(**kwargs) -> tuple[RemoteBackend, str]:
    options = dict(bind="127.0.0.1:0", quiet=True, wait_timeout=10.0)
    options.update(kwargs)
    backend = RemoteBackend(**options)
    return backend, backend.listen()


def wait_for(predicate, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def coordinator_readers() -> set[threading.Thread]:
    """The coordinator connection readers now running, one per connection."""
    return {thread for thread in threading.enumerate() if thread.name == "coordinator-conn"}


def scripted_peer(address: str, worker_id: str, **hello) -> socket.socket:
    """A hand-driven worker connection, registered and past its welcome."""
    sock = socket.create_connection(parse_hostport(address), timeout=5.0)
    send_message(
        sock, {"type": "hello", "worker": worker_id, "capacity": 1, "pid": 0, **hello}
    )
    assert recv_message(sock)["type"] == "welcome"
    return sock


def start_worker(address: str, worker_id: str, **kwargs) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(address,),
        kwargs=dict(worker_id=worker_id, retry_seconds=5.0, **kwargs),
        daemon=True,
    )
    thread.start()
    return thread


class TestRemoteHappyPath:
    def test_report_byte_identical_to_serial_with_two_workers(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(4)]
        backend, address = backend_on_ephemeral_port(workers=2)
        threads = [start_worker(address, f"w{i}") for i in range(2)]
        remote = ParallelRunner(backend=backend).run_specs(specs)
        serial = ParallelRunner(workers=1).run_specs(specs)
        assert remote.to_json() == serial.to_json()
        for thread in threads:
            thread.join(timeout=5)
        workers_used = {r.worker for r in remote.results}
        assert workers_used <= {"w0", "w1"}
        assert len(workers_used) == 2  # both workers actually served jobs

    def test_store_records_remote_worker_provenance(self, tmp_path):
        from repro.results.store import ResultStore

        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        backend, address = backend_on_ephemeral_port()
        start_worker(address, "prov-worker")
        with ResultStore(tmp_path / "remote.sqlite") as store:
            ParallelRunner(backend=backend).run_specs(
                specs, store=store, code_version="vtest"
            )
            assert {run.worker for run in store.runs()} == {"prov-worker"}

    def test_late_joining_worker_gets_jobs(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port(workers=1)
        start_worker(address, "early")

        def join_late():
            time.sleep(0.3)
            try:
                run_worker(address, worker_id="late", retry_seconds=5.0)
            except WorkerError:
                pass  # the sweep may already be over; "early" did all the jobs

        late = threading.Thread(target=join_late, daemon=True)
        late.start()
        report = ParallelRunner(backend=backend).run_specs(specs)
        late.join(timeout=5)
        assert len(report.results) == 3  # all jobs done whoever served them

    def test_no_workers_raises_with_instructions(self):
        backend, _ = backend_on_ephemeral_port(wait_timeout=0.3)
        with pytest.raises(RuntimeError, match="python -m repro worker"):
            backend.execute([tiny_spec()], order=[0], emit=lambda i, r: None)


class TestWorkerLoss:
    def test_worker_killed_mid_job_is_retried_elsewhere(self):
        """A worker that takes a job and vanishes forfeits it to another
        worker; the report stays byte-identical to a serial run."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port(workers=2)

        took_job = threading.Event()

        def saboteur():
            host, port = parse_hostport(address)
            sock = socket.create_connection((host, port))
            send_message(
                sock, {"type": "hello", "worker": "doomed", "capacity": 1, "pid": 0}
            )
            assert recv_message(sock)["type"] == "welcome"
            while True:  # take the first job, then die without a word
                message = recv_message(sock)
                if message is not None and message["type"] == "job":
                    took_job.set()
                    sock.close()
                    return

        threading.Thread(target=saboteur, daemon=True).start()
        survivor = start_worker(address, "survivor")
        remote = ParallelRunner(backend=backend).run_specs(specs)
        serial = ParallelRunner(workers=1).run_specs(specs)
        survivor.join(timeout=5)

        assert took_job.is_set(), "the doomed worker never received a job"
        assert remote.to_json() == serial.to_json()
        # Every job ultimately ran on the surviving worker.
        assert {r.worker for r in remote.results} == {"survivor"}

    def test_heartbeats_during_the_wait_phase_keep_workers_alive(self):
        """A worker that connects long before dispatch begins (the
        coordinator still waiting for more workers) must not be declared
        lost on the first liveness check: heartbeats received during the
        wait phase count."""
        backend, address = backend_on_ephemeral_port(
            workers=2,  # only one will show up
            wait_timeout=1.0,
            heartbeat_timeout=0.4,  # shorter than the wait phase
        )
        start_worker(address, "patient", heartbeat_interval=0.1)
        report = ParallelRunner(backend=backend).run_specs([tiny_spec()])
        assert [r.worker for r in report.results] == ["patient"]

    def test_reader_refreshes_last_seen_before_it_enqueues_a_frame(self):
        """Liveness is refreshed by the connection's reader thread before a
        frame reaches the sweep loop, so neither the wait phase nor the
        dispatch loop has to write ``last_seen`` itself."""
        backend, address = backend_on_ephemeral_port()
        host, port = parse_hostport(address)
        backend._sweeping.set()  # the reader enqueues frames only mid-sweep
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                send_message(
                    sock, {"type": "hello", "worker": "scripted", "capacity": 1, "pid": 0}
                )
                assert recv_message(sock)["type"] == "welcome"
                assert backend._events.get(timeout=5.0) == ("joined", "scripted")
                worker = backend._workers["scripted"]
                stale = time.monotonic() - 60.0
                worker.last_seen = stale
                send_message(sock, {"type": "heartbeat"})
                kind, sender, message = backend._events.get(timeout=5.0)
                assert (kind, message) == ("msg", {"type": "heartbeat"})
                assert sender is worker  # events name the connection, not the id
                assert worker.last_seen > stale
        finally:
            backend._sweeping.clear()
            backend.close()

    def test_silent_worker_is_declared_lost_by_heartbeat(self):
        """A worker that stops heartbeating (but keeps the socket open) is
        timed out and its job re-run elsewhere."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        backend, address = backend_on_ephemeral_port(
            workers=2, heartbeat_timeout=1.0
        )

        def zombie():
            host, port = parse_hostport(address)
            sock = socket.create_connection((host, port))
            send_message(
                sock, {"type": "hello", "worker": "zombie", "capacity": 1, "pid": 0}
            )
            assert recv_message(sock)["type"] == "welcome"
            # Accept a job, never respond, never heartbeat; hold the socket
            # open until the sweep finishes without us.
            recv_message(sock)
            time.sleep(10)
            sock.close()

        threading.Thread(target=zombie, daemon=True).start()
        start_worker(address, "healthy")
        report = ParallelRunner(backend=backend).run_specs(specs)
        assert {r.worker for r in report.results} == {"healthy"}

    def test_a_worker_lost_by_heartbeat_is_hung_up(self):
        """Declaring a silent worker lost shuts its socket down: the peer,
        which keeps its socket open, reads EOF after the job it took, and
        the coordinator's reader for it ends instead of outliving the
        sweep."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        backend, address = backend_on_ephemeral_port(workers=2, heartbeat_timeout=1.0)
        before = coordinator_readers()
        silent = scripted_peer(address, "silent")  # the earliest joiner
        try:
            start_worker(address, "healthy", heartbeat_interval=0.05)
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert {r.worker for r in report.results} == {"healthy"}
            silent.settimeout(1.0)
            frames = []
            while (frame := recv_message(silent)) is not None:
                frames.append(frame["type"])
            assert frames == ["job"]  # then EOF: a lost worker gets no shutdown
            wait_for(
                lambda: not coordinator_readers() - before,
                timeout=1.0,
                message="the coordinator's readers to end",
            )
        finally:
            silent.close()
            backend.close()

    def test_corrupt_job_spec_ends_a_one_shot_worker_with_worker_error(self):
        """A job frame whose spec does not unpickle is a broken frame: the
        worker takes its lost-connection path instead of dying on the
        decoder's raw exception."""
        server = socket.create_server(("127.0.0.1", 0))
        address = f"127.0.0.1:{server.getsockname()[1]}"

        def coordinator():
            sock, _ = server.accept()
            recv_message(sock)  # hello
            send_message(sock, {"type": "welcome"})
            send_message(sock, {"type": "job", "job": 0, "spec": "@@not-base64@@"})
            try:
                while recv_message(sock) is not None:  # heartbeats until it hangs up
                    pass
            except OSError:
                pass
            sock.close()

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        with pytest.raises(WorkerError, match="undecodable job spec"):
            run_worker(address, worker_id="victim", retry_seconds=5.0)
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.close()


class TestHandshake:
    def test_duplicate_worker_id_refused(self):
        backend, address = backend_on_ephemeral_port()
        first = start_worker(address, "twin")
        time.sleep(0.3)  # let the first twin register
        with pytest.raises(WorkerError, match="already connected"):
            run_worker(address, worker_id="twin", retry_seconds=5.0)
        backend.close()  # shuts the first twin down cleanly
        first.join(timeout=5)

    def test_malformed_hello_rejected(self):
        backend, address = backend_on_ephemeral_port()
        host, port = parse_hostport(address)
        sock = socket.create_connection((host, port))
        send_message(sock, {"type": "heartbeat"})  # not a hello
        answer = recv_message(sock)
        assert answer["type"] == "reject"
        sock.close()
        backend.close()

    def test_non_integer_capacity_rejected_and_a_good_worker_still_joins(self):
        backend, address = backend_on_ephemeral_port()
        host, port = parse_hostport(address)
        with socket.create_connection((host, port), timeout=5) as bad:
            send_message(bad, {"type": "hello", "worker": "w-bad", "capacity": "many"})
            assert recv_message(bad) == {"type": "reject", "reason": "malformed hello"}
            assert recv_message(bad) is None  # and the coordinator hung up
        with socket.create_connection((host, port), timeout=5) as good:
            send_message(good, {"type": "hello", "worker": "w-good", "capacity": 1})
            assert recv_message(good)["type"] == "welcome"
        backend.close()

    def test_deeply_nested_first_frame_closes_the_connection(self):
        backend, address = backend_on_ephemeral_port()
        host, port = parse_hostport(address)
        with socket.create_connection((host, port), timeout=5) as bad:
            payload = b"[" * 100_000
            bad.sendall(len(payload).to_bytes(4, "big") + payload)
            assert recv_message(bad) is None
        backend.close()

    def test_silent_peer_is_dropped_after_the_handshake_timeout(self, monkeypatch):
        """A peer that connects and never says hello is cut off once
        ``HANDSHAKE_TIMEOUT`` passes instead of holding its connection
        thread forever."""
        import repro.exec.coordinator as coordinator_mod

        monkeypatch.setattr(coordinator_mod, "HANDSHAKE_TIMEOUT", 0.2)
        backend, address = backend_on_ephemeral_port()
        try:
            host, port = parse_hostport(address)
            with socket.create_connection((host, port), timeout=5.0) as sock:
                assert recv_message(sock) is None  # closed by the coordinator
        finally:
            backend.close()

    def test_worker_with_no_coordinator_gives_up(self):
        with pytest.raises(WorkerError, match="no coordinator"):
            run_worker("127.0.0.1:1", worker_id="orphan", retry_seconds=0.3)


class TestDispatchPolicy:
    def test_in_flight_cap_respects_worker_capacity(self):
        """A capacity-2 worker is pipelined exactly two jobs before it
        answers anything; the third only arrives after a result frees a slot."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port()
        seen: list[int] = []
        failures: list[str] = []

        def scripted_worker():
            from repro.exec.serial import run_one
            from repro.exec.wire import decode_spec_b64, result_to_wire

            host, port = parse_hostport(address)
            sock = socket.create_connection((host, port))
            send_message(
                sock, {"type": "hello", "worker": "cap2", "capacity": 2, "pid": 0}
            )
            assert recv_message(sock)["type"] == "welcome"
            first = recv_message(sock)
            second = recv_message(sock)
            seen.extend([first["job"], second["job"]])
            sock.settimeout(0.5)
            try:
                third = recv_message(sock)
                failures.append(f"cap exceeded: got job {third!r} with 2 in flight")
                return
            except TimeoutError:
                pass  # correct: the cap held
            sock.settimeout(None)
            for message in (first, second):
                result = run_one(decode_spec_b64(message["spec"]), worker="cap2")
                send_message(
                    sock, {"type": "result", "job": message["job"], **result_to_wire(result)}
                )
            third = recv_message(sock)
            assert third["type"] == "job"
            seen.append(third["job"])
            result = run_one(decode_spec_b64(third["spec"]), worker="cap2")
            send_message(
                sock, {"type": "result", "job": third["job"], **result_to_wire(result)}
            )
            assert recv_message(sock)["type"] == "shutdown"
            sock.close()

        thread = threading.Thread(target=scripted_worker, daemon=True)
        thread.start()
        report = ParallelRunner(backend=backend).run_specs(specs)
        thread.join(timeout=10)
        assert not thread.is_alive(), "the scripted worker hung"
        assert not failures, failures[0]
        assert sorted(seen) == [0, 1, 2]
        assert len(report.results) == 3

    @staticmethod
    def join_in_order(backend, address, worker_ids) -> None:
        for count, worker_id in enumerate(worker_ids, start=1):
            start_worker(address, worker_id)
            wait_for(lambda: backend.connected_workers() == count, message=worker_id)

    def test_heaviest_job_goes_to_the_earliest_joiner(self):
        """One dispatch rule: the heaviest queued job goes to the
        earliest-joined free worker, the next one to the next free worker."""
        specs = [tiny_spec("small", auctions=1), tiny_spec("big", auctions=2)]
        backend, address = backend_on_ephemeral_port(workers=2)
        self.join_in_order(backend, address, ["w-early", "w-late"])
        report = ParallelRunner(backend=backend).run_specs(specs)
        assert {r.scenario: r.worker for r in report.results} == {
            "big": "w-early",
            "small": "w-late",
        }

    def test_store_history_does_not_steer_dispatch(self, tmp_path):
        """Stored wall times are provenance only: a store whose history marks
        the later joiner as the faster host still sees a single job go to the
        earliest joiner."""
        import dataclasses

        from repro.results.store import ResultStore
        from repro.simulation.runner import run_scenario

        spec = tiny_spec()
        backend, address = backend_on_ephemeral_port(workers=2)
        self.join_in_order(backend, address, ["w-early", "w-late"])
        with ResultStore(tmp_path / "history.sqlite") as store:
            result = run_scenario(spec)
            for version, worker, seconds in (("v0", "w-early", 10.0), ("v1", "w-late", 1.0)):
                store.record(
                    dataclasses.replace(result, worker=worker, wall_time_seconds=seconds),
                    code_version=version,
                )
            report = ParallelRunner(backend=backend).run_specs(
                [spec], store=store, code_version="v2"
            )
        assert [r.worker for r in report.results] == ["w-early"]


class TestScenarioFailure:
    def test_scenario_error_aborts_and_names_the_scenario(self):
        bad = ScenarioSpec(
            name="will-fail",
            description="raises on the worker",
            config=ScenarioConfig(
                fleet=FleetSpec(cluster_count=1, sites=1, machines_range=(5, 6)),
                population=PopulationSpec(team_count=1),
                auction_engine="no-such-engine",
            ),
            auctions=1,
        )
        backend, address = backend_on_ephemeral_port()
        thread = start_worker(address, "victim")
        with pytest.raises(RuntimeError, match="will-fail"):
            ParallelRunner(backend=backend).run_specs([bad])
        thread.join(timeout=5)  # the abort still sends a clean shutdown
