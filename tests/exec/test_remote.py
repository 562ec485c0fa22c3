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

    def test_wait_phase_refreshes_last_seen_from_heartbeats(self):
        """Unit view of the same guarantee: heartbeat events drained while
        waiting for more workers must advance the sender's ``last_seen``
        (a dropped-on-the-floor heartbeat would leave a stale timestamp
        and get a healthy worker killed at dispatch)."""
        import socket as socket_mod

        from repro.exec.coordinator import _Worker

        backend, _ = backend_on_ephemeral_port(workers=2, wait_timeout=0.5)
        try:
            a, b = socket_mod.socketpair()
            stale = time.monotonic() - 60.0
            worker = _Worker(
                worker_id="early", sock=a, capacity=1, joined_at=stale, last_seen=stale
            )
            backend._workers["early"] = worker
            backend._events.put(("msg", "early", {"type": "heartbeat"}))
            backend._wait_for_workers()  # times out waiting for a second worker
            assert worker.last_seen > stale, (
                "a heartbeat drained during the wait phase must refresh last_seen"
            )
            b.close()
        finally:
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

    def test_max_in_flight_caps_advertised_capacity(self):
        backend, address = backend_on_ephemeral_port(max_in_flight=1)
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]

        def scripted_worker():
            from repro.exec.serial import run_one
            from repro.exec.wire import decode_spec_b64, result_to_wire

            host, port = parse_hostport(address)
            sock = socket.create_connection((host, port))
            # Advertise a huge capacity; the coordinator must still send one
            # job at a time because of its own cap.
            send_message(
                sock, {"type": "hello", "worker": "greedy", "capacity": 99, "pid": 0}
            )
            assert recv_message(sock)["type"] == "welcome"
            first = recv_message(sock)
            sock.settimeout(0.5)
            try:
                recv_message(sock)
                raise AssertionError("second job arrived despite max_in_flight=1")
            except TimeoutError:
                pass
            sock.settimeout(None)
            while first is not None and first["type"] == "job":
                result = run_one(decode_spec_b64(first["spec"]), worker="greedy")
                send_message(
                    sock, {"type": "result", "job": first["job"], **result_to_wire(result)}
                )
                first = recv_message(sock)
            sock.close()

        thread = threading.Thread(target=scripted_worker, daemon=True)
        thread.start()
        report = ParallelRunner(backend=backend).run_specs(specs)
        thread.join(timeout=10)
        assert len(report.results) == 2


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
