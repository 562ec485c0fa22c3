"""Deterministic fault-injection tests for the persistent worker fleet.

Every test here scripts its failures through :class:`chaos.ChaosTransport`
— kills at exact frames, dropped heartbeats, delayed and duplicated frames —
and then demands the strongest possible outcome: the sweep report is
**byte-identical** to a run on the in-process backend, and (for the
persistent fleet) the workers are still standing afterwards.

The flagship test is the ISSUE acceptance scenario: a sweep against a
persistent two-worker fleet with scripted mid-job worker kills and delayed
heartbeats produces a report byte-identical to ``--backend process``, and
``repro workers list`` shows the surviving fleet afterward.
"""

import socket
import time

import pytest

from chaos import ChaosEvent, ChaosKill, ChaosTransport
from repro.exec import ControlClient
from repro.simulation.runner import ParallelRunner
from test_remote import backend_on_ephemeral_port, tiny_spec, wait_for

# Millisecond-scale timings (satellite: heartbeat knobs are parameters now).
FAST_HEARTBEAT = 0.05
# Generous relative to the scripted heartbeat drops: even a few eaten beats
# in a row leave the worker well inside the loss timeout.
LOSS_TIMEOUT = 2.0
# A killed daemon must not redial before the coordinator has processed the
# loss event, or it would be bounced as a duplicate id.
REDIAL_DELAY = 0.5


def chaos_worker(address: str, worker_id: str, transport: ChaosTransport, **kwargs):
    import threading

    from repro.exec import WorkerError, run_worker

    def serve():
        try:
            run_worker(
                address,
                worker_id=worker_id,
                retry_seconds=5.0,
                daemon=True,
                transport=transport,
                heartbeat_interval=FAST_HEARTBEAT,
                reconnect_delay=REDIAL_DELAY,
                **kwargs,
            )
        except WorkerError:
            # A daemon that was mid-redial when the test tore the
            # coordinator down dials a dead port and gives up — expected.
            pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestChaosTransportUnit:
    """The harness itself, exercised over a bare socketpair."""

    def frames_through(self, transport, messages):
        """Push ``messages`` through ``transport.send`` and collect what the
        peer actually receives."""
        from repro.exec.wire import recv_message

        left, right = socket.socketpair()
        try:
            for message in messages:
                try:
                    transport.send(left, message)
                except ChaosKill:
                    break
            left.close()
            received = []
            while (frame := recv_message(right)) is not None:
                received.append(frame)
            return received
        finally:
            right.close()

    def test_drop_swallows_exactly_the_scripted_frame(self):
        transport = ChaosTransport([ChaosEvent("send", "heartbeat", 2, "drop")])
        received = self.frames_through(
            transport, [{"type": "heartbeat", "n": i} for i in range(1, 4)]
        )
        assert [f["n"] for f in received] == [1, 3]

    def test_dup_sends_the_frame_twice(self):
        transport = ChaosTransport([ChaosEvent("send", "result", 1, "dup")])
        received = self.frames_through(transport, [{"type": "result", "job": 7}])
        assert received == [{"type": "result", "job": 7}] * 2

    def test_kill_closes_the_socket_and_raises_oserror(self):
        transport = ChaosTransport([ChaosEvent("send", "result", 1, "kill")])
        received = self.frames_through(transport, [{"type": "result", "job": 0}])
        assert received == []  # the peer saw EOF, never the frame
        assert isinstance(ChaosKill("x"), OSError)  # rides existing loss paths

    def test_recv_drop_serves_the_next_frame_instead(self):
        from repro.exec.wire import send_message

        left, right = socket.socketpair()
        try:
            send_message(left, {"type": "heartbeat"})
            send_message(left, {"type": "job", "job": 1})
            transport = ChaosTransport([ChaosEvent("recv", "heartbeat", 1, "drop")])
            assert transport.recv(right)["type"] == "job"
        finally:
            left.close()
            right.close()

    def test_occurrence_counters_are_per_frame_type(self):
        transport = ChaosTransport([ChaosEvent("send", "result", 1, "drop")])
        received = self.frames_through(
            transport,
            [{"type": "heartbeat"}, {"type": "heartbeat"}, {"type": "result"}],
        )
        # The two heartbeats never advanced the result counter.
        assert [f["type"] for f in received] == ["heartbeat", "heartbeat"]

    def test_seeded_schedule_is_deterministic(self):
        assert (
            ChaosTransport.seeded(7, name="a").schedule
            == ChaosTransport.seeded(7, name="b").schedule
        )
        assert (
            ChaosTransport.seeded(7).schedule != ChaosTransport.seeded(8).schedule
        )

    def test_seeded_schedule_contains_only_recoverable_faults(self):
        for seed in range(20):
            for event in ChaosTransport.seeded(seed).schedule:
                # A dropped result (without a kill) would stall the sweep
                # forever; the generator must never emit one.
                assert not (
                    event.action == "drop" and event.message_type == "result"
                ), f"seed {seed} generated an unrecoverable fault"

    def test_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            ChaosEvent("sideways", "job", 1, "drop")
        with pytest.raises(ValueError):
            ChaosEvent("send", "job", 1, "explode")
        with pytest.raises(ValueError):
            ChaosEvent("send", "job", 0, "drop")


class TestChaosSweeps:
    def test_acceptance_fleet_survives_scripted_kills_and_delayed_heartbeats(self):
        """The ISSUE acceptance scenario, verbatim: persistent 2-worker
        fleet, scripted mid-job kills + delayed heartbeats, report
        byte-identical to ``--backend process``, and ``workers list`` shows
        the surviving fleet afterward."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(6)]
        backend, address = backend_on_ephemeral_port(
            workers=2, persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        chaos_a = ChaosTransport(
            [
                # Die mid-job: the result is computed but never delivered.
                ChaosEvent("send", "result", 1, "kill"),
                ChaosEvent("send", "heartbeat", 1, "delay", delay=0.05),
                ChaosEvent("send", "heartbeat", 3, "drop"),
            ],
            name="w-a",
        )
        chaos_b = ChaosTransport(
            [
                ChaosEvent("send", "heartbeat", 1, "delay", delay=0.05),
                ChaosEvent("recv", "job", 2, "delay", delay=0.05),
            ],
            name="w-b",
        )
        chaos_worker(address, "w-a", chaos_a)
        chaos_worker(address, "w-b", chaos_b)
        try:
            report = ParallelRunner(backend=backend).run_specs(specs)
            process = ParallelRunner(workers=2).run_specs(specs)
            assert report.to_json() == process.to_json()

            # The scripted faults actually fired — this test proved something.
            assert "kill" in chaos_a.fired_actions()
            assert "delay" in chaos_b.fired_actions()
            # The forfeited job was requeued, not silently lost.
            assert backend.last_sweep_stats.requeues >= 1

            # The killed daemon redialled: `repro workers list` shows the
            # surviving two-worker fleet.
            wait_for(
                lambda: backend.connected_workers() == 2,
                message="killed daemon to redial",
            )
            with ControlClient(address) as fleet:
                rows = fleet.list()["workers"]
            assert [row["worker"] for row in rows] == ["w-a", "w-b"]
        finally:
            backend.drain()
            backend.close()

    def test_dropped_heartbeats_inside_timeout_change_nothing(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port(
            persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        transport = ChaosTransport(
            [ChaosEvent("send", "heartbeat", n, "drop") for n in (1, 2, 4)],
            name="lossy",
        )
        chaos_worker(address, "w-lossy", transport)
        try:
            # An idle daemon heartbeats too: let all three scripted drops
            # fire *before* the sweep so they can't land after it (a tiny
            # sweep can finish before the first 50 ms beat).
            wait_for(
                lambda: transport.fired_actions().count("drop") == 3,
                message="scripted heartbeat drops",
            )
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert report.to_json() == ParallelRunner(workers=1).run_specs(specs).to_json()
            assert backend.connected_workers() == 1  # never declared lost
        finally:
            backend.drain()
            backend.close()

    def test_duplicated_results_are_deduplicated(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port(
            persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        transport = ChaosTransport(
            [
                ChaosEvent("send", "result", 1, "dup"),
                ChaosEvent("send", "result", 2, "dup"),
            ],
            name="stutter",
        )
        chaos_worker(address, "w-stutter", transport)
        try:
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert report.to_json() == ParallelRunner(workers=1).run_specs(specs).to_json()
            assert len(report.results) == len(specs)  # no doubled rows
            assert transport.fired_actions().count("dup") == 2
        finally:
            backend.drain()
            backend.close()

    def test_sole_worker_killed_mid_job_redials_and_finishes(self):
        """Losing the *only* worker mid-job still completes the sweep: the
        job is requeued, the daemon redials, and the report is untouched."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        backend, address = backend_on_ephemeral_port(
            persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        transport = ChaosTransport(
            [ChaosEvent("recv", "job", 2, "kill")], name="fragile"
        )
        chaos_worker(address, "w-fragile", transport)
        try:
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert report.to_json() == ParallelRunner(workers=1).run_specs(specs).to_json()
            assert "kill" in transport.fired_actions()
            assert backend.last_sweep_stats.requeues >= 1
            assert backend.connected_workers() == 1  # back from the dead
        finally:
            backend.drain()
            backend.close()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_chaos_schedules_leave_reports_byte_identical(self, seed):
        """The ``make chaos`` sweep: randomized-but-seeded recoverable-fault
        schedules on a persistent 2-worker fleet never perturb the report."""
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(4)]
        backend, address = backend_on_ephemeral_port(
            workers=2, persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        transports = [
            ChaosTransport.seeded(seed, name="w-c0"),
            ChaosTransport.seeded(seed + 1000, kills=0, name="w-c1"),
        ]
        chaos_worker(address, "w-c0", transports[0])
        chaos_worker(address, "w-c1", transports[1])
        try:
            report = ParallelRunner(backend=backend).run_specs(specs)
            assert report.to_json() == ParallelRunner(workers=2).run_specs(specs).to_json()
        finally:
            backend.drain()
            backend.close()

    def test_second_sweep_on_the_same_fleet_is_clean(self):
        """Persistence across sweeps: after a chaos-ridden sweep, the *same*
        fleet serves a second, fault-free sweep with an untouched report."""
        backend, address = backend_on_ephemeral_port(
            persistent=True, heartbeat_timeout=LOSS_TIMEOUT
        )
        transport = ChaosTransport(
            [ChaosEvent("send", "result", 1, "kill")], name="once-bitten"
        )
        chaos_worker(address, "w-2sweeps", transport)
        try:
            first = [tiny_spec("first", seed=1)]
            second = [tiny_spec(f"second-{i}", seed=i + 10) for i in range(2)]
            ParallelRunner(backend=backend).run_specs(first)
            report = ParallelRunner(backend=backend).run_specs(second)
            assert (
                report.to_json() == ParallelRunner(workers=1).run_specs(second).to_json()
            )
        finally:
            backend.drain()
            backend.close()