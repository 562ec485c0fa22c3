"""The remote execution backend: a TCP control plane streaming jobs to workers.

The coordinator owns all scheduling state; workers (see
:mod:`repro.exec.worker`) are stateless job lanes.  One sweep runs like this:

1. :meth:`RemoteBackend.listen` binds the ``--bind`` address and starts
   accepting connections (each gets a reader thread that parses its first
   frame: a worker ``hello`` — authenticated against the shared secret when
   one is set, refused on duplicate ids — or a ``control`` session from
   ``python -m repro workers``).
2. :meth:`RemoteBackend.execute` waits until at least ``workers`` daemons are
   connected (late joiners are welcome mid-sweep), builds a
   :class:`~repro.exec.queue.JobQueue` from the caller's longest-job-first
   order — fed by the result store's measured wall times exactly like the
   process pool — and dispatches: the heaviest QUEUED job goes to the
   fastest free worker (per-worker speed factors from the store's
   ``runs.worker`` wall-time histories; unknown workers count as average),
   each loaded up to its advertised in-flight capacity.
3. Results are emitted (in the caller's thread) as they land.  A worker that
   misses its heartbeat window or drops its socket is declared lost: its
   in-flight jobs move RUNNING → QUEUED at the *front* of the queue (burning
   one unit of their retry budget; an exhausted budget aborts the sweep) and
   re-run on any other worker.  Jobs are deterministic, so a retried job —
   or a straggler result from a worker that was declared lost prematurely —
   produces the same bytes, and the sweep report is identical at any worker
   count, with or without failures.
4. When every job is DONE the coordinator either tells each worker the sweep
   is over (``shutdown`` with ``final: false`` — one-shot workers exit 0,
   daemon workers redial for the next sweep) and closes, or — in
   ``persistent`` mode — keeps the listener and the connected fleet alive
   for the next :meth:`execute` / control command, until :meth:`drain`
   retires the fleet for real (``final: true``).

A scenario that *raises* on a worker is not retried — same seed, same crash —
the job moves to ERROR and the coordinator aborts the sweep with a
``RuntimeError`` naming the scenario, matching the process backend's
behaviour.

Control sessions (``repro workers list|drain|scale``) are served by their
own connection threads at any time the coordinator is listening — mid-sweep
or idle — over the same wire protocol as job traffic, behind the same
shared-secret handshake.  See ``docs/distributed.md`` for the frame table
and the trust model.
"""

from __future__ import annotations

import queue
import secrets as secrets_mod
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exec.base import EmitFn
from repro.exec.queue import DEFAULT_RETRY_BUDGET, JobQueue, JobState
from repro.exec.wire import (
    DEFAULT_TRANSPORT,
    Transport,
    WireError,
    auth_mac,
    coordinator_mac,
    encode_spec_b64,
    macs_equal,
    result_from_wire,
)
from repro.exec.worker import parse_hostport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec

#: Default coordinator address: localhost, one port above the decade's year.
DEFAULT_BIND = "127.0.0.1:7077"

#: A worker silent for this many seconds is declared lost (workers beat every
#: second by default, so this tolerates nine dropped beats).  Constructor
#: parameter — failure tests run it in milliseconds.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: How long ``execute`` waits for the first worker(s) to connect.
DEFAULT_WAIT_TIMEOUT = 30.0

#: How long a connecting peer gets to finish its hello/auth exchange.
DEFAULT_HANDSHAKE_TIMEOUT = 10.0


@dataclass
class _Worker:
    """Coordinator-side view of one connected worker daemon."""

    worker_id: str
    sock: socket.socket
    capacity: int
    joined_at: float
    last_seen: float
    #: Whether the worker announced itself as a daemon (survives sweeps).
    daemon: bool = False
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: job index -> dispatch timestamp, for every job sent but not yet done.
    in_flight: dict[int, float] = field(default_factory=dict)
    #: Jobs this worker completed over the connection's lifetime.
    jobs_done: int = 0
    alive: bool = True
    #: Scale-down marked this worker for retirement: no new jobs.
    draining: bool = False

    def free_slots(self) -> int:
        return max(0, self.capacity - len(self.in_flight))


class RemoteBackend:
    """Stream scenario jobs to ``python -m repro worker`` daemons over TCP.

    Parameters
    ----------
    bind:
        ``HOST:PORT`` to listen on (port ``0`` picks an ephemeral port; read
        the bound address back from :attr:`address`).
    workers:
        Minimum connected workers before dispatch begins (default 1).  More
        may join at any time; fewer after ``wait_timeout`` aborts only when
        *zero* are connected.
    heartbeat_timeout:
        Seconds of silence before a worker is declared lost.
    wait_timeout:
        Seconds to wait for the initial workers — and, mid-sweep, for a
        replacement when every worker has been lost with jobs still pending.
    max_in_flight:
        Coordinator-side ceiling on any worker's in-flight jobs (the
        effective cap is ``min(worker capacity, max_in_flight)``).
    secret:
        Shared secret for the HMAC handshake.  ``None`` (default) accepts
        any peer — localhost trust; with a secret set every worker and
        control client must answer the challenge or is rejected before any
        job frame crosses the wire.
    persistent:
        Keep the listener and the connected fleet alive after ``execute``
        returns, so further sweeps (and control sessions) reuse the same
        workers.  :meth:`drain` — or a ``repro workers drain`` command —
        retires the fleet; :meth:`close` merely ends the current service
        without retiring daemon workers.
    retry_budget:
        Worker-loss requeues allowed per job before the sweep aborts.
    handshake_timeout:
        Seconds a connecting peer gets to complete hello/auth.
    transport:
        Wire transport override (the chaos harness' injection seam).
    """

    name = "remote"
    description = "stream jobs over TCP to repro worker daemons (heartbeats, retry)"

    def __init__(
        self,
        *,
        bind: str = DEFAULT_BIND,
        workers: int | None = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        max_in_flight: int | None = None,
        quiet: bool = False,
        secret: str | None = None,
        persistent: bool = False,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
        transport: Transport | None = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive seconds")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.bind = bind
        self.min_workers = workers or 1
        self.heartbeat_timeout = heartbeat_timeout
        self.wait_timeout = wait_timeout
        self.max_in_flight = max_in_flight
        self.quiet = quiet
        self.secret = secret
        self.persistent = persistent
        self.retry_budget = retry_budget
        self.handshake_timeout = handshake_timeout
        #: The bound ``HOST:PORT`` once listening (ephemeral port resolved).
        self.address: str | None = None
        self._transport = transport or DEFAULT_TRANSPORT
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._sweeping = threading.Event()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._events: queue.Queue = queue.Queue()
        self._workers: dict[str, _Worker] = {}
        self._registry_lock = threading.Lock()
        self._worker_speeds: dict[str, float] = {}
        #: The active sweep's job queue (control-plane snapshots read it).
        self._queue: JobQueue | None = None
        #: Dispatch/requeue counters of the most recently finished sweep.
        self.last_sweep_stats = None
        #: Monotonic sweep counter; results echo it so a straggler from an
        #: aborted previous sweep can never complete a job of the next one.
        self._sweep_epoch = 0

    # -- lifecycle ---------------------------------------------------------------------
    def listen(self) -> str:
        """Bind the coordinator address and start accepting peers (idempotent).

        Returns the bound ``HOST:PORT`` — callers that bound port 0 read the
        real port from here before starting their workers.
        """
        if self._listener is not None:
            return self.address or self.bind
        host, port = parse_hostport(self.bind)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        # Polling accept: closing a socket does not wake a thread blocked in
        # accept(), so the accept loop must time out to notice shutdown.
        listener.settimeout(0.2)
        self._listener = listener
        self._stopping.clear()
        self.address = f"{host}:{listener.getsockname()[1]}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        self._say(f"coordinator listening on {self.address}")
        return self.address

    def connected_workers(self) -> int:
        """How many workers are currently connected and alive.

        Lets callers (and benchmarks) pre-start long-lived worker daemons and
        wait for them to register before dispatching a timed sweep.
        """
        with self._registry_lock:
            return sum(1 for worker in self._workers.values() if worker.alive)

    def set_worker_speeds(self, speeds: Mapping[str, float]) -> None:
        """Install per-worker speed factors for host-aware dispatch.

        ``speeds`` maps worker ids to mean relative wall time (1.0 = fleet
        average, smaller = faster) as computed by
        :meth:`repro.results.store.ResultStore.worker_speeds`;
        :meth:`~repro.simulation.runner.ParallelRunner.run_specs` calls this
        automatically when it has a result store.  Unknown workers schedule
        as average.
        """
        self._worker_speeds = dict(speeds)

    def close(self, *, final: bool = False) -> None:
        """Stop listening and end the current service.

        ``final=False`` (default) sends a non-final ``shutdown``: one-shot
        workers exit 0, daemon workers redial and survive to serve the next
        coordinator on this address.  ``final=True`` retires daemons too
        (what :meth:`drain` does after waiting out in-flight jobs).
        """
        self._stopping.set()
        self._shutdown_workers(final=final)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        self._events = queue.Queue()

    def drain(self, *, poll: float = 0.05, timeout: float | None = None) -> int:
        """Stop dispatching, wait out in-flight jobs, retire every worker.

        Returns how many workers were retired.  Callable from any thread —
        it is what a ``repro workers drain`` control session runs.  A drain
        issued mid-sweep lets in-flight jobs finish, then aborts the sweep
        if jobs were still queued (a drained fleet cannot run them).
        """
        self._draining.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._registry_lock:
                busy = any(
                    worker.in_flight
                    for worker in self._workers.values()
                    if worker.alive
                )
            if not busy:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(poll)
        with self._registry_lock:
            count = sum(1 for worker in self._workers.values() if worker.alive)
        self._shutdown_workers(final=True)
        self._drained.set()
        self._say(f"fleet drained ({count} worker(s) retired)")
        return count

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until a drain has retired the fleet (``--persist`` waits here)."""
        return self._drained.wait(timeout)

    def scale_to(
        self, count: int, *, poll: float = 0.05, timeout: float = 30.0
    ) -> dict[str, int]:
        """Shrink the fleet to ``count`` workers; report what scale-up needs.

        Scale-down retires the excess — idle workers first, newest first —
        waiting for a busy victim's in-flight jobs to finish before retiring
        it, so no QUEUED or RUNNING job is ever lost.  Scale-up cannot spawn
        processes on remote hosts: the reply's ``needed`` says how many more
        workers must be started (``python -m repro worker --connect …``).
        """
        count = max(0, int(count))
        with self._registry_lock:
            eligible = [
                worker
                for worker in self._workers.values()
                if worker.alive and not worker.draining
            ]
            if count >= len(eligible):
                return {
                    "alive": len(eligible),
                    "stopped": 0,
                    "needed": count - len(eligible),
                }
            # Idle workers first, then the newest joiners: retiring the
            # longest-serving busy worker would forfeit the most history.
            victims = sorted(
                eligible,
                key=lambda w: (1 if w.in_flight else 0, -w.joined_at),
            )[: len(eligible) - count]
            for victim in victims:
                victim.draining = True
        stopped = 0
        deadline = time.monotonic() + timeout
        for victim in victims:
            while victim.in_flight and victim.alive and time.monotonic() < deadline:
                time.sleep(poll)
            if victim.in_flight and victim.alive:
                victim.draining = False  # could not drain in time; keep it
                continue
            self._retire_worker(victim)
            stopped += 1
        with self._registry_lock:
            alive = sum(1 for worker in self._workers.values() if worker.alive)
        return {"alive": alive, "stopped": stopped, "needed": 0}

    # -- backend contract --------------------------------------------------------------
    def execute(
        self,
        specs: Sequence["ScenarioSpec"],
        *,
        order: Sequence[int],
        emit: EmitFn,
    ) -> None:
        if not specs:
            return
        self.listen()
        self._sweep_epoch += 1
        self._sweeping.set()
        try:
            self._wait_for_workers()
            self._dispatch_all(specs, list(order), emit)
        finally:
            self._sweeping.clear()
            self._flush_events()
            with self._registry_lock:
                # An aborted sweep's in-flight jobs are dead either way; a
                # persistent fleet must not carry them into the next sweep's
                # capacity accounting.
                for worker in self._workers.values():
                    worker.in_flight.clear()
            if not self.persistent:
                self.close()

    # -- dispatch loop -----------------------------------------------------------------
    def _wait_for_workers(self) -> None:
        deadline = time.monotonic() + self.wait_timeout
        while True:
            with self._registry_lock:
                connected = sum(1 for w in self._workers.values() if w.alive)
            if connected >= self.min_workers:
                return
            if time.monotonic() >= deadline:
                if connected:
                    self._say(
                        f"proceeding with {connected} worker(s); "
                        f"{self.min_workers} requested"
                    )
                    return
                raise RuntimeError(
                    f"no workers connected to {self.address} within "
                    f"{self.wait_timeout:.0f}s; start some with "
                    f"`python -m repro worker --connect {self.address}`"
                )
            event = self._drain_event(timeout=0.1)
            if event is None:
                continue
            if event[0] == "lost":
                # A worker that came and went before dispatch: drop it so it
                # does not count toward (or receive) anything.
                self._remove_worker(event[1], event[2])
            elif event[0] == "msg":
                # Heartbeats must keep last_seen fresh even before dispatch:
                # assembling a fleet can take longer than heartbeat_timeout,
                # and a stale timestamp here would get a healthy worker
                # declared lost on the first liveness check.
                worker = self._workers.get(event[1])
                if worker is not None:
                    worker.last_seen = time.monotonic()

    def _dispatch_all(self, specs, pending_order: list[int], emit: EmitFn) -> None:
        jobs = JobQueue(
            pending_order,
            retry_budget=self.retry_budget,
            labels={i: spec.name for i, spec in enumerate(specs)},
        )
        self._queue = jobs
        last_progress = time.monotonic()
        try:
            while not jobs.finished:
                self._assign(specs, jobs)
                event = self._drain_event(timeout=0.1)
                now = time.monotonic()
                if event is not None:
                    kind = event[0]
                    if kind == "joined":
                        last_progress = now
                    elif kind == "lost":
                        _, worker_id, reason = event
                        self._on_worker_lost(worker_id, reason, jobs)
                    elif kind == "msg":
                        _, worker_id, message = event
                        if self._on_message(worker_id, message, emit, jobs):
                            last_progress = now
                self._check_heartbeats(jobs)
                if jobs.finished:
                    return
                if not self._alive_workers():
                    if self._draining.is_set():
                        remaining = len(jobs) - jobs.done_count
                        raise RuntimeError(
                            f"fleet drained with {remaining} job(s) unfinished"
                        )
                    if now - last_progress > self.wait_timeout:
                        raise RuntimeError(
                            f"all workers lost with {len(jobs) - jobs.done_count} job(s) "
                            f"unfinished and none reconnected within "
                            f"{self.wait_timeout:.0f}s"
                        )
        finally:
            # Keep the finished sweep's dispatch/requeue counters around:
            # tests (and curious callers) can check how bumpy the ride was
            # after the queue itself is gone.
            self.last_sweep_stats = jobs.stats
            self._queue = None

    def _assign(self, specs, jobs: JobQueue) -> None:
        """Hand QUEUED jobs to free worker slots, fastest worker first.

        Host-aware: the heaviest queued job goes to the free worker with the
        best measured speed factor (ties broken by join order, so the
        no-history fleet behaves exactly as before).
        """
        while True:
            index = jobs.next_job()
            if index is None:
                return
            # Pick the worker and reserve its slot under the registry lock,
            # before the frame goes out.  Scale-down marks its victims under
            # this lock and drain sets its flag before taking it; both then
            # wait out in-flight jobs, so neither retires a worker that a
            # job is on its way to.
            with self._registry_lock:
                if self._draining.is_set():
                    return
                candidates = [
                    w
                    for w in self._workers.values()
                    if w.alive and not w.draining and w.free_slots() > 0
                ]
                if not candidates:
                    return
                worker = min(
                    candidates,
                    key=lambda w: (self._worker_speeds.get(w.worker_id, 1.0), w.joined_at),
                )
                worker.in_flight[index] = time.monotonic()
            spec = specs[index]
            try:
                with worker.send_lock:
                    self._transport.send(
                        worker.sock,
                        {
                            "type": "job",
                            "job": index,
                            "sweep": self._sweep_epoch,
                            "scenario": spec.name,
                            "spec": encode_spec_b64(spec),
                        },
                    )
            except OSError as error:
                # The job never left: it stays QUEUED (no retry burned) and
                # the dead lane is reported like any other loss.
                del worker.in_flight[index]
                self._events.put(("lost", worker.worker_id, f"send failed: {error}"))
                worker.alive = False
                continue
            jobs.mark_running(index, worker=worker.worker_id)
            self._say(f"dispatch job {index} ({spec.name}) -> {worker.worker_id}")

    def _on_message(self, worker_id, message, emit: EmitFn, jobs: JobQueue) -> bool:
        """Apply one worker message; True when it completed a job."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.last_seen = time.monotonic()
        kind = message["type"]
        if kind not in ("result", "error"):
            return False
        job = int(message.get("job", -1))
        # Workers echo the job frame's sweep epoch; a frame carrying a stale
        # epoch is a leftover from an aborted previous sweep and must not
        # complete this one's jobs.  A frame *without* the field (minimal
        # scripted workers) is trusted as current.
        sweep = message.get("sweep")
        if (sweep is not None and int(sweep) != self._sweep_epoch) or job not in jobs:
            return False
        if kind == "result":
            if worker is not None and worker.in_flight.pop(job, None) is not None:
                worker.jobs_done += 1
            if jobs.state(job) is JobState.DONE:
                return False  # duplicate/straggler: the bytes already landed
            jobs.mark_done(job)
            emit(job, result_from_wire(message))
            return True
        scenario = message.get("scenario", "?")
        detail = message.get("message", "unknown error")
        jobs.mark_error(job, str(detail))
        raise RuntimeError(
            f"scenario {scenario!r} failed on worker {worker_id!r}: {detail}"
        )

    def _on_worker_lost(self, worker_id, reason, jobs: JobQueue) -> None:
        with self._registry_lock:
            worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        worker.alive = False
        worker.sock.close()
        # in_flight is insertion-ordered, i.e. the order the scheduler chose
        # (longest job first under measured costs); re-queue at the front in
        # that same order so the heaviest forfeited job restarts first.  Only
        # jobs still RUNNING *on this worker* go back: a straggler result may
        # already have completed one, and a prematurely-declared-lost worker's
        # jobs may already be running elsewhere.
        requeued = [
            job
            for job in worker.in_flight
            if job in jobs
            and jobs.state(job) is JobState.RUNNING
            and jobs.job(job).worker == worker_id
        ]
        for job in reversed(requeued):
            jobs.requeue(job, front=True)
        self._say(
            f"worker {worker_id} lost ({reason}); requeued {len(requeued)} job(s)"
        )

    def _check_heartbeats(self, jobs: JobQueue) -> None:
        cutoff = time.monotonic() - self.heartbeat_timeout
        for worker in self._alive_workers():
            if worker.last_seen < cutoff:
                worker.alive = False
                self._on_worker_lost(
                    worker.worker_id,
                    f"no heartbeat for {self.heartbeat_timeout:g}s",
                    jobs,
                )

    # -- connection handling -----------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                continue  # poll tick: re-check the stopping flag
            except OSError:
                return  # listener closed
            # Accepted sockets inherit the listener's poll timeout; the
            # handshake sets its own deadline and then clears it.
            sock.settimeout(None)
            threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            ).start()

    def _authenticate(self, sock: socket.socket) -> str | None:
        """Run the challenge/response when a secret is set.

        Returns the nonce (for the welcome's counter-MAC) on success, or
        raises :class:`_HandshakeFailed` after sending the reject — the
        caller closes the socket.  Without a secret, returns ``None``.
        """
        if self.secret is None:
            return None
        nonce = secrets_mod.token_hex(16)
        self._transport.send(sock, {"type": "challenge", "nonce": nonce})
        answer = self._transport.recv(sock)
        if (
            answer is None
            or answer.get("type") != "auth"
            or not macs_equal(auth_mac(self.secret, nonce), answer.get("mac"))
        ):
            self._transport.send(
                sock, {"type": "reject", "reason": "authentication failed"}
            )
            raise _HandshakeFailed("authentication failed")
        return nonce

    def _serve_connection(self, sock: socket.socket) -> None:
        worker_id = None
        try:
            sock.settimeout(self.handshake_timeout)
            # Small latency-sensitive frames; see the matching setting in
            # the worker's dial path.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            first = self._transport.recv(sock)
            if first is None:
                sock.close()
                return
            if first.get("type") == "control":
                self._serve_control(sock)
                return
            capacity = _hello_capacity(first)
            if capacity is None:
                self._transport.send(
                    sock, {"type": "reject", "reason": "malformed hello"}
                )
                sock.close()
                return
            nonce = self._authenticate(sock)  # BEFORE any registration/jobs
            worker_id = str(first["worker"])
            if self.max_in_flight is not None:
                capacity = min(capacity, self.max_in_flight)
            now = time.monotonic()
            worker = _Worker(
                worker_id=worker_id,
                sock=sock,
                capacity=capacity,
                joined_at=now,
                last_seen=now,
                daemon=bool(first.get("daemon", False)),
            )
            with self._registry_lock:
                existing = self._workers.get(worker_id)
                if existing is not None and existing.alive:
                    self._transport.send(
                        sock,
                        {
                            "type": "reject",
                            "reason": f"worker id {worker_id!r} is already connected",
                        },
                    )
                    sock.close()
                    return
                self._workers[worker_id] = worker
            welcome: dict = {"type": "welcome"}
            if nonce is not None:
                welcome["mac"] = coordinator_mac(self.secret, nonce)
            with worker.send_lock:
                self._transport.send(sock, welcome)
            sock.settimeout(None)
            if self._sweeping.is_set():
                self._events.put(("joined", worker_id))
            while True:
                message = self._transport.recv(sock)
                if message is None:
                    self._on_connection_closed(worker_id, "connection closed")
                    return
                # The reader thread refreshes liveness itself so heartbeats
                # count even while no sweep loop is draining events (a
                # persistent fleet spends most of its life idle).
                worker.last_seen = time.monotonic()
                if self._sweeping.is_set():
                    self._events.put(("msg", worker_id, message))
        except _HandshakeFailed:
            sock.close()
        except (OSError, WireError) as error:
            if worker_id is not None:
                self._on_connection_closed(worker_id, str(error))
            else:
                sock.close()

    def _serve_control(self, sock: socket.socket) -> None:
        """One ``repro workers`` session: authenticate, then answer commands."""
        try:
            nonce = self._authenticate(sock)
            welcome: dict = {"type": "welcome"}
            if nonce is not None:
                welcome["mac"] = coordinator_mac(self.secret, nonce)
            self._transport.send(sock, welcome)
            sock.settimeout(None)  # a drain legitimately takes a while
            while True:
                command = self._transport.recv(sock)
                if command is None:
                    return
                kind = command.get("type")
                if kind == "workers-list":
                    self._transport.send(sock, self._fleet_snapshot())
                elif kind == "drain":
                    retired = self.drain(timeout=command.get("timeout"))
                    self._transport.send(sock, {"type": "drained", "workers": retired})
                elif kind == "scale":
                    outcome = self.scale_to(int(command.get("count", 0)))
                    self._transport.send(sock, {"type": "scaled", **outcome})
                else:
                    self._transport.send(
                        sock,
                        {
                            "type": "control-error",
                            "message": f"unknown control command {kind!r}",
                        },
                    )
        except _HandshakeFailed:
            pass
        except (OSError, WireError):
            pass
        finally:
            sock.close()

    def _fleet_snapshot(self) -> dict:
        """The ``fleet`` frame: per-worker rows plus the queue's state counts."""
        now = time.monotonic()
        with self._registry_lock:
            workers = list(self._workers.values())
        rows = []
        for worker in workers:
            if not worker.alive:
                continue
            idle = now - worker.last_seen
            rows.append(
                {
                    "worker": worker.worker_id,
                    "capacity": worker.capacity,
                    "in_flight": len(worker.in_flight),
                    "jobs_done": worker.jobs_done,
                    "daemon": worker.daemon,
                    "draining": worker.draining,
                    "connected_seconds": round(now - worker.joined_at, 3),
                    "idle_seconds": round(idle, 3),
                    "status": "ok" if idle < self.heartbeat_timeout else "late",
                }
            )
        rows.sort(key=lambda row: row["worker"])
        jobs = self._queue
        return {
            "type": "fleet",
            "address": self.address,
            "sweeping": self._sweeping.is_set(),
            "draining": self._draining.is_set(),
            "workers": rows,
            "queue": None if jobs is None else jobs.counts(),
        }

    def _on_connection_closed(self, worker_id: str, reason: str) -> None:
        """A worker's socket ended: route to the sweep loop or reap directly."""
        if self._sweeping.is_set():
            self._events.put(("lost", worker_id, reason))
        else:
            self._remove_worker(worker_id, reason)

    def _remove_worker(self, worker_id: str, reason: str) -> None:
        with self._registry_lock:
            worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        worker.alive = False
        worker.sock.close()
        self._say(f"worker {worker_id} disconnected ({reason})")

    def _retire_worker(self, worker: _Worker) -> None:
        """Send a final shutdown and forget the worker (drain / scale-down)."""
        with self._registry_lock:
            self._workers.pop(worker.worker_id, None)
        if worker.alive:
            try:
                with worker.send_lock:
                    self._transport.send(
                        worker.sock, {"type": "shutdown", "final": True}
                    )
            except OSError:
                pass
        worker.alive = False
        worker.sock.close()
        self._say(f"worker {worker.worker_id} retired")

    def _shutdown_workers(self, *, final: bool) -> None:
        with self._registry_lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            if worker.alive:
                try:
                    with worker.send_lock:
                        self._transport.send(
                            worker.sock, {"type": "shutdown", "final": final}
                        )
                except OSError:
                    pass
            worker.sock.close()

    # -- helpers -----------------------------------------------------------------------
    def _alive_workers(self) -> list[_Worker]:
        with self._registry_lock:
            return [w for w in self._workers.values() if w.alive]

    def _drain_event(self, *, timeout: float):
        try:
            return self._events.get(timeout=timeout)
        except queue.Empty:
            return None

    def _flush_events(self) -> None:
        """Process leftovers after a sweep so stale frames cannot leak into
        the next one: losses reap their workers, everything else is stale."""
        while True:
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                return
            if event[0] == "lost":
                self._remove_worker(event[1], event[2])

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[remote] {message}", file=sys.stderr)


class _HandshakeFailed(Exception):
    """A peer failed hello/auth; the reject has already been sent."""


def _hello_capacity(message: dict) -> int | None:
    """The in-flight capacity a ``hello`` announces, or ``None`` if it is malformed."""
    if message.get("type") != "hello" or "worker" not in message:
        return None
    try:
        return max(1, int(message.get("capacity", 1)))
    except (TypeError, ValueError, OverflowError):
        return None
