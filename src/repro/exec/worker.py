"""The remote worker daemon: ``python -m repro worker --connect HOST:PORT``.

A worker is deliberately dumb: it dials the coordinator, announces itself
(``hello`` with its id and in-flight capacity), then loops — receive a job,
run it with the very same :func:`~repro.exec.serial.run_one` path the process
backend's serial lane uses, ship the result back.  A background thread emits heartbeats so
the coordinator can tell "busy with a long scenario" from "host died".  All
scheduling intelligence (dispatch order, retry, caps) lives coordinator-side;
a worker never needs the scenario catalog, the result store, or any state
beyond its open socket.

Run ``--capacity N`` workers to let the coordinator pipeline N jobs onto this
host (the worker still executes them one at a time; queued jobs wait in the
socket, so a worker loss forfeits at most ``capacity`` jobs, which the
coordinator re-runs elsewhere).

Two lifetimes:

* **one-shot** (default): one coordinator session; any ``shutdown`` — or the
  coordinator vanishing — ends the worker.
* **daemon** (``--daemon``): the worker survives across sweeps.  A non-final
  ``shutdown`` or a dropped connection sends it back to the dial loop to
  serve the next coordinator on the same address; only a *final* shutdown
  (sent by ``repro workers drain`` / scale-down) — or a rejection, which
  redialling cannot fix — retires it.

When the coordinator holds a shared secret, the hello is answered with a
``challenge`` the worker must MAC before it is welcomed; the welcome carries
the coordinator's counter-proof, so a worker given ``--secret`` refuses an
unauthenticated coordinator just as firmly (see :func:`repro.exec.wire.client_handshake`).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable

from repro.exec.serial import run_one
from repro.exec.wire import (
    DEFAULT_TRANSPORT,
    HandshakeRejected,
    Transport,
    WireError,
    client_handshake,
    decode_spec_b64,
    result_to_wire,
)

#: Seconds between worker heartbeats (coordinator default tolerates 10 s).
#: Constructor/CLI parameter — failure tests run it in milliseconds.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: How long a starting worker keeps redialling a coordinator that is not
#: listening yet (``make smoke`` starts workers before the sweep process).
#: A daemon gets a fresh window per reconnect attempt, so this also bounds
#: how long a daemon outlives its last coordinator.
DEFAULT_RETRY_SECONDS = 10.0

#: Pause before a daemon redials after losing its coordinator mid-session.
DEFAULT_RECONNECT_DELAY = 0.2


class WorkerError(RuntimeError):
    """The worker could not serve: connect failure, rejection, lost coordinator."""


class WorkerRejected(WorkerError):
    """The coordinator refused us (bad secret, duplicate id, malformed hello).

    Fatal even in daemon mode — redialling would just be rejected again.
    """


class _ConnectionLost(WorkerError):
    """Mid-session link loss: fatal one-shot, a redial trigger for daemons."""


def parse_hostport(address: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (the CLI's ``--connect`` / ``--bind`` syntax).

    >>> parse_hostport("127.0.0.1:7077")
    ('127.0.0.1', 7077)
    >>> parse_hostport(":0")
    ('127.0.0.1', 0)
    """
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address {address!r} is not HOST:PORT")
    return (host or "127.0.0.1", int(port))


def default_worker_id() -> str:
    """Hostname-qualified id used when ``--id`` is not given."""
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    connect: str,
    *,
    worker_id: str | None = None,
    capacity: int = 1,
    retry_seconds: float = DEFAULT_RETRY_SECONDS,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    runner: Callable | None = None,
    log: Callable[[str], None] | None = None,
    secret: str | None = None,
    daemon: bool = False,
    reconnect_delay: float = DEFAULT_RECONNECT_DELAY,
    transport: Transport | None = None,
) -> int:
    """Serve jobs from the coordinator at ``connect`` until shut down.

    Returns the number of jobs executed (across every session when
    ``daemon`` is true).  Raises :class:`WorkerError` when the coordinator
    cannot be reached within ``retry_seconds``, rejects the hello (duplicate
    worker id, failed authentication), or — for a one-shot worker — vanishes
    without sending ``shutdown``.  A daemon treats lost connections and
    non-final shutdowns as cues to redial; each redial gets a fresh
    ``retry_seconds`` window, so a daemon whose coordinator never returns
    eventually raises too.

    ``runner`` overrides the job execution path (tests inject quick fakes);
    the default is the shared :func:`~repro.exec.serial.run_one`.
    ``transport`` overrides the wire layer (the chaos harness' seam).
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    worker_id = worker_id or default_worker_id()
    say = log or (lambda message: None)
    tx = transport or DEFAULT_TRANSPORT
    total_jobs = 0
    while True:
        try:
            jobs_run, final = _serve_session(
                connect,
                worker_id=worker_id,
                capacity=capacity,
                retry_seconds=retry_seconds,
                heartbeat_interval=heartbeat_interval,
                runner=runner,
                say=say,
                secret=secret,
                daemon=daemon,
                transport=tx,
            )
        except _ConnectionLost as error:
            if not daemon:
                raise WorkerError(str(error)) from error
            say(f"worker {worker_id}: {error}; redialling")
            time.sleep(reconnect_delay)
            continue
        total_jobs += jobs_run
        if final or not daemon:
            return total_jobs
        say(f"worker {worker_id}: sweep over; redialling {connect}")
        time.sleep(reconnect_delay)


def _serve_session(
    connect: str,
    *,
    worker_id: str,
    capacity: int,
    retry_seconds: float,
    heartbeat_interval: float,
    runner: Callable | None,
    say: Callable[[str], None],
    secret: str | None,
    daemon: bool,
    transport: Transport,
) -> tuple[int, bool]:
    """One coordinator session: dial, handshake, serve jobs until shutdown.

    Returns ``(jobs_run, final)`` where ``final`` is the shutdown frame's
    retirement flag (always effectively final for one-shot workers).
    """
    sock = _dial(connect, retry_seconds)
    jobs_run = 0
    send_lock = threading.Lock()
    stop_beating = threading.Event()
    try:
        with send_lock:
            transport.send(
                sock,
                {
                    "type": "hello",
                    "worker": worker_id,
                    "capacity": capacity,
                    "pid": os.getpid(),
                    "daemon": daemon,
                },
            )
        try:
            client_handshake(sock, transport, secret)
        except HandshakeRejected as error:
            raise WorkerRejected(
                f"coordinator rejected worker {worker_id!r}: {error}"
            ) from error
        # The dial/handshake timeout must not apply to job waits: an idle
        # worker legitimately blocks on recv for as long as the sweep runs.
        sock.settimeout(None)
        say(f"worker {worker_id}: connected to {connect} (capacity {capacity})")

        beater = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, stop_beating, heartbeat_interval, transport),
            name=f"heartbeat-{worker_id}",
            daemon=True,
        )
        beater.start()

        while True:
            message = transport.recv(sock)
            if message is None:
                raise _ConnectionLost(
                    f"worker {worker_id!r}: coordinator vanished without shutdown"
                )
            kind = message["type"]
            if kind == "shutdown":
                final = bool(message.get("final", False))
                say(f"worker {worker_id}: shutdown after {jobs_run} job(s)")
                return jobs_run, final
            if kind != "job":
                continue  # future protocol additions must not kill old workers
            job = int(message["job"])
            # Results echo the sweep epoch so a straggler from an aborted
            # sweep can never complete a job of the next one.
            sweep = message.get("sweep")
            spec = decode_spec_b64(message["spec"])
            say(f"worker {worker_id}: job {job} ({message.get('scenario', '?')})")
            try:
                result = (runner or run_one)(spec, worker=worker_id)
            except Exception as error:
                with send_lock:
                    transport.send(
                        sock,
                        {
                            "type": "error",
                            "job": job,
                            "sweep": sweep,
                            "scenario": getattr(spec, "name", "?"),
                            "message": str(error),
                        },
                    )
                continue
            jobs_run += 1
            with send_lock:
                transport.send(
                    sock,
                    {"job": job, "sweep": sweep, **result_to_wire(result)},
                )
    except (OSError, WireError) as error:
        raise _ConnectionLost(
            f"worker {worker_id!r}: connection failed: {error}"
        ) from error
    finally:
        stop_beating.set()
        sock.close()


def _dial(connect: str, retry_seconds: float) -> socket.socket:
    """Connect to the coordinator, redialling until the retry window closes."""
    host, port = parse_hostport(connect)
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            # Frames are small and latency-sensitive (job in, result out);
            # Nagle buffering would serialize every exchange behind delayed
            # ACKs.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as error:
            if time.monotonic() >= deadline:
                raise WorkerError(
                    f"no coordinator at {connect} after {retry_seconds:.0f}s: {error}"
                ) from error
            time.sleep(0.2)


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    stop: threading.Event,
    interval: float,
    transport: Transport,
) -> None:
    while not stop.wait(interval):
        try:
            with send_lock:
                transport.send(sock, {"type": "heartbeat"})
        except OSError:
            return  # the main loop surfaces the broken connection