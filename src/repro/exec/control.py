"""Client side of the coordinator's control plane (``repro workers ...``).

A control session is one TCP connection speaking the same length-prefixed
JSON protocol as job traffic, opened with a ``control`` frame instead of a
worker ``hello`` and authenticated by the same shared-secret handshake.  The
coordinator serves it from the connection's own thread, so fleet commands
work mid-sweep and while idle alike:

>>> from repro.exec.control import ControlClient      # doctest: +SKIP
>>> with ControlClient("127.0.0.1:7077") as fleet:    # doctest: +SKIP
...     fleet.list()["workers"]

``list`` returns the ``fleet`` snapshot (per-worker rows plus job-queue
state counts), ``drain`` blocks until in-flight jobs finish and the fleet is
retired, ``scale`` shrinks the fleet without losing queued jobs (scale-up is
advisory: the coordinator cannot start processes on other hosts, so the
reply says how many more workers to launch).
"""

from __future__ import annotations

import socket

from repro.exec.wire import (
    DEFAULT_TRANSPORT,
    HandshakeRejected,
    Transport,
    WireError,
    client_handshake,
)
from repro.exec.worker import parse_hostport


class ControlError(RuntimeError):
    """A control command failed: refused handshake, dead coordinator, bad reply."""


class ControlClient:
    """One authenticated control session against a live coordinator.

    Connects (and completes the handshake) eagerly in the constructor so a
    wrong secret or dead coordinator fails fast, before any command is
    attempted.  Use as a context manager; commands may be issued repeatedly
    on one session.
    """

    def __init__(
        self,
        connect: str,
        *,
        secret: str | None = None,
        timeout: float = 10.0,
        transport: Transport | None = None,
    ):
        self.connect = connect
        self._transport = transport or DEFAULT_TRANSPORT
        host, port = parse_hostport(connect)
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ControlError(f"no coordinator at {connect}: {error}") from error
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._transport.send(self._sock, {"type": "control"})
            client_handshake(self._sock, self._transport, secret)
        except HandshakeRejected as error:
            self._sock.close()
            raise ControlError(f"coordinator refused control session: {error}") from error
        except (OSError, WireError) as error:
            self._sock.close()
            raise ControlError(f"control handshake failed: {error}") from error

    # -- commands ----------------------------------------------------------------------
    def list(self) -> dict:
        """The fleet snapshot: worker rows, queue state counts, sweep flags."""
        return self._command({"type": "workers-list"}, expect="fleet")

    def drain(self, *, timeout: float | None = None) -> dict:
        """Stop dispatch, wait out in-flight jobs, retire every worker.

        Blocks until the coordinator reports the fleet retired (pass
        ``timeout`` to bound how long the coordinator waits on stuck jobs).
        Returns the ``drained`` frame (``workers``: how many were retired).
        """
        # The reply legitimately takes as long as the longest in-flight job.
        self._sock.settimeout(None)
        return self._command(
            {"type": "drain", "timeout": timeout}, expect="drained"
        )

    def scale(self, count: int) -> dict:
        """Shrink the fleet to ``count`` workers (losing no queued jobs).

        Returns the ``scaled`` frame: ``alive`` (fleet size now), ``stopped``
        (workers retired), ``needed`` (how many more must be started by hand
        — the coordinator cannot spawn processes on remote hosts).  The count
        goes out as given: one that is not an integer >= 0 comes back as a
        :class:`ControlError` naming it, and nobody is retired.
        """
        self._sock.settimeout(None)  # waits for busy victims to finish
        return self._command({"type": "scale", "count": count}, expect="scaled")

    # -- plumbing ----------------------------------------------------------------------
    def _command(self, frame: dict, *, expect: str) -> dict:
        try:
            self._transport.send(self._sock, frame)
            reply = self._transport.recv(self._sock)
        except (OSError, WireError) as error:
            raise ControlError(f"coordinator went away mid-command: {error}") from error
        if reply is None:
            raise ControlError("coordinator closed the control session")
        if reply.get("type") == "control-error":
            raise ControlError(str(reply.get("message", "unknown control error")))
        if reply.get("type") != expect:
            raise ControlError(
                f"expected a {expect!r} reply, got {reply.get('type')!r}"
            )
        return reply

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()