"""Wire format of the remote execution fabric.

Messages are length-prefixed JSON: a 4-byte big-endian unsigned length
followed by one UTF-8 JSON object.  JSON keeps the protocol inspectable (a
captured stream reads as plain text) and the framing keeps it boring — no
delimiter escaping, no partial-line buffering.

Two payloads need more than JSON:

* **jobs** carry a full :class:`~repro.simulation.catalog.ScenarioSpec` —
  an arbitrary dataclass graph (fleet spec, population spec, weighting
  function).  The process-pool backend already ships specs between processes
  with :mod:`pickle`; the remote fabric reuses exactly that, base64-wrapped
  inside the JSON envelope.  Pickle is an arbitrary-code-execution format,
  which is why the coordinator binds to localhost by default and the fabric
  is documented as a **trusted-network** transport (see
  ``docs/distributed.md``) — workers already run arbitrary code from the
  coordinator by design, so the spec payload adds no new trust edge.
* **results** travel as the run's canonical ``to_dict()`` report plus the
  non-canonical sidecar fields (measured wall time, worker id).  The
  canonical dict round-trips bit-exactly through JSON (plain rounded floats,
  strings, ints), which is what keeps remote sweep reports byte-identical
  to serial ones.

Message types (direction, fields).  **Job frames** run a sweep; **control
frames** (added with the persistent-fleet control plane) manage it:

==================  ===========  ===============================================
``hello``           worker → c.  ``worker``, ``capacity``, ``pid``, ``daemon``
                                 — announce id, in-flight capacity, and whether
                                 the worker survives across sweeps.
``challenge``       c. → peer    ``nonce`` — sent (only) by a coordinator
                                 holding a shared secret; the peer must answer
                                 ``auth`` before anything else happens.
``auth``            peer → c.    ``mac`` — HMAC-SHA256 of the nonce under the
                                 shared secret (:func:`auth_mac`).
``welcome``         c. → peer    id accepted; with a secret set, carries
                                 ``mac`` (:func:`coordinator_mac`) proving the
                                 coordinator knows it too (mutual auth).
``reject``          c. → peer    ``reason`` — duplicate id, malformed hello,
                                 or failed authentication; the coordinator
                                 closes the connection after sending.
``job``             c. → worker  ``job`` (index), ``scenario``, ``spec``
                                 (base64 pickle).
``result``          worker → c.  ``job``, ``result`` (canonical dict),
                                 ``wall_time``, ``worker``.
``error``           worker → c.  ``job``, ``scenario``, ``message`` — the
                                 scenario raised; deterministic, never retried.
``heartbeat``       worker → c.  liveness beacon (see ``docs/distributed.md``).
``shutdown``        c. → worker  ``final`` — sweep over.  ``final: false``
                                 ends one sweep (one-shot workers exit 0,
                                 daemon workers redial); ``final: true`` (sent
                                 by drain / scale-down) retires daemons too.
``control``         client → c.  open a control session (``repro workers``).
``workers-list``    client → c.  request the fleet/queue snapshot.
``fleet``           c. → client  ``workers`` (list of per-worker dicts),
                                 ``queue`` (state counts or null), ``sweeping``.
``drain``           client → c.  stop dispatching, wait out in-flight jobs,
                                 then retire every worker.
``drained``         c. → client  ``workers`` — how many were retired.
``scale``           client → c.  ``count`` — target fleet size.
``scaled``          c. → client  ``alive``, ``stopped``, ``needed``.
==================  ===========  ===============================================

>>> spec_payload = encode_spec_b64({"not": "a real spec, but any picklable"})
>>> decode_spec_b64(spec_payload)
{'not': 'a real spec, but any picklable'}
>>> auth_mac("hunter2", "abc") == auth_mac("hunter2", "abc")
True
>>> auth_mac("hunter2", "abc") == auth_mac("wrong", "abc")
False
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import pickle
import socket
import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import ScenarioRunResult

#: Frames larger than this are a protocol error, not a big job (a paper-scale
#: spec pickles to ~2 kB; results are a few kB of JSON).  Catches a
#: desynchronised stream before it turns into a gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ConnectionError):
    """A malformed or truncated frame (desync, peer gone mid-frame)."""


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialise ``message`` and write one length-prefixed frame."""
    data = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    data = _recv_exact(sock, length, eof_ok=False)
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: a frame nested deeper than the decoder's stack.
        raise WireError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise WireError(f"frame is not a typed message: {message!r:.80}")
    return message


def _recv_exact(sock: socket.socket, count: int, *, eof_ok: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise WireError(f"connection closed {remaining} bytes into a {count}-byte read")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- transports ---------------------------------------------------------------------------


class Transport:
    """How frames reach the peer: the seam the chaos harness injects into.

    Every send/recv in the fabric goes through a transport so tests can wrap
    the wire layer — dropping, delaying, duplicating frames, or killing the
    connection at scripted points — without touching protocol code (see
    ``tests/exec/chaos.py``).  The default transport is a straight
    passthrough to :func:`send_message` / :func:`recv_message`.
    """

    def send(self, sock: socket.socket, message: dict) -> None:
        send_message(sock, message)

    def recv(self, sock: socket.socket) -> dict | None:
        return recv_message(sock)


#: The shared passthrough transport (stateless, so one instance serves all).
DEFAULT_TRANSPORT = Transport()


# -- authentication -----------------------------------------------------------------------


def auth_mac(secret: str, nonce: str) -> str:
    """The ``auth`` frame's proof: HMAC-SHA256 of the challenge nonce.

    >>> len(auth_mac("s", "n"))
    64
    """
    return hmac.new(secret.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256).hexdigest()


def coordinator_mac(secret: str, nonce: str) -> str:
    """The coordinator's counter-proof carried in ``welcome``.

    Domain-separated from :func:`auth_mac` so a coordinator cannot simply
    echo the peer's own MAC back at it.

    >>> coordinator_mac("s", "n") != auth_mac("s", "n")
    True
    """
    return auth_mac(secret, nonce + ":coordinator")


def macs_equal(expected: str, presented: object) -> bool:
    """Constant-time MAC comparison, tolerant of a missing/typed-wrong field."""
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(expected, presented)


class HandshakeRejected(ConnectionError):
    """The coordinator refused this client (bad secret, duplicate id, ...)."""


def client_handshake(
    sock: socket.socket, transport: "Transport", secret: str | None
) -> dict:
    """The client half of the hello/challenge/auth/welcome exchange.

    Called right after the opening frame (a worker's ``hello`` or a control
    session's ``control``) went out.  Answers the coordinator's challenge when
    one arrives, verifies the mutual-auth MAC on the ``welcome``, and returns
    the welcome frame.  Raises :class:`HandshakeRejected` when the coordinator
    refuses us — or cannot itself prove knowledge of the shared secret, so a
    client configured with ``--secret`` never talks to an unauthenticated
    coordinator.
    """
    answer = transport.recv(sock)
    nonce = ""
    if answer is not None and answer.get("type") == "challenge":
        if secret is None:
            raise HandshakeRejected(
                "coordinator requires a shared secret; pass --secret"
            )
        nonce = str(answer.get("nonce", ""))
        transport.send(sock, {"type": "auth", "mac": auth_mac(secret, nonce)})
        answer = transport.recv(sock)
    if answer is None or answer.get("type") != "welcome":
        reason = (answer or {}).get("reason", "connection closed during handshake")
        raise HandshakeRejected(str(reason))
    if secret is not None and not macs_equal(
        coordinator_mac(secret, nonce), answer.get("mac")
    ):
        raise HandshakeRejected(
            "coordinator could not prove knowledge of the shared secret"
        )
    return answer


# -- payload codecs -----------------------------------------------------------------------


def encode_spec_b64(spec) -> str:
    """A spec (or any picklable object) as base64 text for the JSON envelope."""
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def decode_spec_b64(payload: str):
    """Invert :func:`encode_spec_b64`.  Trusted input only (pickle).

    A payload that does not decode or unpickle raises :class:`WireError`,
    so a worker treats a corrupt job frame like any other broken frame.
    """
    # Corrupt pickle bytes can raise almost any exception type: pickle
    # documents AttributeError, EOFError, ImportError and IndexError besides
    # UnpicklingError, and bad base64 raises binascii.Error.
    try:
        return pickle.loads(base64.b64decode(payload.encode("ascii")))
    except Exception as error:
        raise WireError(f"undecodable job spec: {error}") from error


def result_to_wire(result: "ScenarioRunResult") -> dict:
    """The fields of a ``result`` message for one finished run."""
    return {
        "type": "result",
        "result": result.to_dict(),
        "wall_time": result.wall_time_seconds,
        "worker": result.worker,
    }


def result_from_wire(message: dict) -> "ScenarioRunResult":
    """Rebuild the run result a worker shipped back.

    The canonical dict restores bit-exactly (its floats are plain rounded
    values that survive JSON), and the non-canonical sidecars ride alongside.
    """
    from repro.simulation.runner import ScenarioRunResult

    return ScenarioRunResult.from_dict(
        message["result"],
        wall_time_seconds=message.get("wall_time"),
        worker=message.get("worker"),
    )
