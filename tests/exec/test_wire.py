"""Tests for the remote fabric's wire format: framing, codecs, addresses."""

import base64
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.wire import (
    DEFAULT_TRANSPORT,
    MAX_FRAME_BYTES,
    HandshakeRejected,
    WireError,
    auth_mac,
    client_handshake,
    coordinator_mac,
    decode_spec_b64,
    encode_spec_b64,
    macs_equal,
    recv_message,
    result_from_wire,
    result_to_wire,
    send_message,
)
from repro.exec.worker import parse_hostport


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, sock_pair):
        a, b = sock_pair
        send_message(a, {"type": "hello", "worker": "w1", "capacity": 2})
        assert recv_message(b) == {"type": "hello", "worker": "w1", "capacity": 2}

    def test_multiple_frames_stay_separate(self, sock_pair):
        a, b = sock_pair
        for i in range(3):
            send_message(a, {"type": "job", "job": i})
        assert [recv_message(b)["job"] for _ in range(3)] == [0, 1, 2]

    def test_clean_eof_returns_none(self, sock_pair):
        a, b = sock_pair
        a.close()
        assert recv_message(b) is None

    def test_eof_mid_frame_raises(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"\x00\x00\x00\x10incomplete")
        a.close()
        with pytest.raises(WireError, match="closed"):
            recv_message(b)

    def test_oversized_frame_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(WireError, match="cap"):
            recv_message(b)

    def test_untyped_frame_rejected(self, sock_pair):
        a, b = sock_pair
        payload = json.dumps({"no": "type"}).encode()
        a.sendall(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(WireError, match="typed"):
            recv_message(b)

    def test_undecodable_frame_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"\x00\x00\x00\x03not")
        with pytest.raises(WireError, match="undecodable"):
            recv_message(b)

    def test_deeply_nested_frame_rejected(self, sock_pair):
        a, b = sock_pair
        send_frame(a, b"[" * 100_000)
        with pytest.raises(WireError, match="undecodable"):
            recv_message(b)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame from a thread (it may outgrow the socket buffer)."""
    frame = len(payload).to_bytes(4, "big") + payload
    threading.Thread(target=sock.sendall, args=(frame,), daemon=True).start()


#: Payloads that reach the JSON decoder: arbitrary bytes, arbitrary text, and
#: deep nesting of every container the decoder recurses into.
frame_payloads = st.one_of(
    st.binary(max_size=512),
    st.text(max_size=256).map(str.encode),
    st.builds(
        lambda opener, depth, tail: opener * depth + tail,
        st.sampled_from([b"[", b'{"type":', b'{"a":[']),
        st.integers(min_value=0, max_value=50_000),
        st.binary(max_size=16),
    ),
)


class TestFramingProperties:
    @settings(max_examples=150, deadline=None)
    @given(payload=frame_payloads)
    def test_any_payload_is_a_typed_message_or_a_wire_error(self, payload):
        a, b = socket.socketpair()
        try:
            send_frame(a, payload)
            try:
                message = recv_message(b)
            except WireError:
                return
            assert isinstance(message, dict) and "type" in message
        finally:
            a.close()
            b.close()


class TestSpecCodec:
    def test_spec_round_trips_through_b64_pickle(self):
        from repro.simulation.catalog import get_scenario

        spec = get_scenario("smoke").with_overrides(auctions=2, seed=7)
        assert decode_spec_b64(encode_spec_b64(spec)) == spec

    @pytest.mark.parametrize(
        "payload",
        ["@@not-base64@@", base64.b64encode(b"garbage").decode("ascii"), ""],
        ids=["not-base64", "not-a-pickle", "empty"],
    )
    def test_corrupt_spec_raises_wire_error(self, payload):
        with pytest.raises(WireError, match="undecodable job spec"):
            decode_spec_b64(payload)


class TestResultCodec:
    def test_result_round_trips_bit_exactly(self, fake_run_result):
        result = fake_run_result(wall_time_seconds=1.5)
        import dataclasses

        result = dataclasses.replace(result, worker="w9")
        message = json.loads(json.dumps(result_to_wire(result)))  # over the wire
        rebuilt = result_from_wire(message)
        assert rebuilt == result
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.wall_time_seconds == 1.5
        assert rebuilt.worker == "w9"

    def test_real_run_round_trips(self):
        from repro.simulation.catalog import get_scenario
        from repro.simulation.runner import run_scenario

        result = run_scenario(get_scenario("smoke").with_overrides(auctions=1))
        message = json.loads(json.dumps(result_to_wire(result)))
        assert result_from_wire(message).to_dict() == result.to_dict()


class TestParseHostport:
    def test_accepts_host_and_port(self):
        assert parse_hostport("10.0.0.3:9999") == ("10.0.0.3", 9999)

    def test_empty_host_defaults_to_localhost(self):
        assert parse_hostport(":7077") == ("127.0.0.1", 7077)

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:port", "7077"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_hostport(bad)


class TestClientHandshake:
    """The client half of the handshake against a scripted coordinator.

    The coordinator's frames are queued on the socket pair before the client
    reads, so each exchange runs in one thread.
    """

    @pytest.fixture
    def client(self, sock_pair):
        a, b = sock_pair
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_welcome_without_challenge(self, client):
        a, b = client
        send_message(b, {"type": "welcome", "worker": "w1"})
        assert client_handshake(a, DEFAULT_TRANSPORT, None) == {"type": "welcome", "worker": "w1"}

    def test_mutual_authentication(self, client):
        a, b = client
        send_message(b, {"type": "challenge", "nonce": "n1"})
        send_message(b, {"type": "welcome", "mac": coordinator_mac("s3cret", "n1")})
        assert client_handshake(a, DEFAULT_TRANSPORT, "s3cret")["type"] == "welcome"
        assert recv_message(b) == {"type": "auth", "mac": auth_mac("s3cret", "n1")}
        expected = coordinator_mac("s3cret", "n1")
        assert macs_equal(expected, expected)
        assert not macs_equal(expected, auth_mac("s3cret", "n1"))
        assert not macs_equal(expected, None) and not macs_equal(expected, 7)

    @pytest.mark.parametrize(
        "secret, frames, reason",
        [
            (
                "s3cret",
                [{"type": "challenge", "nonce": "n1"}, {"type": "welcome", "mac": auth_mac("s3cret", "n1")}],
                "could not prove",
            ),
            ("s3cret", [{"type": "welcome"}], "could not prove"),
            (None, [{"type": "challenge", "nonce": "n1"}], "pass --secret"),
            (None, [{"type": "reject", "reason": "duplicate worker id"}], "duplicate worker id"),
            (None, [], "connection closed during handshake"),
        ],
        ids=["echoed-mac", "unauthenticated-welcome", "challenge-without-secret", "reject", "closed"],
    )
    def test_refusals_raise_handshake_rejected(self, client, secret, frames, reason):
        a, b = client
        for frame in frames:
            send_message(b, frame)
        b.shutdown(socket.SHUT_WR)
        with pytest.raises(HandshakeRejected, match=reason):
            client_handshake(a, DEFAULT_TRANSPORT, secret)
