"""Shared fixtures for the execution-fabric tests."""

from __future__ import annotations

import time

import pytest

from test_remote import coordinator_readers

#: How long a coordinator's connection reader may outlive its test.
READER_GRACE_SECONDS = 2.0


@pytest.fixture(autouse=True)
def _coordinator_readers_end():
    """Fail a test that leaves a coordinator connection reader running.

    Each reader is the only code that closes its connection's socket, so a
    reader that outlives its test holds a socket the coordinator never hung
    up on.
    """
    before = coordinator_readers()
    yield
    started = coordinator_readers() - before
    deadline = time.monotonic() + READER_GRACE_SECONDS
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [thread for thread in started if thread.is_alive()]
    assert not leaked, (
        f"{len(leaked)} coordinator connection reader(s) still running "
        f"{READER_GRACE_SECONDS:g} s after the test"
    )
