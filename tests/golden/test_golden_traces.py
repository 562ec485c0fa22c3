"""Every pinned clock auction keeps its round trace, bit for bit (see ``golden.py``).

The canonical reports pin final prices and round counts; these digests pin
each round's prices, excess demand and active-bidder count, so "same trace"
is a check across commits.  A mismatch fails and never skips: it names the
run, the auction and the first round whose digest moved, and any platform
fact that differs from the one the digests were recorded on.  ``make
golden`` rewrites the digests; ``make equivalence`` runs this file too.
"""

from __future__ import annotations

import pytest

from golden import GoldenTrace, golden_traces, load, platform_note, trace_record

TRACES = golden_traces()
RECORDED = load()


def test_digest_file_pins_exactly_the_golden_traces():
    assert sorted(RECORDED["traces"]) == sorted(trace.key for trace in TRACES), (
        "tests/golden/digests.json is out of step with golden_traces(); run `make golden`"
    )


@pytest.mark.parametrize("trace", TRACES, ids=[trace.key for trace in TRACES])
def test_trace_keeps_its_bytes(trace: GoldenTrace):
    expected = RECORDED["traces"][trace.key]
    actual = [trace_record(outcome) for outcome in trace.outcomes()]
    if [entry["sha256"] for entry in actual] == [entry["sha256"] for entry in expected]:
        return
    if len(actual) != len(expected):
        where = f"{len(actual)} auctions ran, {len(expected)} recorded"
    else:
        auction, now, then = next(
            (number, a, e)
            for number, (a, e) in enumerate(zip(actual, expected), start=1)
            if a["sha256"] != e["sha256"]
        )
        first = next(
            (i for i, (a, e) in enumerate(zip(now["rounds"], then["rounds"])) if a != e),
            min(len(now["rounds"]), len(then["rounds"])),
        )
        if first < min(len(now["rounds"]), len(then["rounds"])):
            moved = f"first differing round: {first}"
        elif len(now["rounds"]) != len(then["rounds"]):
            moved = f"{len(now['rounds'])} rounds ran, {len(then['rounds'])} recorded"
        else:
            moved = "every round matches; the convergence flag or final demands differ"
        where = f"auction {auction} changed; {moved}"
    pytest.fail(
        f"round trace of {trace.preset!r} at seed {trace.seed}: {where}"
        + platform_note(RECORDED["platform"]),
        pytrace=False,
    )
