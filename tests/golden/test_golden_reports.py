"""Every pinned run's canonical report and every pinned stdout keep their bytes (see ``golden.py``).

A mismatch fails and never skips: it names the run, the first report key
whose value moved (for an output: the experiment or tournament and its
first line that moved), and any platform fact that differs from the one the
digests were recorded on.  ``make golden`` rewrites the digests.
"""

from __future__ import annotations

import pytest

from golden import (
    GoldenOutput,
    GoldenRun,
    golden_outputs,
    golden_runs,
    key_digests,
    line_digests,
    load,
    platform_note,
    sha256,
)

RUNS = golden_runs()
OUTPUTS = golden_outputs()
RECORDED = load()


def test_digest_file_pins_exactly_the_golden_runs():
    assert sorted(RECORDED["reports"]) == sorted(run.key for run in RUNS), (
        "tests/golden/digests.json is out of step with golden_runs(); run `make golden`"
    )


def test_digest_file_pins_exactly_the_golden_outputs():
    assert sorted(RECORDED["outputs"]) == sorted(output.key for output in OUTPUTS), (
        "tests/golden/digests.json is out of step with golden_outputs(); run `make golden`"
    )


@pytest.mark.parametrize("run", RUNS, ids=[run.key for run in RUNS])
def test_report_keeps_its_bytes(run: GoldenRun):
    expected = RECORDED["reports"][run.key]
    report = run.report()
    if sha256(report) == expected["sha256"]:
        return
    actual_keys = key_digests(report)
    moved = [
        key
        for key in sorted(set(actual_keys) | set(expected["keys"]))
        if actual_keys.get(key) != expected["keys"].get(key)
    ]
    pytest.fail(
        f"report of preset {run.preset!r}, mechanism {run.mechanism!r}, seed {run.seed} "
        f"changed; first differing key: {moved[0] if moved else '(none: whitespace only)'}"
        f" ({len(moved)} of {len(expected['keys'])} keys differ)"
        + platform_note(RECORDED["platform"]),
        pytrace=False,
    )


@pytest.mark.parametrize("output", OUTPUTS, ids=[output.key for output in OUTPUTS])
def test_output_keeps_its_bytes(output: GoldenOutput):
    expected = RECORDED["outputs"][output.key]
    text = output.text()
    if sha256(text) == expected["sha256"]:
        return
    actual, recorded = line_digests(text), expected["lines"]
    lines = text.splitlines()
    first = next(
        (i for i, (a, b) in enumerate(zip(actual, recorded)) if a != b),
        min(len(actual), len(recorded)),
    )
    if first < len(lines):
        where = f"line {first + 1}: {lines[first]!r}"
    elif first < len(recorded):
        where = f"line {first + 1}: missing ({len(lines)} lines, {len(recorded)} recorded)"
    else:
        where = "line: none (line endings only)"
    pytest.fail(
        f"stdout of {output.kind} {output.name!r} changed; first differing {where}"
        + platform_note(RECORDED["platform"]),
        pytrace=False,
    )
