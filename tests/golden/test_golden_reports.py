"""Every pinned run's canonical report keeps its bytes (see ``golden.py``).

A mismatch fails and never skips: it names the run, the first report key
whose value moved, and any platform fact that differs from the one the
digests were recorded on.  ``make golden`` rewrites the digests.
"""

from __future__ import annotations

import pytest

from golden import GoldenRun, golden_runs, key_digests, load, platform_facts, sha256

RUNS = golden_runs()
RECORDED = load()


def _platform_drift() -> list[str]:
    recorded = RECORDED["platform"]
    return [
        f"{name}: recorded {recorded.get(name)!r}, running {value!r}"
        for name, value in platform_facts().items()
        if recorded.get(name) != value
    ]


def test_digest_file_pins_exactly_the_golden_runs():
    assert sorted(RECORDED["reports"]) == sorted(run.key for run in RUNS), (
        "tests/golden/digests.json is out of step with golden_runs(); run `make golden`"
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
    drift = _platform_drift()
    pytest.fail(
        f"report of preset {run.preset!r}, mechanism {run.mechanism!r}, seed {run.seed} "
        f"changed; first differing key: {moved[0] if moved else '(none: whitespace only)'}"
        f" ({len(moved)} of {len(expected['keys'])} keys differ)"
        + (
            "; platform differs from the recorded one: " + "; ".join(drift)
            if drift
            else "; platform matches the recorded one"
        ),
        pytrace=False,
    )
