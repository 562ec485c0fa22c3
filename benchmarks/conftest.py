"""Shared fixtures and scale configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The default
scale is the paper's (~34 clusters, ~100 bidders); set the environment
variable ``REPRO_BENCH_SCALE=test`` to run the same benchmarks at a reduced
scale for quick smoke checks.

Measurements land in the ``BENCH_*.json`` trajectory files at the repository
root through :func:`record_bench_entry`, which enforces one entry per day and
caps each file at :data:`MAX_BENCH_ENTRIES` entries so the trajectories stop
churning the diffs of every PR.  It records only when ``REPRO_BENCH_RECORD=1``
(``make bench`` sets it): the tier-1 suite collects these modules too and
must leave tracked files untouched.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.simulation.catalog import ScenarioSpec, get_scenario

#: How many entries a ``BENCH_*.json`` history keeps (the oldest roll off).
MAX_BENCH_ENTRIES = 5

#: Environment variable that turns trajectory recording on when set to ``1``.
RECORD_ENV = "REPRO_BENCH_RECORD"


def record_bench_entry(path: Path, *, merge: bool = False, **payload) -> None:
    """Record one measurement into a ``BENCH_*.json`` trajectory file.

    At most one entry per day: a rerun on the same day replaces today's
    entry (``merge=False``, the default) or updates its keys in place
    (``merge=True`` — for modules whose several tests share one file and
    must not clobber each other's keys).  The history is trimmed to the last
    :data:`MAX_BENCH_ENTRIES` entries on every write.  Without
    ``REPRO_BENCH_RECORD=1`` in the environment nothing is written.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return
    path = Path(path)
    history = []
    if path.exists():
        history = json.loads(path.read_text())
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    if history and history[-1]["recorded_at"][:10] == stamp[:10]:
        if merge:
            entry = history[-1]
            entry["recorded_at"] = stamp
        else:
            history.pop()
            entry = {"recorded_at": stamp}
            history.append(entry)
    else:
        entry = {"recorded_at": stamp}
        history.append(entry)
    entry.update(payload)
    del history[:-MAX_BENCH_ENTRIES]
    path.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_config() -> ScenarioSpec:
    """The catalog scenario used by all benchmarks."""
    if os.environ.get("REPRO_BENCH_SCALE", "paper").lower() == "test":
        return get_scenario("smoke")
    return get_scenario("paper-reference")


def print_section(title: str) -> None:
    """Print a visually distinct section header into the benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
