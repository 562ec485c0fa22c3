"""The serial lane: run one job in the calling process.

:func:`run_one` is the single-job path of the process backend's serial lane
(``workers=1``, or a sandbox without subprocesses) and of the remote worker
daemon.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec


def run_one(spec: "ScenarioSpec", *, worker: str):
    """Run one spec in-process and stamp its (non-canonical) worker provenance.

    A scenario failure is wrapped in ``RuntimeError`` naming the scenario,
    whichever lane hit it.
    """
    from repro.simulation.runner import run_scenario

    try:
        result = run_scenario(spec)
    except Exception as error:
        raise RuntimeError(f"scenario {spec.name!r} failed: {error}") from error
    return replace(result, worker=worker)
