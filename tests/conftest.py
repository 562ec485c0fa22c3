"""Shared fixtures for the test suite."""

from __future__ import annotations

import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.fleet_gen import FleetSpec, generate_fleet, small_fleet
from repro.cluster.pools import PoolIndex, ResourcePool
from repro.cluster.resources import ResourceType


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def fake_run_result():
    """Factory for a hand-built ScenarioRunResult (no economy run).

    Shared by the result-store and CLI suites so injected runs (e.g. a
    deliberately degraded revenue for regression tests) come from one
    place that tracks the ScenarioRunResult field list.
    """
    from repro.simulation.runner import ScenarioRunResult

    def build(
        scenario="tiny",
        seed=0,
        engine="auto",
        mechanism="market",
        trade_count=5,
        revenue=(100.0, 140.0),
        shortage_cost=(60.0, 40.0),
        wall_time_seconds=None,
    ):
        return ScenarioRunResult(
            scenario=scenario,
            seed=seed,
            engine=engine,
            auctions=2,
            clusters=1,
            pools=3,
            teams=2,
            median_premium=[1.4, 1.1],
            mean_premium=[1.5, 1.2],
            settled_fraction=[0.5, 0.7],
            clearing_rounds=[4, 2],
            mean_clearing_price=[2.0, 3.0],
            revenue=list(revenue),
            mean_utilization=[0.5, 0.6],
            utilization_spread=[0.2, 0.1],
            migration={},
            trade_count=trade_count,
            mechanism=mechanism,
            shortage_cost=list(shortage_cost),
            surplus_cost=[90.0, 70.0],
            satisfied_fraction=[0.5, 0.8],
            wall_time_seconds=wall_time_seconds,
        )

    return build


REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_status() -> str | None:
    """``git status --porcelain`` of tracked files, or None outside a git checkout."""
    try:
        probe = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git binary
        return None
    return probe.stdout if probe.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def _tracked_files_unchanged():
    """Fail the session if it modified, deleted or staged a tracked file.

    The status is compared with the one at the session's start, so a tree
    that was already dirty passes as long as the tests leave it as it was.
    Outside a git checkout there is nothing to compare and the check is
    skipped.
    """
    before = _tracked_status()
    yield
    if before is None:
        return
    after = _tracked_status()
    if after != before:
        changed = sorted(set(after.splitlines()) ^ set(before.splitlines()))
        pytest.fail(
            "the test session changed tracked files (git status --porcelain, "
            f"start vs end): {changed}",
            pytrace=False,
        )


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the persistent result store at a per-test temp file.

    ``python -m repro run/sweep`` records into the store by default; without
    this, CLI tests would write ``repro_results.sqlite`` into the working
    directory.  Pinning the code version keeps stored keys deterministic
    (no git subprocess per record).
    """
    monkeypatch.setenv("REPRO_RESULTS_DB", str(tmp_path / "results.sqlite"))
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-version")


def build_pool_index(
    cluster_utils: dict[str, float] | None = None,
    *,
    capacity_scale: float = 1000.0,
) -> PoolIndex:
    """Build a small, fully deterministic pool index for unit tests.

    ``cluster_utils`` maps cluster name -> utilization fraction applied to all
    three resource dimensions of that cluster.
    """
    cluster_utils = cluster_utils or {"alpha": 0.9, "beta": 0.3}
    pools: list[ResourcePool] = []
    costs = {ResourceType.CPU: 10.0, ResourceType.RAM: 2.0, ResourceType.DISK: 0.05}
    caps = {
        ResourceType.CPU: capacity_scale,
        ResourceType.RAM: capacity_scale * 4,
        ResourceType.DISK: capacity_scale * 100,
    }
    for cluster, util in cluster_utils.items():
        for rtype in ResourceType:
            pools.append(
                ResourcePool(
                    cluster=cluster,
                    rtype=rtype,
                    capacity=caps[rtype],
                    unit_cost=costs[rtype],
                    utilization=util,
                )
            )
    return PoolIndex(pools)


@pytest.fixture
def pool_index() -> PoolIndex:
    """Two clusters (one congested at 0.9, one idle at 0.3), three pools each."""
    return build_pool_index()


@pytest.fixture
def three_cluster_index() -> PoolIndex:
    """Three clusters with low / medium / high utilization."""
    return build_pool_index({"low": 0.15, "mid": 0.55, "high": 0.95})


@pytest.fixture
def tiny_fleet():
    """A generated synthetic fleet small enough for fast tests."""
    return small_fleet(4, seed=7)


@pytest.fixture
def medium_fleet():
    """A mid-size fleet (10 clusters) used by integration tests."""
    spec = FleetSpec(cluster_count=10, sites=3, machines_range=(10, 40))
    return generate_fleet(spec, seed=11)
