"""Workload helpers: baseline demand extraction and organic utilization drift."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.agents.base import TeamAgent
from repro.cluster.pools import PoolIndex


def demands_from_agents(
    agents: Sequence[TeamAgent], index: PoolIndex
) -> tuple[tuple[str, ...], np.ndarray]:
    """Each agent's home-cluster covering bundle as one row of a ``(teams, R)`` matrix.

    Returns the teams with something to cover, in agent order, and their
    demand matrix, row ``i`` for ``teams[i]``; a team that covers nothing
    has no row.  This is the demand fed to the traditional (baseline)
    allocators and to the market's coverage measure, so that the market and
    the baselines are compared on exactly the same underlying needs.
    """
    teams: list[str] = []
    bundles: list[list[tuple[int, float]]] = []
    for agent in agents:
        bundle = agent.demand.covering_columns(agent.catalog, index)
        if bundle:
            teams.append(agent.name)
            bundles.append(bundle)
    return tuple(teams), index.rows(bundles)


def priorities_from_agents(
    agents: Sequence[TeamAgent], *, seed: int | np.random.Generator = 0
) -> dict[str, int]:
    """Operator-assigned priorities for the priority baseline.

    The operator does not know teams' true values, so priorities are assigned
    by rough team size (bigger teams historically shout louder) with noise —
    deliberately imperfect information, as the paper argues.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = {agent.name: agent.demand.total_quantity() for agent in agents}
    if not sizes:
        return {}
    cutoffs = np.percentile(list(sizes.values()), [50, 80])
    priorities: dict[str, int] = {}
    for name, size in sizes.items():
        base = 0 if size < cutoffs[0] else (1 if size < cutoffs[1] else 2)
        if rng.random() < 0.15:  # mis-ranked teams
            base = int(rng.integers(0, 3))
        priorities[name] = base
    return priorities


def organic_drift(
    index: PoolIndex,
    *,
    rng: np.random.Generator,
    drift_scale: float = 0.02,
) -> PoolIndex:
    """One period of organic utilization drift outside the market.

    Workloads grow and shrink for reasons unrelated to the auction (traffic
    growth, launches, deprecations).  Each pool's utilization takes a small
    random walk step, clipped to [0.02, 0.99].
    """
    if drift_scale < 0:
        raise ValueError("drift_scale must be non-negative")
    current = index.utilizations()
    drift = rng.normal(0.0, drift_scale, size=len(index))
    updated = np.clip(current + drift, 0.02, 0.99)
    return index.with_utilizations(updated)


def apply_settlement_to_utilization(
    index: PoolIndex,
    net_allocation: np.ndarray,
    *,
    move_out_fraction: float = 1.0,
) -> PoolIndex:
    """Project a settlement's net allocations onto pool utilizations.

    Quota bought in a pool turns into load there; quota sold (negative net
    allocation) frees load.  ``move_out_fraction`` models how much of the sold
    quota's load actually leaves by the next auction (teams take time to
    migrate); 1.0 means the move completes within the period.
    """
    if not (0.0 <= move_out_fraction <= 1.0):
        raise ValueError("move_out_fraction must lie in [0, 1]")
    capacities = np.maximum(index.capacities(), 1e-9)
    delta = np.where(net_allocation >= 0, net_allocation, net_allocation * move_out_fraction)
    updated = np.clip(index.utilizations() + delta / capacities, 0.0, 0.995)
    return index.with_utilizations(updated)
