"""Utilization metrics for resource pools.

The congestion-weighted reserve pricing of Section IV consumes "utilization
percentiles for the different resource dimensions".  This module computes
per-pool utilization snapshots and converts raw utilization fractions into
fleet-relative percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.cluster.resources import RESOURCE_TYPES


@dataclass(frozen=True)
class UtilizationSnapshot:
    """Point-in-time utilization of every pool in a fleet.

    ``fractions`` maps pool name -> utilization fraction in [0, 1];
    ``percentiles`` maps pool name -> percentile rank (0..100) of that pool's
    utilization among all pools of the same resource type.
    """

    fractions: dict[str, float]
    percentiles: dict[str, float]

    def fraction(self, pool_name: str) -> float:
        """Utilization fraction of one pool."""
        return self.fractions[pool_name]

    def percentile(self, pool_name: str) -> float:
        """Fleet-relative utilization percentile (0..100) of one pool."""
        return self.percentiles[pool_name]

    def as_vector(self, index: PoolIndex) -> np.ndarray:
        """Utilization fractions in the order of ``index``."""
        return np.array([self.fractions[name] for name in index.names], dtype=float)

    def percentile_vector(self, index: PoolIndex) -> np.ndarray:
        """Utilization percentiles in the order of ``index``."""
        return np.array([self.percentiles[name] for name in index.names], dtype=float)


def percentile_ranks(values: Sequence[float]) -> np.ndarray:
    """Percentile rank (0..100) of each value within the sequence.

    Uses the mean-rank convention so ties share a rank, and a single value
    gets rank 50.  Vectorized: O(n log n).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=float)
    if arr.size == 1:
        return np.array([50.0])
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=float)
    ranks[order] = np.arange(arr.size, dtype=float)
    # average ranks for ties
    for value in np.unique(arr):
        mask = arr == value
        if np.count_nonzero(mask) > 1:
            ranks[mask] = ranks[mask].mean()
    return 100.0 * ranks / (arr.size - 1)


def snapshot_pools(index: PoolIndex) -> UtilizationSnapshot:
    """Build a snapshot from a :class:`PoolIndex` (uses stored utilizations)."""
    fractions = {pool.name: pool.utilization for pool in index}
    percentiles: dict[str, float] = {}
    for rtype in RESOURCE_TYPES:
        pools = index.pools_of_type(rtype)
        if not pools:
            continue
        ranks = percentile_ranks([pool.utilization for pool in pools])
        for pool, rank in zip(pools, ranks):
            percentiles[pool.name] = float(rank)
    return UtilizationSnapshot(fractions=fractions, percentiles=percentiles)


def utilization_spread(fractions: Iterable[float]) -> float:
    """Standard deviation of utilization fractions across pools.

    The paper argues traditional allocation leads to "uneven utilization,
    significant shortages and surpluses"; a lower spread after the market runs
    indicates the utilization-weighted reserve prices are doing their job.
    """
    arr = np.asarray(list(fractions), dtype=float)
    if arr.size == 0:
        return 0.0
    return float(arr.std())
