"""Market price / fixed price ratios per cluster and resource (Figure 6).

Figure 6 plots, for each of 34 clusters, the settled market price of CPU, RAM,
and disk "as a ratio over the former fixed price that was in place before the
market economy".  Congested clusters end above 1.0, idle clusters below, and
the three resource dimensions of one cluster need not agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.pools import PoolIndex
from repro.cluster.resources import ResourceType
from repro.core.prices import price_ratios


@dataclass(frozen=True)
class PriceRatioRow:
    """One cluster's row of the Figure 6 data: ratio per resource dimension."""

    cluster: str
    cpu_ratio: float
    ram_ratio: float
    disk_ratio: float
    #: Mean utilization of the cluster's three pools (used for sorting/analysis).
    mean_utilization: float

    def ratio(self, rtype: ResourceType) -> float:
        """Ratio of one resource dimension."""
        if rtype is ResourceType.CPU:
            return self.cpu_ratio
        if rtype is ResourceType.RAM:
            return self.ram_ratio
        return self.disk_ratio

    def max_ratio(self) -> float:
        """Largest ratio across the three dimensions."""
        return max(self.cpu_ratio, self.ram_ratio, self.disk_ratio)


def price_ratio_table(
    index: PoolIndex,
    market_prices: Mapping[str, float],
    fixed_prices: Mapping[str, float],
) -> list[PriceRatioRow]:
    """Build the Figure 6 rows (one per cluster, unsorted).

    The ratios come from :func:`repro.core.prices.price_ratios`.
    """
    ratios = price_ratios(market_prices, fixed_prices)
    rows: list[PriceRatioRow] = []
    for cluster in index.clusters():
        names = [f"{cluster}/{rtype.value}" for rtype in ResourceType]
        utils = [index.pool(name).utilization for name in names]
        cpu, ram, disk = (ratios[name] for name in names)
        rows.append(
            PriceRatioRow(
                cluster=cluster,
                cpu_ratio=cpu,
                ram_ratio=ram,
                disk_ratio=disk,
                mean_utilization=sum(utils) / len(utils),
            )
        )
    return rows


def sort_rows_for_figure6(rows: Sequence[PriceRatioRow]) -> list[PriceRatioRow]:
    """Order clusters by ascending CPU ratio, as in the paper's figure.

    (The paper's x-axis is simply the cluster list; sorting by ratio makes the
    congested-vs-idle split visually obvious and is how the figure reads.)
    """
    return sorted(rows, key=lambda row: (row.cpu_ratio, row.cluster))


def ratio_utilization_correlation(rows: Sequence[PriceRatioRow]) -> float:
    """Pearson correlation between a cluster's mean utilization and its max price ratio.

    The central mechanism claim — congestion-weighted reserves push prices up
    exactly where utilization is high — shows up as a strongly positive value.
    """
    import numpy as np

    if len(rows) < 2:
        return 0.0
    utils = np.array([row.mean_utilization for row in rows])
    ratios = np.array([row.max_ratio() for row in rows])
    finite = np.isfinite(ratios)
    if finite.sum() < 2 or np.std(utils[finite]) == 0 or np.std(ratios[finite]) == 0:
        return 0.0
    return float(np.corrcoef(utils[finite], ratios[finite])[0, 1])
