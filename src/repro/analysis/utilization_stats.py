"""Utilization percentiles of settled trades (Figure 7).

Figure 7 is a boxplot of "the utilization percentile of settled trades in the
auction broken down by bids and offers in three resource dimensions".  The
paper's reading: most *bids* (purchases) settled in under-utilized clusters
and most *offers* (sales) in over-utilized clusters — exactly the migration
the congestion-weighted reserve prices encourage — with a significant number
of high-utilization bid outliers from teams paying a premium to stay put.

This module extracts, from a settlement, one observation per (winning bidder,
pool touched): the pool's fleet-relative utilization percentile, tagged with
the side (bid if the bidder takes quota in that pool, offer if it gives quota
up) and the pool's resource type.  Grouping and summarising those observations
yields the six boxplots of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.boxplot import BoxplotStats, boxplot_stats
from repro.cluster.resources import ResourceType
from repro.cluster.utilization import snapshot_pools
from repro.core.settlement import Settlement


@dataclass(frozen=True)
class SettledTrade:
    """One settled (bidder, pool) observation."""

    bidder: str
    pool: str
    cluster: str
    rtype: ResourceType
    #: "bid" when the bidder acquired quota in this pool, "offer" when it gave quota up.
    side: str
    quantity: float
    utilization_percentile: float
    utilization_fraction: float


def settled_trades(
    settlement: Settlement,
    *,
    percentiles: Mapping[str, float] | None = None,
    tol: float = 1e-9,
) -> list[SettledTrade]:
    """Expand a settlement into per-pool settled-trade observations.

    ``percentiles`` overrides the pool utilization percentiles (by default they
    are computed fleet-relative from the settlement's own pool index).
    """
    index = settlement.index
    if percentiles is None:
        percentiles = snapshot_pools(index).percentiles
    names = index.names
    trades: list[SettledTrade] = []
    for line in settlement.winners:
        for i in np.flatnonzero(np.abs(line.allocation) > tol):
            pool = index.pools[int(i)]
            name = names[i]
            quantity = float(line.allocation[i])
            trades.append(
                SettledTrade(
                    bidder=line.bidder,
                    pool=name,
                    cluster=pool.cluster,
                    rtype=pool.rtype,
                    side="bid" if quantity > 0 else "offer",
                    quantity=abs(quantity),
                    utilization_percentile=float(percentiles[name]),
                    utilization_fraction=pool.utilization,
                )
            )
    return trades


def settled_trade_count(settlement: Settlement, *, tol: float = 1e-9) -> int:
    """``len(settled_trades(settlement, tol=tol))``, without building the trades."""
    return sum(int(np.count_nonzero(np.abs(line.allocation) > tol)) for line in settlement.winners)


def utilization_percentile_groups(
    trades: Iterable[SettledTrade],
) -> dict[tuple[ResourceType, str], list[float]]:
    """Group settled-trade utilization percentiles by (resource type, side)."""
    groups: dict[tuple[ResourceType, str], list[float]] = {}
    for trade in trades:
        groups.setdefault((trade.rtype, trade.side), []).append(trade.utilization_percentile)
    return groups


def figure7_boxplots(
    settlements: Settlement | Sequence[Settlement],
    *,
    percentiles: Mapping[str, float] | None = None,
) -> dict[str, BoxplotStats]:
    """The six Figure 7 boxplots, keyed like ``"CPU Bids"`` / ``"Disk Offers"``.

    Accepts a single settlement or several (the paper pools trades from one
    auction; pooling several is useful for the multi-auction economy).  Groups
    with no observations are omitted.
    """
    if isinstance(settlements, Settlement):
        settlements = [settlements]
    all_trades: list[SettledTrade] = []
    for settlement in settlements:
        all_trades.extend(settled_trades(settlement, percentiles=percentiles))
    groups = utilization_percentile_groups(all_trades)
    label = {"bid": "Bids", "offer": "Offers"}
    result: dict[str, BoxplotStats] = {}
    for rtype in ResourceType:
        for side in ("bid", "offer"):
            values = groups.get((rtype, side))
            if values:
                result[f"{rtype.value.upper()} {label[side]}"] = boxplot_stats(values)
    return result


def migration_summary(trades: Iterable[SettledTrade]) -> dict[str, float]:
    """Headline numbers for the Figure 7 claim.

    Returns the median utilization percentile of bid-side and offer-side
    trades plus the share of bid quantity landing in below-median-utilization
    pools.  A healthy market shows ``median_bid_percentile`` well below
    ``median_offer_percentile``.
    """
    bids = [t for t in trades if t.side == "bid"]
    offers = [t for t in trades if t.side == "offer"]
    bid_percentiles = [t.utilization_percentile for t in bids]
    offer_percentiles = [t.utilization_percentile for t in offers]
    bid_quantity = sum(t.quantity for t in bids)
    low_util_bid_quantity = sum(t.quantity for t in bids if t.utilization_percentile < 50.0)
    return {
        "median_bid_percentile": float(np.median(bid_percentiles)) if bid_percentiles else float("nan"),
        "median_offer_percentile": float(np.median(offer_percentiles)) if offer_percentiles else float("nan"),
        "bid_quantity_share_in_underutilized": (
            low_util_bid_quantity / bid_quantity if bid_quantity > 0 else float("nan")
        ),
        "bid_count": float(len(bids)),
        "offer_count": float(len(offers)),
    }
