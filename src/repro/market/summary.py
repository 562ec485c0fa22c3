"""The market-summary report (the data behind Figure 3's summary page).

The original front end greeted users with a page listing "the participating
clusters along with the number of active bids and offers in each, and the
current market prices as determined by the clock auction".  This module builds
that table from the order book and the latest price table and renders it as
plain text for CLI / log consumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cluster.pools import PoolIndex
from repro.cluster.resources import ResourceType
from repro.market.orderbook import OrderBook, OrderSide


@dataclass(frozen=True)
class ClusterSummaryRow:
    """One row of the market summary: a cluster's activity and prices."""

    cluster: str
    active_bids: int
    active_offers: int
    active_trades: int
    cpu_price: float
    ram_price: float
    disk_price: float
    cpu_utilization: float
    ram_utilization: float
    disk_utilization: float


@dataclass(frozen=True)
class MarketSummary:
    """The full market summary: one row per participating cluster."""

    rows: tuple[ClusterSummaryRow, ...]
    auction_id: int | None = None


def build_market_summary(
    index: PoolIndex,
    order_book: OrderBook,
    prices: Mapping[str, float],
    *,
    auction_id: int | None = None,
) -> MarketSummary:
    """Assemble the summary rows from the current market state."""
    counts = order_book.counts_by_cluster()
    rows: list[ClusterSummaryRow] = []
    for cluster in index.clusters():
        cluster_counts = counts.get(
            cluster, {OrderSide.BID: 0, OrderSide.OFFER: 0, OrderSide.TRADE: 0}
        )

        def pool_of(rtype: ResourceType):
            return index.pool(f"{cluster}/{rtype.value}")

        rows.append(
            ClusterSummaryRow(
                cluster=cluster,
                active_bids=cluster_counts[OrderSide.BID],
                active_offers=cluster_counts[OrderSide.OFFER],
                active_trades=cluster_counts[OrderSide.TRADE],
                cpu_price=float(prices[f"{cluster}/cpu"]),
                ram_price=float(prices[f"{cluster}/ram"]),
                disk_price=float(prices[f"{cluster}/disk"]),
                cpu_utilization=pool_of(ResourceType.CPU).utilization,
                ram_utilization=pool_of(ResourceType.RAM).utilization,
                disk_utilization=pool_of(ResourceType.DISK).utilization,
            )
        )
    return MarketSummary(rows=tuple(rows), auction_id=auction_id)


def render_market_summary(summary: MarketSummary, *, max_rows: int | None = None) -> str:
    """Render the summary as a fixed-width text table."""
    header = (
        f"{'cluster':<14} {'bids':>5} {'offers':>7} {'trades':>7} "
        f"{'cpu $':>9} {'ram $':>9} {'disk $':>9} {'cpu%':>6} {'ram%':>6} {'disk%':>6}"
    )
    lines = []
    if summary.auction_id is not None:
        lines.append(f"Market summary (auction #{summary.auction_id})")
    lines.append(header)
    lines.append("-" * len(header))
    rows: Sequence[ClusterSummaryRow] = summary.rows
    if max_rows is not None:
        rows = rows[:max_rows]
    for row in rows:
        lines.append(
            f"{row.cluster:<14} {row.active_bids:>5d} {row.active_offers:>7d} {row.active_trades:>7d} "
            f"{row.cpu_price:>9.3f} {row.ram_price:>9.3f} {row.disk_price:>9.4f} "
            f"{row.cpu_utilization * 100:>5.1f}% {row.ram_utilization * 100:>5.1f}% {row.disk_utilization * 100:>5.1f}%"
        )
    if max_rows is not None and len(summary.rows) > max_rows:
        lines.append(f"... ({len(summary.rows) - max_rows} more clusters)")
    return "\n".join(lines)
