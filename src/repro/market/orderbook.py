"""The order book: bids and offers collected during one bid window.

The market front end's summary page lists, per cluster, "the number of active
bids and offers" (Figure 3); the order book is where those orders live between
submission and the final, binding auction run.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.bids import Bid, BidderClass, classify_bidder
from repro.core.settlement import SettlementLine

_order_counter = itertools.count(1)


class OrderSide(str, enum.Enum):
    """Whether an order is net buying, net selling, or a two-sided trade."""

    BID = "bid"
    OFFER = "offer"
    TRADE = "trade"


class OrderStatus(str, enum.Enum):
    """Lifecycle of an order within a bid window."""

    ACTIVE = "active"
    SETTLED = "settled"
    UNSETTLED = "unsettled"


def side_of(bid: Bid) -> OrderSide:
    """Classify a sealed bid into the order-book side shown on the summary page.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> side_of(Bid.buy("t", index, [{"a/cpu": 5}], max_payment=60.0)).value
    'bid'
    >>> side_of(Bid.sell("t", index, [{"a/cpu": 5}], min_revenue=40.0)).value
    'offer'
    >>> from repro.core.bundles import BundleSet
    >>> side_of(Bid("t", BundleSet(index, [{"a/cpu": 5, "b/cpu": -5}]), limit=0.0)).value
    'trade'
    """
    cls = classify_bidder(bid)
    if cls is BidderClass.PURE_SELLER:
        return OrderSide.OFFER
    if cls is BidderClass.TRADER:
        return OrderSide.TRADE
    return OrderSide.BID


@dataclass
class Order:
    """One submitted order wrapping a sealed bid."""

    bid: Bid
    side: OrderSide
    status: OrderStatus = OrderStatus.ACTIVE
    order_id: int = field(default_factory=lambda: next(_order_counter))

    @property
    def bidder(self) -> str:
        return self.bid.bidder

    def clusters_touched(self) -> set[str]:
        """Clusters of the pools any bundle of the bid holds a non-zero quantity of.

        A quantity counts when its magnitude exceeds ``1e-12``; a NaN does not.
        """
        pools = self.bid.index.pools
        touched = (np.abs(self.bid.bundles.matrix) > 1e-12).any(axis=0)
        return {pools[i].cluster for i in np.flatnonzero(touched)}


class OrderBook:
    """All orders of one bid window."""

    def __init__(self) -> None:
        self._orders: dict[int, Order] = {}

    # -- submission ----------------------------------------------------------------
    def submit(self, bid: Bid) -> Order:
        """Add a sealed bid to the book, classifying its side automatically."""
        order = Order(bid=bid, side=side_of(bid))
        self._orders[order.order_id] = order
        return order

    # -- views ----------------------------------------------------------------------
    def orders(self, *, status: OrderStatus | None = None) -> list[Order]:
        """All orders, optionally filtered by status."""
        result = list(self._orders.values())
        if status is not None:
            result = [o for o in result if o.status is status]
        return result

    def active_bids(self) -> list[Bid]:
        """The sealed bids of every active order (the auction's input)."""
        return [o.bid for o in self.orders(status=OrderStatus.ACTIVE)]

    def counts_by_cluster(self) -> dict[str, dict[OrderSide, int]]:
        """Active bid / offer / trade counts per cluster (the Figure 3 columns)."""
        counts: dict[str, dict[OrderSide, int]] = {}
        for order in self.orders(status=OrderStatus.ACTIVE):
            for cluster in order.clusters_touched():
                per_cluster = counts.setdefault(
                    cluster, {OrderSide.BID: 0, OrderSide.OFFER: 0, OrderSide.TRADE: 0}
                )
                per_cluster[order.side] += 1
        return counts

    def mark_settled(self, lines: Sequence[SettlementLine]) -> None:
        """After the binding auction run, mark each active order by its own line.

        The binding run settles :meth:`active_bids` in order, one line per
        bid, so line ``i`` belongs to active order ``i``: a team's losing
        order stays UNSETTLED even when another of its orders wins.  Raises
        ``ValueError``, marking nothing, if the counts or a bidder name
        disagree.
        """
        active = self.orders(status=OrderStatus.ACTIVE)
        if len(lines) != len(active):
            raise ValueError(f"{len(lines)} settlement lines for {len(active)} active orders")
        for order, line in zip(active, lines):
            if line.bidder != order.bidder:
                raise ValueError(
                    f"settlement line for {line.bidder!r} does not match order "
                    f"{order.order_id} of {order.bidder!r}"
                )
        for order, line in zip(active, lines):
            order.status = OrderStatus.SETTLED if line.won else OrderStatus.UNSETTLED

    def clear(self) -> None:
        """Empty the book (start of a new bid window)."""
        self._orders.clear()

    def __len__(self) -> int:
        return len(self._orders)
