"""Bids: an XOR bundle set plus a willingness-to-pay scalar.

Each user ``u`` submits ``B_u = {Q_u, pi_u}`` (paper Section II):

* ``Q_u`` — the XOR indifference set of bundles (:class:`repro.core.bundles.BundleSet`);
* ``pi_u`` — a scalar: the *maximum* total amount the user is willing to pay
  (positive) or the *minimum* amount the user is willing to receive expressed
  as a negative payment (e.g. ``pi_u = -500`` means "pay me at least 500").

The sign conventions make the proxy rule (Eq. 1) uniform across buyers and
sellers: a bundle is acceptable at prices ``p`` iff its cost ``q.p <= pi_u``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.bundles import Bundle, BundleKind, BundleSet


class BidderClass(str, enum.Enum):
    """Participant classification used in the convergence discussion (III-C-3)."""

    PURE_BUYER = "pure_buyer"
    PURE_SELLER = "pure_seller"
    TRADER = "trader"
    NULL = "null"


@dataclass(frozen=True)
class Bid:
    """One participant's sealed bid for the clock auction.

    Attributes
    ----------
    bidder:
        Participant identifier (an engineering team or the operator).
    bundles:
        The XOR indifference set ``Q_u``.
    limit:
        ``pi_u``: maximum willingness to pay (positive) or minimum acceptable
        revenue as a negative number (sellers).
    metadata:
        Free-form annotations (owning team, originating service request,
        auction round, etc.); never interpreted by the mechanism itself.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> bid = Bid.buy("web-team", index, [{"a/cpu": 10}, {"b/cpu": 10}], max_payment=50.0)
    >>> bid.bidder_class.value
    'pure_buyer'
    >>> bid.acceptable_at(np.array([4.0, 0.0, 6.0, 0.0]))   # cheapest costs 40 <= 50
    True
    >>> bid.acceptable_at(np.array([6.0, 0.0, 7.0, 0.0]))   # cheapest costs 60 > 50
    False
    """

    bidder: str
    bundles: BundleSet
    limit: float
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bidder:
            raise ValueError("bidder id must be non-empty")
        if not np.isfinite(self.limit):
            raise ValueError("bid limit (pi_u) must be finite")

    # -- convenience constructors ------------------------------------------------
    @staticmethod
    def buy(
        bidder: str,
        index: PoolIndex,
        bundles: Sequence[Mapping[str, float] | np.ndarray | Bundle],
        max_payment: float,
        **metadata: object,
    ) -> "Bid":
        """A buy bid: demand one of ``bundles``, pay at most ``max_payment``.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> index = demo_pool_index()
        >>> Bid.buy("t", index, [{"a/cpu": 5}], max_payment=100.0).limit
        100.0
        """
        if max_payment < 0:
            raise ValueError("max_payment must be non-negative for a buy bid")
        return Bid(bidder=bidder, bundles=BundleSet(index, bundles), limit=float(max_payment), metadata=dict(metadata))

    @staticmethod
    def sell(
        bidder: str,
        index: PoolIndex,
        bundles: Sequence[Mapping[str, float] | np.ndarray | Bundle],
        min_revenue: float,
        **metadata: object,
    ) -> "Bid":
        """A sell bid: give up one of ``bundles``, receive at least ``min_revenue``.

        ``bundles`` should contain non-positive quantity vectors (offers); a
        mapping with positive values is negated for convenience so callers can
        write the amounts they are offering as positive numbers.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> index = demo_pool_index()
        >>> bid = Bid.sell("t", index, [{"a/cpu": 5}], min_revenue=40.0)
        >>> bid.limit                      # minimum revenue as a negative limit
        -40.0
        >>> bid.bidder_class.value
        'pure_seller'
        """
        if min_revenue < 0:
            raise ValueError("min_revenue must be non-negative for a sell bid")
        normalized: list[np.ndarray] = []
        for item in bundles:
            if isinstance(item, Bundle):
                vec = np.asarray(item.quantities, dtype=float)
            elif isinstance(item, Mapping):
                vec = index.vector(item)
            else:
                vec = np.asarray(item, dtype=float)
            if np.any(vec > 0):
                vec = -np.abs(vec)
            normalized.append(vec)
        return Bid(
            bidder=bidder,
            bundles=BundleSet(index, normalized),
            limit=-float(min_revenue),
            metadata=dict(metadata),
        )

    # -- derived properties --------------------------------------------------------
    @property
    def index(self) -> PoolIndex:
        """The pool index the bid's bundles are expressed over."""
        return self.bundles.index

    @property
    def bidder_class(self) -> BidderClass:
        """Pure buyer / pure seller / trader classification of this bid."""
        return classify_bidder(self)

    def cheapest_bundle(self, prices: np.ndarray) -> tuple[Bundle, float]:
        """The cheapest bundle in ``Q_u`` at ``prices`` and its cost."""
        i, cost = self.bundles.cheapest(prices)
        return self.bundles.bundle(i), cost

    def acceptable_at(self, prices: np.ndarray) -> bool:
        """True iff the cheapest bundle satisfies ``q.p <= pi_u`` (Eq. 1)."""
        _, cost = self.bundles.cheapest(prices)
        return cost <= self.limit + 1e-9


def classify_bidder(bid: Bid) -> BidderClass:
    """Classify a bid by the sign structure of its bundle set (Section III-C-3).

    Reads the aggregate kind the bundle set derived when it was built, so
    classifying a bid again (order book, exchange, clock) costs nothing.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bundles import BundleSet
    >>> index = demo_pool_index()
    >>> trader = Bid("t", BundleSet(index, [{"a/cpu": 1, "b/cpu": -1}]), limit=0.0)
    >>> classify_bidder(trader).value
    'trader'
    """
    kind = bid.bundles.aggregate_kind()
    if kind is BundleKind.BUY:
        return BidderClass.PURE_BUYER
    if kind is BundleKind.SELL:
        return BidderClass.PURE_SELLER
    if kind is BundleKind.EMPTY:
        return BidderClass.NULL
    return BidderClass.TRADER


def validate_bid(bid: Bid, *, budget: float | None = None) -> list[str]:
    """Validate a bid, returning a list of human-readable problems (empty = valid).

    Checks the structural requirements of the model plus optional budget
    feasibility (a buy bid whose limit exceeds the bidder's budget can never
    be honored by the ledger).

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> bid = Bid.buy("t", index, [{"a/cpu": 5}], max_payment=100.0)
    >>> validate_bid(bid)
    []
    >>> validate_bid(bid, budget=50.0)
    ['bid limit 100.00 exceeds available budget 50.00']
    """
    problems: list[str] = []
    cls = classify_bidder(bid)
    if cls is BidderClass.NULL:
        problems.append("bid contains only empty bundles")
    if cls is BidderClass.PURE_BUYER and bid.limit < 0:
        problems.append("buy bid has a negative willingness to pay")
    if cls is BidderClass.PURE_SELLER and bid.limit > 0:
        problems.append("sell bid has a positive limit; expected a minimum-revenue (negative) limit")
    if budget is not None and bid.limit > budget:
        problems.append(
            f"bid limit {bid.limit:.2f} exceeds available budget {budget:.2f}"
        )
    if not bid.bundles.all_finite():
        problems.append("bundle quantities contain non-finite values")
    return problems


def group_bids_by_class(bids: Sequence[Bid]) -> dict[BidderClass, list[Bid]]:
    """Group bids by their :class:`BidderClass` (helper for analysis/reporting).

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> bids = [Bid.buy("t", index, [{"a/cpu": 5}], max_payment=10.0)]
    >>> [b.bidder for b in group_bids_by_class(bids)[BidderClass.PURE_BUYER]]
    ['t']
    """
    groups: dict[BidderClass, list[Bid]] = {cls: [] for cls in BidderClass}
    for bid in bids:
        groups[classify_bidder(bid)].append(bid)
    return groups
