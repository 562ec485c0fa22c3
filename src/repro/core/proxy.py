"""Bidder proxies: the automated demand functions of the clock auction.

The paper adapts the multi-round clock auction to a single sealed-bid round by
introducing proxies that re-express each bid at every price step (Section
III-C, Eq. 1-2)::

    G_u(p) = q_hat_u   if q_hat_u . p <= pi_u
             0         otherwise
    q_hat_u in argmin_{q in Q_u} q . p

i.e. at each round the proxy demands the cheapest bundle in the bidder's
indifference set, unless even that bundle exceeds the bidder's limit, in which
case the bidder drops out (demands nothing) for that round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bids import Bid

#: Numerical slack in the acceptability test ``q.p <= pi_u + DROPOUT_SLACK``.
#: The batch demand engine (:mod:`repro.core.batch`) applies the identical
#: slack so both engines make the same drop-out decisions.
DROPOUT_SLACK = 1e-9


@dataclass(frozen=True)
class ProxyDecision:
    """The proxy's response to one price vector."""

    bidder: str
    #: Quantity vector demanded (positive) / offered (negative); all zeros if
    #: the bidder dropped out at these prices.
    quantities: np.ndarray
    #: Index of the chosen bundle in the bid's bundle set, or ``None`` if the
    #: bidder dropped out.
    bundle_index: int | None
    #: Cost ``q . p`` of the chosen bundle (0.0 when dropped out).
    cost: float
    #: Whether the bidder is in (demanding a bundle) at these prices.
    active: bool


class BidderProxy:
    """A proxy wrapping one sealed bid, implementing ``G_u(p)``.

    The proxy is stateless between calls — it simply re-evaluates the bid at
    whatever prices the auctioneer announces — but it records the last
    decision for inspection and tracing.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> bid = Bid.buy("t", index, [{"a/cpu": 10}], max_payment=30.0)
    >>> proxy = BidderProxy(bid)
    >>> proxy.respond(np.array([2.0, 0.0, 0.0, 0.0])).active   # costs 20 <= 30
    True
    >>> proxy.respond(np.array([5.0, 0.0, 0.0, 0.0])).active   # costs 50 > 30
    False
    """

    def __init__(self, bid: Bid):
        self.bid = bid
        self._last: ProxyDecision | None = None

    @property
    def bidder(self) -> str:
        return self.bid.bidder

    @property
    def last_decision(self) -> ProxyDecision | None:
        """The most recent decision (for round traces); ``None`` before the first call."""
        return self._last

    def respond(self, prices: np.ndarray) -> ProxyDecision:
        """Evaluate ``G_u(p)`` at the given prices."""
        prices = np.asarray(prices, dtype=float)
        bundle_i, cost = self.bid.bundles.cheapest(prices)
        if cost <= self.bid.limit + DROPOUT_SLACK:
            decision = ProxyDecision(
                bidder=self.bid.bidder,
                quantities=self.bid.bundles.matrix[bundle_i].copy(),
                bundle_index=bundle_i,
                cost=cost,
                active=True,
            )
        else:
            decision = ProxyDecision(
                bidder=self.bid.bidder,
                quantities=np.zeros(len(self.bid.index), dtype=float),
                bundle_index=None,
                cost=0.0,
                active=False,
            )
        self._last = decision
        return decision
