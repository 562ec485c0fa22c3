"""Settlement: turning final clock prices into allocations, payments, and checks.

Once the clock auction clears, the outcome is settled at the final, uniform
unit prices: every bidder whose proxy is still active receives the cheapest
bundle in its indifference set and pays (or is paid) that bundle's linear
cost; everyone else receives nothing.  This module also verifies the SYSTEM
feasibility constraints of Section III-B against the settled outcome and
computes the bid-premium statistic ``gamma_u`` (Eq. 5) used by Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.bids import Bid
from repro.core.clock_auction import AuctionOutcome
from repro.core.proxy import BidderProxy


@dataclass(frozen=True)
class SettlementLine:
    """The settled outcome for one bidder."""

    bidder: str
    won: bool
    #: Quantity vector allocated (zeros when the bidder lost).
    allocation: np.ndarray
    #: Payment ``x_u . p``; positive = bidder pays, negative = bidder is paid.
    payment: float
    #: The bidder's limit ``pi_u``.
    limit: float
    #: Index of the awarded bundle within the bid's bundle set (None if lost).
    bundle_index: int | None

    @property
    def premium(self) -> float | None:
        """Bid premium ``gamma_u = |pi_u - x.p| / |x.p|`` (Eq. 5); ``None`` for losers.

        Undefined (returns ``None``) when the settled payment is zero, which
        can only happen for degenerate free bundles.
        """
        if not self.won:
            return None
        denom = abs(self.payment)
        if denom <= 0.0:
            return None
        return abs(self.limit - self.payment) / denom


@dataclass
class ConstraintReport:
    """Result of checking the SYSTEM constraints (Section III-B) on a settlement."""

    satisfied: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfied


@dataclass
class Settlement:
    """Full settled outcome of one auction."""

    index: PoolIndex
    prices: np.ndarray
    lines: list[SettlementLine]
    supply: np.ndarray

    # -- winners / losers -------------------------------------------------------
    @property
    def winners(self) -> list[SettlementLine]:
        """Lines for bidders who were awarded a bundle."""
        return [line for line in self.lines if line.won]

    @property
    def losers(self) -> list[SettlementLine]:
        """Lines for bidders who were not awarded anything."""
        return [line for line in self.lines if not line.won]

    def line_for(self, bidder: str) -> SettlementLine:
        """The settlement line of one bidder."""
        for line in self.lines:
            if line.bidder == bidder:
                return line
        raise KeyError(f"no settlement line for bidder {bidder!r}")

    # -- aggregates ----------------------------------------------------------------
    def total_allocated(self) -> np.ndarray:
        """Sum of all allocations (net demand minus net offers), per pool."""
        total = np.zeros(len(self.index), dtype=float)
        for line in self.lines:
            total += line.allocation
        return total

    def settled_fraction(self) -> float:
        """Fraction of bids that settled (the '% Settled' column of Table I)."""
        if not self.lines:
            return 0.0
        return len(self.winners) / len(self.lines)

    def total_payments(self) -> float:
        """Net payments collected from winners (buyers pay, sellers receive)."""
        return float(sum(line.payment for line in self.winners))

    def premiums(self) -> list[float]:
        """All defined winner premiums ``gamma_u`` (Eq. 5)."""
        values = [line.premium for line in self.winners]
        return [v for v in values if v is not None]

    def price_map(self) -> dict[str, float]:
        """Final settled prices keyed by pool name."""
        return {pool.name: float(self.prices[i]) for i, pool in enumerate(self.index)}

    def allocation_map(self, bidder: str) -> dict[str, float]:
        """Non-zero allocation of one bidder keyed by pool name."""
        return self.index.describe(self.line_for(bidder).allocation)


def settle(
    index: PoolIndex,
    bids: Sequence[Bid],
    prices: np.ndarray,
    *,
    supply: np.ndarray | None = None,
) -> Settlement:
    """Settle a set of bids at the given uniform unit prices.

    Each bid is settled independently through its proxy: if the cheapest
    bundle at ``prices`` is within the bidder's limit, the bidder wins that
    bundle and pays its cost; otherwise the bidder loses.  This mirrors how
    the final simulation run of the trading platform produced "the final,
    binding market prices and engineering team allocations".

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> bids = [Bid.buy("rich", index, [{"a/cpu": 10}], max_payment=100.0),
    ...         Bid.buy("poor", index, [{"a/cpu": 10}], max_payment=10.0)]
    >>> result = settle(index, bids, np.array([5.0, 0.0, 0.0, 0.0]))
    >>> [line.bidder for line in result.winners]
    ['rich']
    >>> result.line_for("rich").payment
    50.0
    >>> result.settled_fraction()
    0.5
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (len(index),):
        raise ValueError(f"price vector has shape {prices.shape}, expected ({len(index)},)")
    supply_vec = (
        np.zeros(len(index), dtype=float) if supply is None else np.asarray(supply, dtype=float)
    )
    lines = []
    for bid in bids:
        decision = BidderProxy(bid).respond(prices)
        won = bool(decision.active and np.any(np.abs(decision.quantities) > 0))
        lines.append(
            SettlementLine(
                bidder=bid.bidder,
                won=won,
                allocation=decision.quantities if won else np.zeros(len(index)),
                payment=decision.cost if won else 0.0,
                limit=bid.limit,
                bundle_index=decision.bundle_index if won else None,
            )
        )
    return Settlement(index=index, prices=prices.copy(), lines=lines, supply=supply_vec.copy())


def settle_outcome(bids: Sequence[Bid], outcome: AuctionOutcome, *, supply: np.ndarray | None = None) -> Settlement:
    """Settle at the final prices of a completed clock auction."""
    return settle(outcome.index, bids, outcome.final_prices, supply=supply)


def verify_system_constraints(
    settlement: Settlement,
    bids: Sequence[Bid],
    *,
    tolerance: float = 1e-6,
) -> ConstraintReport:
    """Check the six SYSTEM constraints of Section III-B against a settlement.

    1. ``x_u in {0, Q_u}`` — every allocation is either zero or one of the
       bidder's own bundles;
    2. ``sum_u x_u <= supply`` — no pool is allocated beyond what is available;
    3. ``pi_u >= x_u . p`` for winners;
    4. ``x_u . p = min_q q . p`` for winners (cheapest-bundle rule);
    5. ``pi_u < min_q q . p`` for losers;
    6. ``p >= 0``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> bids = [Bid.buy("t", index, [{"a/cpu": 10}], max_payment=100.0)]
    >>> settlement = settle(index, bids, np.array([5.0, 0.0, 0.0, 0.0]),
    ...                     supply=np.full(len(index), 50.0))
    >>> verify_system_constraints(settlement, bids).satisfied
    True
    """
    violations: list[str] = []
    prices = settlement.prices
    bids_by_name = {bid.bidder: bid for bid in bids}
    scale = np.maximum(np.abs(prices).max(initial=1.0), 1.0)

    # (6) non-negative prices
    if np.any(prices < -tolerance):
        violations.append("constraint 6 violated: negative prices present")

    # (2) no over-allocation
    over = settlement.total_allocated() - settlement.supply
    capacities = np.maximum(settlement.index.capacities(), 1.0)
    bad = np.flatnonzero(over > tolerance * capacities + tolerance)
    for i in bad:
        violations.append(
            f"constraint 2 violated: pool {settlement.index.pools[i].name} over-allocated by {over[i]:.6g}"
        )

    for line in settlement.lines:
        bid = bids_by_name.get(line.bidder)
        if bid is None:
            violations.append(f"settlement contains unknown bidder {line.bidder!r}")
            continue
        costs = bid.bundles.costs(prices)
        min_cost = float(np.min(costs))
        if line.won:
            # (1) allocation is one of the bidder's bundles
            matches = np.any(
                np.all(np.isclose(bid.bundles.matrix, line.allocation, atol=tolerance), axis=1)
            )
            if not matches:
                violations.append(
                    f"constraint 1 violated: {line.bidder} was allocated a bundle outside Q_u"
                )
            # (3) winners pay no more than their limit
            if line.payment > bid.limit + tolerance * scale:
                violations.append(
                    f"constraint 3 violated: {line.bidder} pays {line.payment:.6g} above limit {bid.limit:.6g}"
                )
            # (4) winners get the cheapest bundle in their set
            if line.payment > min_cost + tolerance * scale:
                violations.append(
                    f"constraint 4 violated: {line.bidder} pays {line.payment:.6g} but cheapest bundle costs {min_cost:.6g}"
                )
        else:
            # (5) losers bid too little.  Bids whose cheapest bundle is the
            # empty bundle are degenerate (they "win nothing" by definition)
            # and are exempt from the check.
            cheapest_i = int(np.argmin(costs))
            cheapest_is_empty = bool(
                np.all(np.abs(bid.bundles.matrix[cheapest_i]) <= tolerance)
            )
            if not cheapest_is_empty and bid.limit >= min_cost - tolerance * scale:
                violations.append(
                    f"constraint 5 violated: {line.bidder} lost but its limit {bid.limit:.6g} covers the cheapest bundle cost {min_cost:.6g}"
                )
    return ConstraintReport(satisfied=not violations, violations=violations)
