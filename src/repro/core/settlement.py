"""Settlement: turning final clock prices into allocations, payments, and checks.

Once the clock auction clears, the outcome is settled at the final, uniform
unit prices: every bidder whose proxy is still active receives the cheapest
bundle in its indifference set and pays (or is paid) that bundle's linear
cost; everyone else receives nothing.  This module also verifies the SYSTEM
feasibility constraints of Section III-B against the settled outcome and
computes the bid-premium statistic ``gamma_u`` (Eq. 5) used by Table I.

Both steps run as a few array passes over all bids rather than one proxy
per bid.  Each bid's bundle costs still come from its own ``matrix @
prices``, the product :class:`~repro.core.proxy.BidderProxy` computes: a
payment is a cost, and one stacked product (the batch engine's) rounds some
rows differently in the last bit.  The per-bid costs are concatenated, and
:func:`~repro.core.batch.cheapest_rows` picks every bid's cheapest bundle
with ``np.argmin``'s tie-break.  :func:`settle` then compares the chosen
costs with the limits in one vector pass and builds one line per bid.
:func:`verify_system_constraints` checks constraints 3-5 as vector
comparisons and constraint 1 with ``np.isclose`` over the winners' bundle
rows, a bounded block of winners at a time, so no stack of every bid's
matrix is ever built.  Messages are formatted only for the lines flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.batch import cheapest_rows
from repro.core.bids import Bid
from repro.core.clock_auction import AuctionOutcome
from repro.core.proxy import DROPOUT_SLACK

#: Winners whose constraint-1 check runs in one stacked ``np.isclose``; bounds
#: the temporaries of :func:`verify_system_constraints` at any auction size.
_CHECK_BLOCK = 256


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


def _bundle_costs(
    matrices: Sequence[np.ndarray], prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bundle row's cost, with each bid's segment of the flat vector.

    Costs come from one ``matrix @ prices`` per bid, the product
    :meth:`~repro.core.bundles.BundleSet.costs` computes, so each cost has the
    bits the proxy sees (one stacked product may round some rows
    differently).  Returns ``(costs, starts, segment_ids)`` in the form
    :func:`~repro.core.batch.cheapest_rows` takes.
    """
    costs = np.concatenate([matrix @ prices for matrix in matrices])
    counts, starts = _segments(matrices)
    segment_ids = np.repeat(np.arange(len(matrices), dtype=np.intp), counts)
    return costs, starts, segment_ids


def _segments(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row count and first row of each matrix once they are stacked in order."""
    counts = np.fromiter(map(len, matrices), dtype=np.intp, count=len(matrices))
    starts = np.zeros(len(matrices), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return counts, starts


def settle(
    index: PoolIndex,
    bids: Sequence[Bid],
    prices: np.ndarray,
    *,
    supply: np.ndarray | None = None,
) -> Settlement:
    """Settle a set of bids at the given uniform unit prices.

    Each bid is settled independently by the proxy rule: if the cheapest
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
    r = len(index)
    if prices.shape != (r,):
        raise ValueError(f"price vector has shape {prices.shape}, expected ({r},)")
    supply_vec = np.zeros(r, dtype=float) if supply is None else np.asarray(supply, dtype=float)
    bids = list(bids)
    lines: list[SettlementLine] = []
    if bids:
        matrices = [bid.bundles.matrix for bid in bids]
        costs, starts, segment_ids = _bundle_costs(matrices, prices)
        _, rows = cheapest_rows(costs, starts, segment_ids)
        chosen_costs = costs[rows]
        limits = np.array([bid.limit for bid in bids], dtype=float)
        active = chosen_costs <= limits + DROPOUT_SLACK
        for bid, matrix, j, cost, is_active in zip(
            bids, matrices, (rows - starts).tolist(), chosen_costs.tolist(), active.tolist()
        ):
            row = matrix[j]
            # An active row's cost is not NaN, so the row holds no NaN and a
            # count of non-zeros is the proxy's ``any(abs(row) > 0)``.
            if is_active and np.count_nonzero(row):
                line = SettlementLine(bid.bidder, True, row.copy(), cost, bid.limit, j)
            else:
                line = SettlementLine(bid.bidder, False, np.zeros(r), 0.0, bid.limit, None)
            lines.append(line)
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

    # Every line is checked against its team's last bid.  Arrays below run
    # over the lines whose bidder is known, in line order.
    lines = settlement.lines
    paired = [bids_by_name.get(line.bidder) for line in lines]
    known = [i for i, bid in enumerate(paired) if bid is not None]
    slot: dict[int, int] = {}  # flagged line -> its position in the arrays
    if known:
        line_bids = [paired[i] for i in known]
        matrices = [bid.bundles.matrix for bid in line_bids]
        costs, starts, segment_ids = _bundle_costs(matrices, np.asarray(prices, dtype=float))
        min_costs, rows = cheapest_rows(costs, starts, segment_ids)
        limits = np.array([bid.limit for bid in line_bids], dtype=float)
        payments = np.array([lines[i].payment for i in known], dtype=float)
        won = np.array([bool(lines[i].won) for i in known], dtype=bool)
        slack = tolerance * scale
        # (1) allocation is one of the bidder's bundles
        outside = np.zeros(len(known), dtype=bool)
        winners = np.flatnonzero(won)
        for first in range(0, len(winners), _CHECK_BLOCK):
            block = winners[first : first + _CHECK_BLOCK]
            outside[block] = ~_allocations_in_bundle_sets(
                [matrices[k] for k in block], [lines[known[k]].allocation for k in block], tolerance
            )
        # (3) winners pay no more than their limit
        over_limit = won & (payments > limits + slack)
        # (4) winners get the cheapest bundle in their set
        not_cheapest = won & (payments > min_costs + slack)
        # (5) losers bid too little.  Bids whose cheapest bundle is the empty
        # bundle are degenerate (they "win nothing" by definition) and are
        # exempt from the check.
        covered = ~won & (limits >= min_costs - slack)
        for k in np.flatnonzero(covered).tolist():
            cheapest = matrices[k][rows[k] - starts[k]]
            covered[k] = not np.all(np.abs(cheapest) <= tolerance)
        flagged = outside | over_limit | not_cheapest | covered
        slot = {known[k]: k for k in np.flatnonzero(flagged).tolist()}

    # Messages for unknown and flagged lines only, in line order.
    unknown = [i for i, bid in enumerate(paired) if bid is None]
    for i in sorted(unknown + list(slot)):
        line = lines[i]
        bid = paired[i]
        if bid is None:
            violations.append(f"settlement contains unknown bidder {line.bidder!r}")
            continue
        k = slot[i]
        min_cost = float(min_costs[k])
        if outside[k]:
            violations.append(
                f"constraint 1 violated: {line.bidder} was allocated a bundle outside Q_u"
            )
        if over_limit[k]:
            violations.append(
                f"constraint 3 violated: {line.bidder} pays {line.payment:.6g} above limit {bid.limit:.6g}"
            )
        if not_cheapest[k]:
            violations.append(
                f"constraint 4 violated: {line.bidder} pays {line.payment:.6g} but cheapest bundle costs {min_cost:.6g}"
            )
        if covered[k]:
            violations.append(
                f"constraint 5 violated: {line.bidder} lost but its limit {bid.limit:.6g} covers the cheapest bundle cost {min_cost:.6g}"
            )
    return ConstraintReport(satisfied=not violations, violations=violations)


def _allocations_in_bundle_sets(
    matrices: Sequence[np.ndarray], allocations: Sequence[np.ndarray], tolerance: float
) -> np.ndarray:
    """For each winner, whether its allocation is close to a row of its bid.

    The same elementwise ``np.isclose(..., atol=tolerance)`` as one call per
    winner, applied to the winners' stacked bundle rows against each
    allocation repeated once per row of its bid.
    """
    counts, starts = _segments(matrices)
    repeated = np.repeat(np.array(allocations, dtype=float), counts, axis=0)
    row_close = np.isclose(np.concatenate(matrices), repeated, atol=tolerance).all(axis=1)
    return np.logical_or.reduceat(row_close, starts)
