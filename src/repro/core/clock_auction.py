"""The ascending clock auction (paper Section III-C, Algorithm 1, Figure 1).

The auctioneer maintains a price "clock" per resource pool.  Each round it
collects the demand of every bidder proxy at the current prices, computes the
excess demand ``z(t) = sum_u x_u(t) - supply``, and either stops (no pool is
over-demanded) or raises the prices of over-demanded pools according to the
configured increment policy and repeats.

Key properties implemented/verified here:

* prices increase monotonically from the reserve prices;
* the auction terminates when excess demand is component-wise non-positive;
* with only pure buyers (plus the operator's supply) termination is
  guaranteed; with traders it may not be, so a round limit plus a divergence
  guard raise :class:`ConvergenceError` instead of looping forever;
* the full round-by-round trace (prices, excess demand, active bidders) is
  recorded for analysis and for the Figure 1 / Algorithm 1 reproduction.

Demand collection runs on one of two interchangeable engines selected by
:attr:`AuctionConfig.engine`: the scalar per-proxy loop (the reference
implementation) and the vectorized
:class:`repro.core.batch.BatchDemandEngine`, which evaluates all bidders as
dense matrix operations and scales to tens of thousands of bidders.  Both
honor the same round-trace contract and produce identical
:class:`AuctionRound` / :class:`AuctionOutcome` objects; ``docs/engines.md``
compares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.batch import BatchDemandEngine, BatchResponse
from repro.core.bids import Bid, BidderClass, classify_bidder
from repro.core.increment import IncrementPolicy, default_increment
from repro.core.proxy import BidderProxy

#: Valid values of :attr:`AuctionConfig.engine`.
ENGINES = ("auto", "scalar", "batch")

#: With ``engine="auto"``, auctions with at least this many bidders use the
#: vectorized batch engine; smaller ones stay on the scalar path, whose
#: per-round fixed overhead is lower.
BATCH_AUTO_THRESHOLD = 32


class ConvergenceError(RuntimeError):
    """The clock auction failed to clear within the configured round limit.

    The message's first line says why the clock gave up and its second names
    the pools still over-demanded; the attributes carry the evidence from the
    last round the clock ran.  Both have defaults, so ``cls(*err.args)``
    rebuilds the error and pickling keeps them.

    Attributes
    ----------
    excess_demand:
        The last round's excess-demand vector ``z(t)``, or ``None``.
    over_demanded:
        Names of the pools whose excess demand was still positive.
    """

    def __init__(
        self,
        message: str,
        *,
        excess_demand: np.ndarray | None = None,
        over_demanded: Sequence[str] = (),
    ):
        super().__init__(message)
        self.excess_demand = excess_demand
        self.over_demanded = tuple(over_demanded)


@dataclass(frozen=True)
class AuctionConfig:
    """Tunable parameters of the clock auction.

    Attributes
    ----------
    max_rounds:
        Hard limit on the number of price updates before giving up.
    tolerance:
        Excess demand below this (per pool, in resource units relative to the
        pool scale) counts as cleared.
    stall_rounds:
        If prices stop moving for this many consecutive rounds while excess
        demand persists, the auction aborts early (it would never clear).
    record_bidder_demands:
        If ``True``, each round records every bid's demand as one row of a
        ``(bids, R)`` matrix (memory-heavier; useful for debugging and small
        experiments).
    engine:
        Which demand-collection path to use per round: ``"scalar"`` walks the
        per-bidder proxies, ``"batch"`` evaluates all bidders as dense matrix
        operations (:class:`repro.core.batch.BatchDemandEngine`), and
        ``"auto"`` (default) picks batch once the auction has at least
        :data:`BATCH_AUTO_THRESHOLD` bidders.  Both engines produce identical
        round traces.

    Examples
    --------
    >>> AuctionConfig(max_rounds=100, engine="batch").engine
    'batch'
    >>> AuctionConfig(engine="turbo")
    Traceback (most recent call last):
        ...
    ValueError: engine must be one of ('auto', 'scalar', 'batch'), got 'turbo'
    """

    max_rounds: int = 10_000
    tolerance: float = 1e-9
    stall_rounds: int = 50
    record_bidder_demands: bool = False
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.stall_rounds < 1:
            raise ValueError("stall_rounds must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class AuctionRound:
    """State of one round ``t`` of the clock auction."""

    round_index: int
    prices: np.ndarray
    excess_demand: np.ndarray
    active_bidders: int
    #: ``(bids, R)`` demand matrix, row ``i`` for the auction's bid ``i``,
    #: present only when :attr:`AuctionConfig.record_bidder_demands` is set.
    bidder_demands: np.ndarray | None = None


@dataclass
class AuctionOutcome:
    """Result of running the clock auction to completion."""

    index: PoolIndex
    converged: bool
    final_prices: np.ndarray
    #: ``(bids, R)`` demand matrix of the cleared round, row ``i`` for bid ``i``.
    final_demands: np.ndarray
    excess_demand: np.ndarray
    rounds: list[AuctionRound] = field(default_factory=list)
    reserve_prices: np.ndarray | None = None

    @property
    def round_count(self) -> int:
        """Number of price-update rounds executed."""
        return len(self.rounds)

    def price_map(self) -> dict[str, float]:
        """Final prices keyed by pool name."""
        return {pool.name: float(self.final_prices[i]) for i, pool in enumerate(self.index)}


class AscendingClockAuction:
    """Runs Algorithm 1 over a set of sealed bids.

    Parameters
    ----------
    index:
        The pool index all bids are expressed over.
    bids:
        Sealed bids; each is wrapped in a :class:`BidderProxy`.
    reserve_prices:
        Starting prices ``p_tilde`` (typically from
        :class:`repro.core.reserve.ReservePricer`).  Must be non-negative.
    supply:
        Optional non-negative vector of resources the operator makes available
        to the market on top of what selling bidders offer.  The clearing
        condition becomes ``sum_u x_u(t) <= supply``; passing zeros (default)
        recovers the paper's ``sum_u x_u <= 0`` where all supply must come
        from selling participants.
    increment:
        Price-increment policy; defaults to
        :func:`repro.core.increment.default_increment` built from pool capacities.
    config:
        Round limits, tolerances, and the demand-collection engine choice.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> bids = [Bid.buy("team", index, [{"a/cpu": 10}], max_payment=1e6)]
    >>> auction = AscendingClockAuction(
    ...     index, bids,
    ...     reserve_prices=np.ones(len(index)),
    ...     supply=np.full(len(index), 50.0),
    ... )
    >>> auction.engine            # "auto" resolves by bidder count
    'scalar'
    >>> outcome = auction.run()
    >>> outcome.converged, outcome.round_count
    (True, 1)
    """

    def __init__(
        self,
        index: PoolIndex,
        bids: Sequence[Bid],
        *,
        reserve_prices: np.ndarray | Sequence[float],
        supply: np.ndarray | Sequence[float] | None = None,
        increment: IncrementPolicy | None = None,
        config: AuctionConfig | None = None,
    ):
        self.index = index
        self.bids = list(bids)
        for bid in self.bids:
            if bid.index is not index and bid.index.names != index.names:
                raise ValueError(
                    f"bid from {bid.bidder!r} is defined over a different pool index"
                )
        self.reserve_prices = np.asarray(reserve_prices, dtype=float).copy()
        if self.reserve_prices.shape != (len(index),):
            raise ValueError(
                f"reserve prices have shape {self.reserve_prices.shape}, expected ({len(index)},)"
            )
        if np.any(self.reserve_prices < 0) or not np.all(np.isfinite(self.reserve_prices)):
            raise ValueError("reserve prices must be finite and non-negative")
        if supply is None:
            self.supply = np.zeros(len(index), dtype=float)
        else:
            self.supply = np.asarray(supply, dtype=float).copy()
            if self.supply.shape != (len(index),):
                raise ValueError("supply vector has the wrong length")
            if np.any(self.supply < 0):
                raise ValueError("supply must be non-negative")
        self.increment = increment or default_increment(index.capacities())
        self.config = config or AuctionConfig()
        if self.config.engine == "auto":
            self.engine = "batch" if len(self.bids) >= BATCH_AUTO_THRESHOLD else "scalar"
        else:
            self.engine = self.config.engine
        #: Lazily built proxies, one per bid (only when the scalar path is active).
        self._proxies: list[BidderProxy] | None = None
        #: Lazily built batch engine (only when the batch path is active).
        self._batch: BatchDemandEngine | None = None
        #: The last :class:`BatchResponse` collected (batch engine only);
        #: backs :meth:`_last_demands` without re-materialising demands.
        self._last_batch_response: BatchResponse | None = None

    # -- analysis helpers -----------------------------------------------------
    def has_traders(self) -> bool:
        """True if any bid mixes demands and offers (convergence not guaranteed)."""
        return any(classify_bidder(bid) is BidderClass.TRADER for bid in self.bids)


    # -- core loop --------------------------------------------------------------
    def _collect(self, prices: np.ndarray) -> tuple[np.ndarray, int]:
        """One 'collect bids' step: total demand and the active-bidder count.

        Dispatches to the scalar proxy loop or the vectorized batch engine
        according to the resolved :attr:`engine`; both return the same
        values.  The per-bid demand matrix is *not* materialised here — at
        stress scale stacking 100k proxy decisions per round is pure overhead
        when nobody records it; callers that need the individual demands
        (round recording, the cleared round's final demands) ask
        :meth:`_last_demands` afterwards.
        """
        if self.engine == "scalar":
            return self._collect_scalar(prices)
        return self._collect_batch(prices)

    def _collect_scalar(self, prices: np.ndarray) -> tuple[np.ndarray, int]:
        """Reference path: evaluate each :class:`BidderProxy` in turn."""
        if self._proxies is None:
            self._proxies = [BidderProxy(bid) for bid in self.bids]
        total = np.zeros(len(self.index), dtype=float)
        active = 0
        for proxy in self._proxies:
            decision = proxy.respond(prices)
            total += decision.quantities
            if decision.active:
                active += 1
        return total, active

    def _collect_batch(self, prices: np.ndarray) -> tuple[np.ndarray, int]:
        """Vectorized path: evaluate every bidder in one shot."""
        if self._batch is None:
            self._batch = BatchDemandEngine(self.index, self.bids)
        response = self._batch.respond_all(prices)
        self._last_batch_response = response
        return response.total, response.active_count

    def _last_demands(self) -> np.ndarray:
        """The ``(bids, R)`` demand matrix of the most recent :meth:`_collect`.

        Row ``i`` is bid ``i``'s demand, in the order of :attr:`bids`, so a
        team with several bids has several rows.  Ownership contract: the
        matrix is **caller owned** — no later round, engine call, or other
        caller mutates it — so round recording can store it without a
        defensive copy.  The scalar path stacks its proxies' decisions into
        a fresh matrix; the batch path hands out this round's response
        matrix (every round builds a new one).
        """
        if self.engine == "scalar":
            if not self._proxies:
                return np.zeros((0, len(self.index)), dtype=float)
            return np.stack([proxy.last_decision.quantities for proxy in self._proxies])
        assert self._last_batch_response is not None
        return self._last_batch_response.quantities

    def _cleared(self, excess: np.ndarray) -> bool:
        """Clearing test: every pool's excess demand is <= tolerance (scaled)."""
        scale = np.maximum(self.index.capacities(), 1.0)
        return bool(np.all(excess <= self.config.tolerance * scale + self.config.tolerance))

    def _convergence_error(self, reason: str, excess: np.ndarray) -> ConvergenceError:
        """A :class:`ConvergenceError` carrying the last round's excess demand."""
        over = [self.index.names[i] for i in np.flatnonzero(excess > 0)]
        return ConvergenceError(
            f"{reason}\nover-demanded pools: {', '.join(over)}",
            excess_demand=excess.copy(),
            over_demanded=over,
        )

    def run(self) -> AuctionOutcome:
        """Execute the ascending clock auction and return its outcome.

        Raises
        ------
        ConvergenceError
            If the auction neither clears nor makes progress within
            ``config.max_rounds`` (possible when traders are present,
            Section III-C-3).
        """
        cfg = self.config
        prices = self.reserve_prices.copy()
        rounds: list[AuctionRound] = []
        stalled = 0

        for t in range(cfg.max_rounds):
            total_demand, active = self._collect(prices)
            excess = total_demand - self.supply
            rounds.append(
                AuctionRound(
                    round_index=t,
                    prices=prices.copy(),
                    excess_demand=excess.copy(),
                    active_bidders=active,
                    # A caller-owned snapshot straight from the engine — see
                    # the _last_demands ownership contract.
                    bidder_demands=self._last_demands()
                    if cfg.record_bidder_demands
                    else None,
                )
            )
            if self._cleared(excess):
                return AuctionOutcome(
                    index=self.index,
                    converged=True,
                    final_prices=prices,
                    final_demands=self._last_demands(),
                    excess_demand=excess,
                    rounds=rounds,
                    reserve_prices=self.reserve_prices.copy(),
                )
            step = np.asarray(self.increment.increment(excess, prices), dtype=float)
            if np.any(step < 0) or not np.all(np.isfinite(step)):
                raise ValueError(
                    f"increment policy {self.increment.describe()} returned an invalid step"
                )
            # Only over-demanded pools move (Algorithm 1 line 9 with g >= 0
            # supported on the positive part of excess demand).
            step = np.where(excess > 0, step, 0.0)
            if float(step.max(initial=0.0)) <= 0.0:
                stalled += 1
                if stalled >= cfg.stall_rounds:
                    raise self._convergence_error(
                        "clock auction stalled: excess demand persists but prices are no longer moving",
                        excess,
                    )
            else:
                stalled = 0
            prices = prices + step

        raise self._convergence_error(
            f"clock auction did not clear within {cfg.max_rounds} rounds "
            f"(traders present: {self.has_traders()})",
            excess,
        )
