"""Core market mechanism: bundles, bids, proxies, the ascending clock auction,
congestion-weighted reserve pricing, settlement, and the combinatorial exchange.

This package is the paper's primary contribution (Sections II-IV).  The public
entry point for most users is :class:`repro.core.exchange.CombinatorialExchange`,
which wires reserve pricing, the clock auction, and settlement together; the
individual pieces are importable for finer-grained use and for the ablation
experiments.
"""

from repro.core.bundles import Bundle, BundleSet, bundle_kind, BundleKind
from repro.core.bids import Bid, BidderClass, classify_bidder, validate_bid
from repro.core.proxy import BidderProxy, ProxyDecision
from repro.core.increment import (
    IncrementPolicy,
    AdditiveIncrement,
    CappedIncrement,
    NormalizedIncrement,
    ProportionalIncrement,
    default_increment,
)
from repro.core.reserve import (
    WeightingFunction,
    ExponentialWeight,
    ReciprocalWeight,
    LinearWeight,
    FlatWeight,
    ReservePricer,
    check_weighting_properties,
    PAPER_PHI_1,
    PAPER_PHI_2,
    PAPER_PHI_3,
)
from repro.core.batch import (
    BatchDemandEngine,
    BatchResponse,
    sum_demand_rows,
)
from repro.core.clock_auction import (
    BATCH_AUTO_THRESHOLD,
    ENGINES,
    AscendingClockAuction,
    AuctionConfig,
    AuctionOutcome,
    AuctionRound,
    ConvergenceError,
)
from repro.core.settlement import (
    AmbiguousBidderError,
    Settlement,
    SettlementLine,
    settle,
    verify_system_constraints,
    ConstraintReport,
)
from repro.core.exchange import CombinatorialExchange, ExchangeResult
from repro.core.prices import PriceTable, price_ratios

__all__ = [
    "Bundle",
    "BundleSet",
    "BundleKind",
    "bundle_kind",
    "Bid",
    "BidderClass",
    "classify_bidder",
    "validate_bid",
    "BidderProxy",
    "ProxyDecision",
    "IncrementPolicy",
    "AdditiveIncrement",
    "CappedIncrement",
    "NormalizedIncrement",
    "ProportionalIncrement",
    "default_increment",
    "WeightingFunction",
    "ExponentialWeight",
    "ReciprocalWeight",
    "LinearWeight",
    "FlatWeight",
    "ReservePricer",
    "check_weighting_properties",
    "PAPER_PHI_1",
    "PAPER_PHI_2",
    "PAPER_PHI_3",
    "AscendingClockAuction",
    "AuctionConfig",
    "AuctionOutcome",
    "AuctionRound",
    "BATCH_AUTO_THRESHOLD",
    "BatchDemandEngine",
    "BatchResponse",
    "ConvergenceError",
    "ENGINES",
    "sum_demand_rows",
    "AmbiguousBidderError",
    "Settlement",
    "SettlementLine",
    "settle",
    "verify_system_constraints",
    "ConstraintReport",
    "CombinatorialExchange",
    "ExchangeResult",
    "PriceTable",
    "price_ratios",
]
