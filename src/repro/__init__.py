"""repro — a market economy for provisioning compute resources across planet-wide clusters.

Reproduction of Stokely, Winget, Keyes, Grimes, and Yolken, *"Using a Market
Economy to Provision Compute Resources Across Planet-wide Clusters"*
(IPDPS 2009).

The public API is organised in layers:

* :mod:`repro.cluster` — the planet-wide cluster substrate (clusters as
  capacity and load, resource pools, fleet generation, utilization);
* :mod:`repro.core` — the market mechanism (bundles, bids, bidder proxies, the
  ascending clock auction, congestion-weighted reserve pricing, settlement,
  and the combinatorial exchange);
* :mod:`repro.bidlang` — the TBBL-like tree bidding language;
* :mod:`repro.market` — the trading platform (accounts, service catalog, order
  book, market summary, periodic auction rounds);
* :mod:`repro.agents` — engineering-team agents with evolving bidding strategies;
* :mod:`repro.simulation` — the multi-auction economy simulation;
* :mod:`repro.mechanisms` — the market and the traditional (non-market)
  allocation policies it is compared against, behind one registry;
* :mod:`repro.analysis` — metrics (bid premium, settlement stats, utilization
  percentiles of settled trades, price ratios, shortages and surpluses of
  allocation outcomes);
* :mod:`repro.experiments` — drivers that regenerate every table and figure in
  the paper's evaluation section.
"""

from repro.cluster import (
    ResourceType,
    ResourceVector,
    Cluster,
    FleetTopology,
    ResourcePool,
    PoolIndex,
    FleetSpec,
    generate_fleet,
)
from repro.core import (
    BundleSet,
    Bid,
    BidderProxy,
    AscendingClockAuction,
    AuctionConfig,
    AuctionOutcome,
    BatchDemandEngine,
    BatchResponse,
    CombinatorialExchange,
    ExchangeResult,
    ReservePricer,
    ExponentialWeight,
    ReciprocalWeight,
    Settlement,
    settle,
    verify_system_constraints,
)

__version__ = "0.1.0"

__all__ = [
    "ResourceType",
    "ResourceVector",
    "Cluster",
    "FleetTopology",
    "ResourcePool",
    "PoolIndex",
    "FleetSpec",
    "generate_fleet",
    "BundleSet",
    "Bid",
    "BidderProxy",
    "AscendingClockAuction",
    "AuctionConfig",
    "AuctionOutcome",
    "BatchDemandEngine",
    "BatchResponse",
    "CombinatorialExchange",
    "ExchangeResult",
    "ReservePricer",
    "ExponentialWeight",
    "ReciprocalWeight",
    "Settlement",
    "settle",
    "verify_system_constraints",
    "__version__",
]
