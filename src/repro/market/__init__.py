"""The trading platform: accounts, quotas, services, order book, market summary.

This package reproduces Section V-A of the paper — the commercialization stack
around the auction mechanism.  The original was an internal web application;
here the same functionality is exposed as a programmatic API:

* the ledger of budget-dollar accounts (:mod:`repro.market.accounts`);
* per-team quota holdings updated by settlements (:mod:`repro.market.quotas`);
* a service catalog translating high-level requests ("N units of a GFS-like
  storage service in cluster X") into covering CPU/RAM/disk bundles
  (:mod:`repro.market.services`), mirroring the two-step bid entry of Figure 4;
* an order book collecting bids and offers during the bid window
  (:mod:`repro.market.orderbook`);
* the market-summary report of Figure 3 (:mod:`repro.market.summary`);
* the :class:`~repro.market.platform.TradingPlatform` tying it all together and
  running the periodic clock auctions;
* capacity recommendations read off the settled prices
  (:mod:`repro.market.decision_support`).

The budget-disbursement policy that seeds the accounts is out of the
paper's scope; teams are registered with the budget their scenario gives them.
"""

from repro.market.accounts import Account, Ledger, InsufficientBudgetError
from repro.market.quotas import QuotaRegistry, QuotaError
from repro.market.services import ServiceCatalog, ServiceSpec, ServiceRequest, default_catalog
from repro.market.orderbook import OrderBook, Order, OrderSide, OrderStatus
from repro.market.summary import MarketSummary, ClusterSummaryRow, render_market_summary
from repro.market.platform import TradingPlatform, AuctionRecord, BidTicket
from repro.market.decision_support import (
    CapacityAction,
    CapacityRecommendation,
    DecisionSupportConfig,
    recommend_capacity_actions,
    apply_recommendations,
    summarize_actions,
)

__all__ = [
    "CapacityAction",
    "CapacityRecommendation",
    "DecisionSupportConfig",
    "recommend_capacity_actions",
    "apply_recommendations",
    "summarize_actions",
    "Account",
    "Ledger",
    "InsufficientBudgetError",
    "QuotaRegistry",
    "QuotaError",
    "ServiceCatalog",
    "ServiceSpec",
    "ServiceRequest",
    "default_catalog",
    "OrderBook",
    "Order",
    "OrderSide",
    "OrderStatus",
    "MarketSummary",
    "ClusterSummaryRow",
    "render_market_summary",
    "TradingPlatform",
    "AuctionRecord",
    "BidTicket",
]
