"""Unit tests for bids, bid classification/validation, and bidder proxies."""

import numpy as np
import pytest

from repro.core.bids import (
    Bid,
    BidderClass,
    classify_bidder,
    validate_bid,
)
from repro.core.bundles import BundleSet
from repro.core.proxy import BidderProxy


class TestBidConstruction:
    def test_buy_bid(self, pool_index):
        bid = Bid.buy("team-a", pool_index, [{"alpha/cpu": 10}], max_payment=100.0)
        assert bid.limit == 100.0
        assert bid.bidder_class is BidderClass.PURE_BUYER

    def test_buy_bid_rejects_negative_payment(self, pool_index):
        with pytest.raises(ValueError):
            Bid.buy("team-a", pool_index, [{"alpha/cpu": 10}], max_payment=-5.0)

    @pytest.mark.parametrize("as_array", [False, True], ids=["mapping", "array"])
    def test_sell_bid_negates_positive_quantities(self, pool_index, as_array):
        offer = {"alpha/cpu": 10}
        bid = Bid.sell(
            "team-b", pool_index, [pool_index.vector(offer) if as_array else offer], min_revenue=50.0
        )
        assert bid.limit == -50.0
        assert bid.bidder_class is BidderClass.PURE_SELLER
        assert bid.bundles.matrix[0, pool_index.index_of("alpha/cpu")] == -10.0

    def test_sell_bid_rejects_negative_revenue(self, pool_index):
        with pytest.raises(ValueError):
            Bid.sell("team-b", pool_index, [{"alpha/cpu": 10}], min_revenue=-1.0)

    def test_empty_bidder_name_rejected(self, pool_index):
        with pytest.raises(ValueError):
            Bid(bidder="", bundles=BundleSet(pool_index, [{"alpha/cpu": 1}]), limit=1.0)

    def test_non_finite_limit_rejected(self, pool_index):
        with pytest.raises(ValueError):
            Bid(bidder="x", bundles=BundleSet(pool_index, [{"alpha/cpu": 1}]), limit=float("inf"))

    def test_metadata_is_preserved(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=1.0, service="gfs")
        assert bid.metadata["service"] == "gfs"


class TestClassification:
    def test_trader_classification(self, pool_index):
        trade = Bid(
            bidder="mover",
            bundles=BundleSet(pool_index, [{"alpha/cpu": -10, "beta/cpu": 10}]),
            limit=5.0,
        )
        assert classify_bidder(trade) is BidderClass.TRADER


class TestValidateBid:
    def test_valid_bid_has_no_problems(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=1.0)
        assert validate_bid(bid) == []

    def test_empty_bundle_flagged(self, pool_index):
        bid = Bid(bidder="t", bundles=BundleSet(pool_index, [np.zeros(len(pool_index))]), limit=1.0)
        problems = validate_bid(bid)
        assert any("empty" in p for p in problems)

    def test_budget_violation_flagged(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=100.0)
        problems = validate_bid(bid, budget=50.0)
        assert any("budget" in p for p in problems)

    def test_sell_bid_with_positive_limit_flagged(self, pool_index):
        bid = Bid(bidder="t", bundles=BundleSet(pool_index, [{"alpha/cpu": -1}]), limit=10.0)
        problems = validate_bid(bid)
        assert any("sell bid" in p for p in problems)


class TestBidderProxy:
    def test_buyer_demands_when_affordable(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=100.0)
        proxy = BidderProxy(bid)
        prices = np.zeros(len(pool_index))
        prices[pool_index.index_of("alpha/cpu")] = 5.0
        decision = proxy.respond(prices)
        assert decision.active
        assert decision.cost == pytest.approx(50.0)
        assert decision.quantities[pool_index.index_of("alpha/cpu")] == 10.0

    def test_buyer_drops_out_when_too_expensive(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=10.0)
        proxy = BidderProxy(bid)
        prices = np.full(len(pool_index), 5.0)
        decision = proxy.respond(prices)
        assert not decision.active
        assert not np.any(decision.quantities)
        assert decision.bundle_index is None

    def test_proxy_switches_to_cheaper_alternative(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}, {"beta/cpu": 10}], max_payment=1000.0)
        proxy = BidderProxy(bid)
        prices = np.ones(len(pool_index))
        prices[pool_index.index_of("alpha/cpu")] = 3.0
        decision = proxy.respond(prices)
        assert decision.active
        assert pool_index.describe(bid.bundles.matrix[decision.bundle_index]) == {"beta/cpu": 10.0}

    def test_seller_stays_in_as_prices_rise(self, pool_index):
        bid = Bid.sell("s", pool_index, [{"alpha/cpu": 10}], min_revenue=20.0)
        proxy = BidderProxy(bid)
        low = np.full(len(pool_index), 1.0)
        high = np.full(len(pool_index), 50.0)
        # At low prices revenue 10 < 20 so the seller stays out...
        assert not proxy.respond(low).active
        # ...and comes in once the price covers its reserve revenue.
        assert proxy.respond(high).active

    def test_last_decision_recorded(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=100.0)
        proxy = BidderProxy(bid)
        assert proxy.last_decision is None
        proxy.respond(np.zeros(len(pool_index)))
        assert proxy.last_decision is not None
