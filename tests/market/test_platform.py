"""Integration tests for the trading platform."""

import numpy as np
import pytest

from repro.bidlang import cluster_bundle, xor
from repro.core.bids import Bid, BidderClass
from repro.core.bundles import BundleSet
from repro.market.platform import BidWindowError, TradingPlatform
from repro.market.services import ServiceRequest


@pytest.fixture
def platform(pool_index):
    platform = TradingPlatform(pool_index)
    platform.register_team("buyer", budget=1_000_000.0)
    platform.register_team("seller", budget=10_000.0, initial_quota={"alpha/cpu": 200, "alpha/ram": 800})
    return platform


class TestRegistrationAndWindow:
    def test_register_team_opens_account_and_quota(self, platform):
        assert platform.ledger.balance("buyer") == 1_000_000.0
        assert platform.quotas.quota("seller", "alpha/cpu") == 200.0

    def test_register_existing_team_tops_up(self, platform):
        platform.register_team("buyer", budget=5.0)
        assert platform.ledger.balance("buyer") == 1_000_005.0

    def test_window_lifecycle(self, platform):
        assert not platform.window_open
        auction_id = platform.open_bid_window()
        assert platform.window_open and auction_id == 1
        with pytest.raises(BidWindowError):
            platform.open_bid_window()

    def test_operations_require_open_window(self, platform, pool_index):
        bid = Bid.buy("buyer", pool_index, [{"beta/cpu": 1}], max_payment=10.0)
        with pytest.raises(BidWindowError):
            platform.submit_bid(bid)
        with pytest.raises(BidWindowError):
            platform.run_preliminary()
        with pytest.raises(BidWindowError):
            platform.finalize_auction()


class TestQuoteAndSubmit:
    def test_quote_covers_requested_and_alternative_clusters(self, platform):
        platform.open_bid_window()
        ticket = platform.quote(
            "buyer", ServiceRequest("batch_compute", "alpha", 10), alternative_clusters=["beta"]
        )
        assert len(ticket.bundles) == 2
        assert ticket.estimated_cost == pytest.approx(min(ticket.bundle_costs()))
        assert all(name in ticket.component_prices for bundle in ticket.bundles for name in bundle)

    def test_submit_quoted_bid_enters_order_book(self, platform):
        platform.open_bid_window()
        ticket = platform.quote("buyer", ServiceRequest("web_serving", "beta", 5))
        order = platform.submit_quoted_bid(ticket, max_payment=ticket.estimated_cost * 1.5)
        assert order.bid.bidder == "buyer"
        assert len(platform.order_book) == 1
        assert order.bid.metadata["service"] == "web_serving"

    def test_submit_bid_rejects_over_budget(self, platform, pool_index):
        platform.open_bid_window()
        platform.register_team("pauper", budget=10.0)
        bid = Bid.buy("pauper", pool_index, [{"beta/cpu": 1}], max_payment=100.0)
        with pytest.raises(ValueError, match="budget"):
            platform.submit_bid(bid)

    def test_submit_sell_requires_quota(self, platform, pool_index):
        platform.open_bid_window()
        ok = Bid.sell("seller", pool_index, [{"alpha/cpu": 100}], min_revenue=10.0)
        platform.submit_bid(ok)
        too_much = Bid.sell("seller", pool_index, [{"alpha/cpu": 500}], min_revenue=10.0)
        with pytest.raises(ValueError, match="quota"):
            platform.submit_bid(too_much)

    def test_submit_checks_quota_for_offers_below_the_kind_tolerance(self, platform, pool_index):
        # The buyer owes beta/cpu quota (settlement allows an oversold seller
        # to go negative).  A -1e-13 entry leaves the bid a pure buyer, but it
        # is still an offer, so the quota check runs and refuses it; -0.0
        # offers nothing.
        platform.quotas.apply_delta(
            "buyer", pool_index.vector({"beta/cpu": -1.0}), allow_negative=True
        )
        platform.open_bid_window()
        tiny_offer = pool_index.vector({"alpha/cpu": 1.0, "beta/cpu": -1e-13})
        bid = Bid(bidder="buyer", bundles=BundleSet(pool_index, [tiny_offer]), limit=10.0)
        assert bid.bidder_class is BidderClass.PURE_BUYER
        with pytest.raises(ValueError, match="quota"):
            platform.submit_bid(bid)
        no_offer = pool_index.vector({"alpha/cpu": 1.0, "beta/cpu": -0.0})
        platform.submit_bid(Bid(bidder="buyer", bundles=BundleSet(pool_index, [no_offer]), limit=10.0))
        assert len(platform.order_book) == 1

    def test_submit_tree_bid_validates_tree(self, platform):
        platform.open_bid_window()
        tree = xor(cluster_bundle("alpha", cpu=10, ram=40), cluster_bundle("beta", cpu=10, ram=40))
        order = platform.submit_tree_bid("buyer", tree, limit=5_000.0)
        assert len(order.bid.bundles) == 2
        from repro.bidlang import BidTreeValidationError, pool

        with pytest.raises(BidTreeValidationError):
            platform.submit_tree_bid("buyer", pool("nowhere/cpu", 1), limit=10.0)

    def test_negative_max_payment_rejected(self, platform):
        platform.open_bid_window()
        ticket = platform.quote("buyer", ServiceRequest("web_serving", "beta", 1))
        with pytest.raises(ValueError):
            platform.submit_quoted_bid(ticket, max_payment=-1.0)


class TestAuctionRuns:
    def _fill_orders(self, platform):
        platform.open_bid_window()
        ticket = platform.quote("buyer", ServiceRequest("batch_compute", "beta", 20))
        platform.submit_quoted_bid(ticket, max_payment=ticket.estimated_cost * 2.0)
        # Offer well under the 200-unit starting quota so two consecutive
        # windows can both be filled even if the first sale settles.
        platform.submit_bid(
            Bid.sell("seller", platform.index, [{"alpha/cpu": 60, "alpha/ram": 240}], min_revenue=100.0)
        )

    def test_preliminary_updates_displayed_prices(self, platform):
        self._fill_orders(platform)
        before = dict(platform.displayed_prices)
        table = platform.run_preliminary()
        assert platform.displayed_prices == table.as_map()
        assert platform.window_open  # preliminary runs do not close the window
        assert set(before) == set(platform.displayed_prices)

    def test_finalize_settles_budget_and_quota(self, platform):
        self._fill_orders(platform)
        buyer_before = platform.ledger.balance("buyer")
        record = platform.finalize_auction()
        assert not platform.window_open
        assert record.auction_id == 1
        assert platform.history == [record]
        buyer_line = record.result.settlement.line_for("buyer")
        if buyer_line.won:
            assert platform.ledger.balance("buyer") == pytest.approx(buyer_before - buyer_line.payment)
            assert platform.quotas.quota("buyer", "beta/cpu") > 0
        seller_line = record.result.settlement.line_for("seller")
        if seller_line.won:
            assert platform.quotas.quota("seller", "alpha/cpu") < 200.0
            assert platform.ledger.balance("seller") > 10_000.0

    def test_non_finite_tree_bid_refused_and_the_window_still_settles(self, platform):
        from repro.bidlang import BidTreeValidationError, pool

        self._fill_orders(platform)
        with pytest.raises(BidTreeValidationError, match="not finite"):
            platform.submit_tree_bid("buyer", pool("alpha/cpu", float("nan")), limit=10.0)
        record = platform.finalize_auction()
        assert not platform.window_open
        assert record.order_count == 2

    def test_a_teams_losing_order_stays_unsettled_when_its_other_order_wins(self):
        from repro.cluster.pools import demo_pool_index
        from repro.market.orderbook import OrderStatus

        index = demo_pool_index()
        platform = TradingPlatform(index)
        platform.open_bid_window()
        platform.submit_bid(Bid.buy("team", index, [{"b/cpu": 5}], max_payment=500.0))
        platform.submit_bid(Bid.buy("team", index, [{"a/cpu": 5}], max_payment=0.01))
        record = platform.finalize_auction()
        assert [line.won for line in record.result.settlement.lines] == [True, False]
        assert [order.status for order in platform.order_book.orders()] == [
            OrderStatus.SETTLED,
            OrderStatus.UNSETTLED,
        ]

    def test_consecutive_auctions_increment_id(self, platform):
        self._fill_orders(platform)
        first = platform.finalize_auction()
        self._fill_orders(platform)
        second = platform.finalize_auction()
        assert (first.auction_id, second.auction_id) == (1, 2)

    def test_update_pool_index_requires_same_pools(self, platform, pool_index, three_cluster_index):
        updated = pool_index.with_utilizations(np.full(len(pool_index), 0.5))
        platform.update_pool_index(updated)
        assert platform.index.pool("alpha/cpu").utilization == 0.5
        with pytest.raises(ValueError):
            platform.update_pool_index(three_cluster_index)

    def test_market_summary_reflects_orders(self, platform):
        self._fill_orders(platform)
        summary = platform.market_summary()
        assert sum(row.active_bids + row.active_offers + row.active_trades for row in summary.rows) == 2
