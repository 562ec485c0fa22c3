"""Unit tests for the service catalog, order book, and market summary."""

import numpy as np
import pytest

from repro.cluster.resources import cpu_ram_disk
from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.settlement import SettlementLine
from repro.market.orderbook import OrderBook, OrderSide, OrderStatus, side_of
from repro.market.services import ServiceCatalog, ServiceRequest, ServiceSpec, default_catalog
from repro.market.summary import build_market_summary, render_market_summary


def line(bidder: str, *, won: bool) -> SettlementLine:
    """A settlement line that carries only what the order book reads."""
    return SettlementLine(
        bidder=bidder,
        won=won,
        allocation=np.zeros(1),
        payment=0.0,
        limit=10.0,
        bundle_index=0 if won else None,
    )


class TestServiceSpec:
    def test_covering_amount_scales_linearly(self):
        spec = ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(1, 4, 10))
        assert spec.covering_amount(3) == cpu_ram_disk(3, 12, 30)

    def test_negative_quantity_rejected(self):
        spec = ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(1, 4, 10))
        with pytest.raises(ValueError):
            spec.covering_amount(-1)

    def test_zero_or_negative_coverage_rejected(self):
        with pytest.raises(ValueError):
            ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(0, 0, 0))
        with pytest.raises(ValueError):
            ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(-1, 1, 1))

    def test_service_request_validation(self):
        with pytest.raises(ValueError):
            ServiceRequest(service="gfs_storage", cluster="c0", quantity=0)


class TestServiceCatalog:
    def test_default_catalog_has_four_services(self):
        catalog = default_catalog()
        assert set(catalog.names()) == {"gfs_storage", "bigtable_serving", "batch_compute", "web_serving"}
        assert "gfs_storage" in catalog

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            default_catalog().spec("mapreduce")

    def test_covering_bundle_targets_requested_cluster(self, pool_index):
        catalog = default_catalog()
        bundle = catalog.covering_bundle(ServiceRequest("batch_compute", "alpha", 10), pool_index)
        assert set(bundle) == {"alpha/cpu", "alpha/ram", "alpha/disk"}
        assert bundle["alpha/cpu"] == pytest.approx(10.0)  # 1 CPU per worker slot

    def test_covering_bundle_unknown_cluster(self, pool_index):
        with pytest.raises(KeyError):
            default_catalog().covering_bundle(ServiceRequest("batch_compute", "nowhere", 1), pool_index)

    def test_gfs_is_disk_dominant(self, pool_index):
        bundle = default_catalog().covering_bundle(ServiceRequest("gfs_storage", "alpha", 1), pool_index)
        assert bundle["alpha/disk"] > 100 * bundle["alpha/cpu"]

    def test_register_replaces_spec(self):
        catalog = ServiceCatalog()
        catalog.register(ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(1, 1, 1)))
        catalog.register(ServiceSpec(name="svc", unit="u", coverage=cpu_ram_disk(2, 2, 2)))
        assert catalog.spec("svc").coverage == cpu_ram_disk(2, 2, 2)


class TestOrderBook:
    def test_side_classification(self, pool_index):
        buy = Bid.buy("b", pool_index, [{"alpha/cpu": 1}], max_payment=1.0)
        sell = Bid.sell("s", pool_index, [{"alpha/cpu": 1}], min_revenue=1.0)
        assert side_of(buy) is OrderSide.BID
        assert side_of(sell) is OrderSide.OFFER

    def test_an_order_touches_the_clusters_of_every_bundle(self, pool_index):
        book = OrderBook()
        bundles = [{"alpha/cpu": 1, "alpha/ram": 2}, {"beta/disk": 5}]
        assert book.submit(Bid.buy("b", pool_index, bundles, max_payment=1.0)).clusters_touched() == {
            "alpha",
            "beta",
        }
        sell = Bid.sell("s", pool_index, [{"beta/cpu": 1}], min_revenue=0.0)
        assert book.submit(sell).clusters_touched() == {"beta"}

    def test_quantities_within_the_tolerance_touch_no_cluster(self, three_cluster_index):
        index = three_cluster_index
        xor_set = np.array(
            [index.vector({"low/cpu": 1, "high/ram": 1e-13}), index.vector({"mid/disk": -1e-12, "mid/ram": 2})]
        )
        order = OrderBook().submit(Bid("b", BundleSet(index, xor_set), limit=1.0))
        assert order.clusters_touched() == {"low", "mid"}

    def test_a_nan_quantity_touches_no_cluster(self, three_cluster_index):
        # A book may hold a bid with a NaN (the exchange refuses it at the
        # auction); the summary still counts the clusters of its other rows.
        index = three_cluster_index
        nan_row = index.vector({"mid/cpu": 1.0})
        nan_row[index.index_of("high/cpu")] = np.nan
        book = OrderBook()
        order = book.submit(Bid("n", BundleSet(index, [nan_row, index.vector({"low/ram": 1.0})]), limit=1.0))
        assert order.clusters_touched() == {"mid", "low"}
        assert book.counts_by_cluster() == {
            "mid": {OrderSide.BID: 1, OrderSide.OFFER: 0, OrderSide.TRADE: 0},
            "low": {OrderSide.BID: 1, OrderSide.OFFER: 0, OrderSide.TRADE: 0},
        }

    def test_counts_by_cluster(self, pool_index):
        book = OrderBook()
        book.submit(Bid.buy("b1", pool_index, [{"alpha/cpu": 1}], max_payment=1.0))
        book.submit(Bid.buy("b2", pool_index, [{"alpha/cpu": 1}, {"beta/cpu": 1}], max_payment=1.0))
        book.submit(Bid.sell("s", pool_index, [{"beta/cpu": 1}], min_revenue=0.0))
        counts = book.counts_by_cluster()
        assert counts["alpha"][OrderSide.BID] == 2
        assert counts["beta"][OrderSide.BID] == 1
        assert counts["beta"][OrderSide.OFFER] == 1

    def test_mark_settled_splits_winners_and_losers(self, pool_index):
        book = OrderBook()
        book.submit(Bid.buy("w", pool_index, [{"alpha/cpu": 1}], max_payment=10.0))
        book.submit(Bid.buy("l", pool_index, [{"alpha/cpu": 1}], max_payment=10.0))
        book.mark_settled([line("w", won=True), line("l", won=False)])
        statuses = {o.bidder: o.status for o in book.orders()}
        assert statuses["w"] is OrderStatus.SETTLED
        assert statuses["l"] is OrderStatus.UNSETTLED

    def test_mark_settled_marks_each_of_a_teams_orders_by_its_own_line(self, pool_index):
        book = OrderBook()
        book.submit(Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=10.0))
        book.submit(Bid.buy("t", pool_index, [{"beta/cpu": 2}], max_payment=10.0))
        book.mark_settled([line("t", won=False), line("t", won=True)])
        assert [o.status for o in book.orders()] == [
            OrderStatus.UNSETTLED,
            OrderStatus.SETTLED,
        ]

    @pytest.mark.parametrize(
        "lines, match",
        [
            ([("a", True)], "1 settlement lines for 2 active orders"),
            ([("a", True), ("b", False), ("b", False)], "3 settlement lines for 2 active orders"),
            ([("b", True), ("a", False)], "line for 'b' does not match order"),
        ],
        ids=["too-few-lines", "too-many-lines", "wrong-bidder"],
    )
    def test_mark_settled_refuses_lines_that_do_not_pair_with_the_orders(
        self, pool_index, lines, match
    ):
        book = OrderBook()
        book.submit(Bid.buy("a", pool_index, [{"alpha/cpu": 1}], max_payment=10.0))
        book.submit(Bid.buy("b", pool_index, [{"alpha/cpu": 1}], max_payment=10.0))
        with pytest.raises(ValueError, match=match):
            book.mark_settled([line(name, won=won) for name, won in lines])
        assert [o.status for o in book.orders()] == [OrderStatus.ACTIVE, OrderStatus.ACTIVE]

    def test_orders_by_bidder_and_len_and_clear(self, pool_index):
        book = OrderBook()
        book.submit(Bid.buy("a", pool_index, [{"alpha/cpu": 1}], max_payment=1.0))
        book.submit(Bid.buy("a", pool_index, [{"beta/cpu": 1}], max_payment=1.0))
        assert len(book) == 2
        book.clear()
        assert len(book) == 0


class TestMarketSummary:
    def test_summary_rows_cover_all_clusters(self, pool_index):
        book = OrderBook()
        book.submit(Bid.buy("b", pool_index, [{"alpha/cpu": 1}], max_payment=1.0))
        prices = {name: 2.0 for name in pool_index.names}
        summary = build_market_summary(pool_index, book, prices, auction_id=3)
        assert {row.cluster for row in summary.rows} == {"alpha", "beta"}
        assert summary.auction_id == 3
        (row,) = [row for row in summary.rows if row.cluster == "alpha"]
        assert row.active_bids == 1
        assert row.cpu_price == 2.0
        assert row.cpu_utilization == pytest.approx(0.9)

    def test_render_contains_cluster_names_and_truncation(self, pool_index):
        summary = build_market_summary(pool_index, OrderBook(), {name: 1.0 for name in pool_index.names})
        text = render_market_summary(summary)
        assert "alpha" in text and "beta" in text
        truncated = render_market_summary(summary, max_rows=1)
        assert "more clusters" in truncated
