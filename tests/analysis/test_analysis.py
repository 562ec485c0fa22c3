"""Unit tests for the analysis layer: boxplots, premiums, price ratios, utilization stats, reports."""

import numpy as np
import pytest

from repro.analysis.boxplot import boxplot_stats
from repro.analysis.premium import premium_stats, premium_trend
from repro.analysis.price_ratio import (
    price_ratio_table,
    ratio_utilization_correlation,
    sort_rows_for_figure6,
)
from repro.analysis.reports import (
    render_boxplots,
    render_figure6_rows,
    render_mechanism_comparison,
    render_metric_comparisons,
    render_premium_table,
    render_replicate_stats,
    render_table,
)
from repro.analysis.settlement_stats import (
    utilization_after_settlement,
    utilization_balance_improvement,
)
from repro.analysis.utilization_stats import (
    figure7_boxplots,
    migration_summary,
    settled_trade_count,
    settled_trades,
    utilization_percentile_groups,
)
from repro.cluster.pools import PoolIndex, ResourcePool
from repro.cluster.resources import ResourceType
from repro.core.bids import Bid
from repro.core.prices import price_ratios
from repro.core.settlement import settle
from repro.results.stats import MechanismComparisonReport, compare_metrics, replicate_stats


class TestBoxplotStats:
    def test_five_number_summary(self):
        stats = boxplot_stats(range(1, 101))
        assert stats.count == 100
        assert stats.minimum == 1 and stats.maximum == 100
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 < stats.median < stats.q3
        assert stats.iqr == pytest.approx(stats.q3 - stats.q1)
        assert stats.outliers == ()

    def test_outliers_detected(self):
        values = [10.0] * 20 + [1000.0]
        stats = boxplot_stats(values)
        assert stats.outliers == (1000.0,)
        assert stats.whisker_high == 10.0

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])
        with pytest.raises(ValueError):
            boxplot_stats([1.0, float("nan")])

    def test_single_value(self):
        stats = boxplot_stats([5.0])
        assert stats.minimum == stats.median == stats.maximum == 5.0


class TestPremiumAnalysis:
    def make_settlement(self, pool_index, limits):
        bids = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 10}], max_payment=limit)
            for i, limit in enumerate(limits)
        ]
        return settle(pool_index, bids, np.ones(len(pool_index)))

    def test_premium_stats_values(self, pool_index):
        # price 1/unit -> payment 10; limits 12 and 20 -> premiums 0.2 and 1.0; limit 5 loses
        settlement = self.make_settlement(pool_index, [12.0, 20.0, 5.0])
        stats = premium_stats(settlement, auction=2)
        assert stats.auction == 2
        assert stats.winner_count == 2 and stats.bidder_count == 3
        assert stats.median_premium == pytest.approx(0.6)
        assert stats.mean_premium == pytest.approx(0.6)
        assert stats.settled_fraction == pytest.approx(2 / 3)
        assert stats.as_row()["pct_settled"] == pytest.approx(66.6666, rel=1e-3)

    def test_premium_stats_empty_settlement(self, pool_index):
        stats = premium_stats(settle(pool_index, [], np.ones(len(pool_index))))
        assert stats.median_premium == 0.0 and stats.settled_fraction == 0.0

    def test_premium_table_and_trend(self, pool_index):
        settlements = [
            self.make_settlement(pool_index, [30.0, 40.0]),
            self.make_settlement(pool_index, [12.0, 14.0]),
            self.make_settlement(pool_index, [10.5, 11.0]),
        ]
        rows = [
            premium_stats(settlement, auction=i + 1) for i, settlement in enumerate(settlements)
        ]
        trend = premium_trend(rows)
        assert trend["median_last"] < trend["median_first"]
        assert trend["median_ratio_last_to_first"] < 1.0
        assert trend["median_monotone_decreasing"] == 1.0

    def test_premium_trend_requires_rows(self):
        with pytest.raises(ValueError):
            premium_trend([])


class TestPriceRatios:
    def test_table_and_sorting(self, pool_index):
        market = {name: 2.0 for name in pool_index.names}
        fixed = {name: 1.0 for name in pool_index.names}
        market["beta/cpu"] = 0.5
        rows = price_ratio_table(pool_index, market, fixed)
        assert len(rows) == 2
        by_cluster = {row.cluster: row for row in rows}
        assert by_cluster["alpha"].cpu_ratio == 2.0
        assert by_cluster["beta"].cpu_ratio == 0.5
        assert by_cluster["alpha"].ratio(ResourceType.RAM) == 2.0
        assert by_cluster["alpha"].max_ratio() == 2.0
        ordered = sort_rows_for_figure6(rows)
        assert ordered[0].cluster == "beta"

    def test_zero_cost_pool_reads_as_price_ratios_does(self):
        # The unit cost is the default fixed price, and a pool may cost nothing.
        index = PoolIndex(
            [
                ResourcePool("free", rtype, capacity=100.0, unit_cost=unit_cost, utilization=0.5)
                for rtype, unit_cost in zip(ResourceType, (1.0, 1.0, 0.0))
            ]
        )
        fixed = {pool.name: pool.unit_cost for pool in index}
        market = {"free/cpu": 2.0, "free/ram": 0.5, "free/disk": 0.0}
        (row,) = price_ratio_table(index, market, fixed)
        assert row.disk_ratio == price_ratios(market, fixed)["free/disk"] == 1.0
        market["free/disk"] = 3.0
        (row,) = price_ratio_table(index, market, fixed)
        assert row.disk_ratio == float("inf")

    def test_correlation_positive_when_congested_pools_cost_more(self, pool_index):
        market = {name: pool_index.pool(name).unit_cost * (1 + pool_index.pool(name).utilization) for name in pool_index.names}
        fixed = {name: pool_index.pool(name).unit_cost for name in pool_index.names}
        rows = price_ratio_table(pool_index, market, fixed)
        assert ratio_utilization_correlation(rows) > 0.9

    def test_correlation_degenerate_cases(self, pool_index):
        market = {name: 1.0 for name in pool_index.names}
        rows = price_ratio_table(pool_index, market, market)
        assert ratio_utilization_correlation(rows) == 0.0
        assert ratio_utilization_correlation(rows[:1]) == 0.0


class TestUtilizationStats:
    def make_settlement(self, pool_index):
        bids = [
            Bid.buy("buyer-idle", pool_index, [{"beta/cpu": 10, "beta/ram": 40}], max_payment=1e6),
            Bid.buy("buyer-congested", pool_index, [{"alpha/cpu": 5}], max_payment=1e6),
            Bid.sell("seller-congested", pool_index, [{"alpha/cpu": 20}], min_revenue=0.0),
        ]
        return settle(pool_index, bids, np.ones(len(pool_index)))

    def test_settled_trades_classification(self, pool_index):
        trades = settled_trades(self.make_settlement(pool_index))
        sides = {(t.bidder, t.pool): t.side for t in trades}
        assert sides[("buyer-idle", "beta/cpu")] == "bid"
        assert sides[("seller-congested", "alpha/cpu")] == "offer"
        # percentile of the congested alpha pools exceeds the idle beta pools
        alpha_trade = next(t for t in trades if t.pool == "alpha/cpu" and t.side == "offer")
        beta_trade = next(t for t in trades if t.pool == "beta/cpu")
        assert alpha_trade.utilization_percentile > beta_trade.utilization_percentile

    def test_settled_trade_count_counts_without_building(self, pool_index):
        settlement = self.make_settlement(pool_index)
        assert settled_trade_count(settlement) == len(settled_trades(settlement)) == 4
        assert settled_trade_count(settlement, tol=15.0) == len(settled_trades(settlement, tol=15.0)) == 2

    def test_groups_and_boxplots(self, pool_index):
        settlement = self.make_settlement(pool_index)
        groups = utilization_percentile_groups(settled_trades(settlement))
        assert (ResourceType.CPU, "bid") in groups
        boxes = figure7_boxplots(settlement)
        assert "CPU Bids" in boxes and "CPU Offers" in boxes
        assert "RAM Offers" not in boxes  # nobody sold RAM

    def test_migration_summary(self, pool_index):
        summary = migration_summary(settled_trades(self.make_settlement(pool_index)))
        assert summary["bid_count"] == 3.0  # beta/cpu, beta/ram, alpha/cpu
        assert summary["offer_count"] == 1.0
        assert 0.0 <= summary["bid_quantity_share_in_underutilized"] <= 1.0

    def test_migration_summary_empty(self):
        summary = migration_summary([])
        assert np.isnan(summary["median_bid_percentile"])
        assert summary["bid_count"] == 0.0

    def test_custom_percentiles_override(self, pool_index):
        settlement = self.make_settlement(pool_index)
        forced = {name: 42.0 for name in pool_index.names}
        trades = settled_trades(settlement, percentiles=forced)
        assert all(t.utilization_percentile == 42.0 for t in trades)


class TestSettlementStats:
    def make_settlement(self, pool_index):
        bids = [
            Bid.buy("buyer", pool_index, [{"beta/cpu": 100}], max_payment=1e6),
            Bid.sell("seller", pool_index, [{"alpha/cpu": 100}], min_revenue=0.0),
            Bid.buy("loser", pool_index, [{"alpha/cpu": 100}], max_payment=0.0),
        ]
        return settle(pool_index, bids, np.ones(len(pool_index)))

    def test_utilization_after_settlement_moves_in_right_direction(self, pool_index):
        settlement = self.make_settlement(pool_index)
        after = utilization_after_settlement(settlement)
        before = pool_index.utilizations()
        assert after[pool_index.index_of("beta/cpu")] > before[pool_index.index_of("beta/cpu")]
        assert after[pool_index.index_of("alpha/cpu")] < before[pool_index.index_of("alpha/cpu")]

    def test_balance_improvement_positive_for_rebalancing_trade(self, pool_index):
        settlement = self.make_settlement(pool_index)
        balance = utilization_balance_improvement(settlement)
        assert balance["spread_after"] < balance["spread_before"]
        assert balance["improvement"] > 0


class TestReports:
    def test_render_table_alignment_and_title(self):
        text = render_table(["a", "bb"], [["x", 1.5], ["yy", 2.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_premium_and_figure6_and_boxplots(self, pool_index):
        bids = [Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=20.0)]
        settlement = settle(pool_index, bids, np.ones(len(pool_index)))
        premium_text = render_premium_table([premium_stats(settlement, auction=1)])
        assert "Auction" in premium_text and "1" in premium_text

        rows = price_ratio_table(
            pool_index, {n: 1.0 for n in pool_index.names}, {n: 1.0 for n in pool_index.names}
        )
        figure6_text = render_figure6_rows(rows)
        assert "alpha" in figure6_text

        boxes = figure7_boxplots(settlement)
        box_text = render_boxplots(boxes)
        assert "CPU Bids" in box_text

    @staticmethod
    def row(text: str, first: str) -> list[str]:
        return next(line.split() for line in text.splitlines() if line.startswith(first + " "))

    def test_render_replicate_stats_dashes_a_single_replicate(self):
        text = render_replicate_stats(
            {"revenue": replicate_stats("revenue", [1.0, 3.0]), "rounds": replicate_stats("rounds", [4.0])},
            title="S",
        )
        assert text.splitlines()[0] == "S"
        assert self.row(text, "revenue") == ["revenue", "2", "2.0000", "1.4142", "[-10.7060,", "14.7060]"]
        assert self.row(text, "rounds") == ["rounds", "1", "4.0000", "-", "-"]

    def test_render_metric_comparisons_verdicts_and_missing_metrics(self):
        report = compare_metrics(
            {
                "total_revenue": [100.0, 102.0],
                "mean_clearing_rounds": [10.0],
                "zero": [0.0],
                "only_base": [1.0],
            },
            {"total_revenue": [90.0, 92.0], "mean_clearing_rounds": [8.0], "zero": [0.0]},
            baseline_label="v1",
            candidate_label="v2",
        )
        text = render_metric_comparisons(report)
        assert text.splitlines()[0] == "v1 -> v2 (tolerance 5%)"
        assert self.row(text, "total_revenue")[-2:] == ["-9.9%", "REGRESSION"]
        assert self.row(text, "mean_clearing_rounds")[-2:] == ["-20.0%", "drift"]
        assert self.row(text, "zero")[-3:] == ["0.0000", "-", "ok"]
        assert text.endswith("(not compared — present on one side only: only_base)")
        assert render_metric_comparisons(report, title="T").splitlines()[0] == "T"

    def test_render_mechanism_comparison_marks_the_leader(self):
        def report(*mechanisms):
            means = {"market": [1.0, 2.0], "fixed-price": [5.0, 6.0], "lottery": [3.0, 4.0]}
            return MechanismComparisonReport(
                scenario="s",
                code_version="v",
                mechanisms=mechanisms,
                metric_stats={
                    metric: {name: replicate_stats(metric, means[name]) for name in mechanisms}
                    for metric in ("shortage_cost", "revenue")
                },
                directions={"shortage_cost": "lower", "revenue": "neutral"},
            )

        text = render_mechanism_comparison(report("market", "fixed-price"))
        lines = text.splitlines()
        assert lines[0] == "s @ v: mechanisms market vs fixed-price"
        assert lines[-1] == "market leads on: shortage_cost"
        verdicts = [line.split()[-1] for line in lines if line.startswith("shortage_cost ")]
        assert verdicts == ["best", "lower"]
        assert all(line.split()[-1] == "neutral" for line in lines if line.startswith("revenue "))
        baselines_only = render_mechanism_comparison(report("lottery", "fixed-price"))
        assert "market leads on" not in baselines_only
