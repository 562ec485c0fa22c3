"""Benchmark E-F7: regenerate Figure 7 (utilization percentiles of settled trades)."""

from conftest import print_section

from repro.analysis.reports import render_boxplots
from repro.experiments.figure7 import run_figure7


def test_figure7_utilization_of_settled_trades(benchmark, bench_config):
    """Regenerate the six boxplots of Figure 7 from one auction's settled trades."""
    result = benchmark.pedantic(run_figure7, args=(bench_config,), rounds=1, iterations=1)

    print_section("Figure 7: utilization percentile of settled transactions by side and resource")
    print(render_boxplots(result.boxplots))
    print()
    for key, value in result.migration.items():
        print(f"{key}: {value:.2f}")

    # Shape checks against the paper: bids concentrate in under-utilized pools,
    # offers in over-utilized pools, and high-utilization bid outliers exist
    # (teams paying a premium to stay in congested clusters).
    assert result.migration["bid_count"] > 0
    assert result.migration["offer_count"] > 0
    bid_median = result.migration["median_bid_percentile"]
    offer_median = result.migration["median_offer_percentile"]
    assert offer_median > bid_median
    assert result.has_high_utilization_bid_outliers(), "premium payers should appear as high-utilization bid outliers"
    if bench_config.name == "paper-reference":
        # The paper's margins need the paper's scale: the smoke economy
        # settles a handful of trades over 8 clusters.
        assert bid_median < 50.0, "most settled bids should be in under-utilized pools"
        assert offer_median > 50.0, "most settled offers should be in over-utilized pools"
        assert offer_median - bid_median > 20.0
