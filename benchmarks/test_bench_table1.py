"""Benchmark E-T1: regenerate Table I (bid premium statistics across auctions)."""

from conftest import print_section

from repro.analysis.reports import render_premium_table
from repro.experiments.table1 import run_table1


def test_table1_bid_premiums(benchmark, bench_config):
    """Run the multi-auction economy and regenerate the premium statistics table."""
    result = benchmark.pedantic(run_table1, args=(bench_config,), rounds=1, iterations=1)

    print_section("Table I: bid premium statistics (median/mean of gamma_u, % settled) per auction")
    print(render_premium_table(result.rows))
    print()
    print("trend:", {k: round(v, 4) for k, v in result.trend.items()})

    # Shape checks against the paper: a substantial share of bids settles in
    # every auction, and the median premium decreases markedly over time as
    # bidders learn to track the market prices.  (Absolute gamma values differ
    # from the paper's: real teams had production-grade price estimates, our
    # synthetic agents start with deliberately wide margins.)
    assert len(result.rows) == bench_config.auctions
    for row in result.rows:
        assert 0.15 <= row.settled_fraction <= 1.0
        assert row.mean_premium >= 0.0
    assert result.trend["median_last"] < result.trend["median_first"]
    if bench_config.name == "paper-reference":
        # A marked fall needs the paper's six auctions; smoke runs three.
        assert result.trend["median_ratio_last_to_first"] < 0.6
