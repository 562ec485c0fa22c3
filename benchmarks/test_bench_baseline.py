"""Benchmark E-BASE: market vs traditional allocation (shortages, surpluses, balance)."""

from conftest import print_section

from repro.experiments.baseline_comparison import run_baseline_comparison


def test_market_vs_traditional_allocation(benchmark, bench_config):
    """Run the same demand through the baselines and the market and compare the outcomes."""
    result = benchmark.pedantic(run_baseline_comparison, args=(bench_config,), rounds=1, iterations=1)

    print_section("Market vs traditional allocation policies (Section I / VI claims)")
    print(
        f"{'policy':<20} {'shortage $':>14} {'surplus $':>14} {'util spread':>12} "
        f"{'satisfied':>10} {'grant rate':>11}"
    )
    for name, metric in result.metrics.items():
        print(
            f"{name:<20} {metric.shortage_cost:>14.0f} {metric.surplus_cost:>14.0f} "
            f"{metric.utilization_spread:>12.3f} {metric.satisfied_fraction:>9.1%} {metric.grant_rate:>10.1%}"
        )
    print()
    print("utilization balance around the first market auction:", {k: round(v, 4) for k, v in result.balance.items()})

    market = result.market()
    fixed = result.baseline("fixed-price")
    proportional = result.baseline("proportional")
    priority = result.baseline("priority")

    # The paper's qualitative claims: the market evens out utilization across
    # pools and leaves more teams fully provisioned than the manual policies,
    # because demand is steered to where capacity actually exists.
    assert market.utilization_spread < fixed.utilization_spread
    assert market.utilization_spread < proportional.utilization_spread
    assert market.satisfied_fraction > max(
        fixed.satisfied_fraction, proportional.satisfied_fraction, priority.satisfied_fraction
    )
    # All baselines share the same pool-level shortage (they serve the same
    # demand against the same home-cluster capacity) — sanity check.
    assert abs(fixed.shortage_cost - proportional.shortage_cost) < 1e-6
