"""Benchmark E-F6: regenerate Figure 6 (market price / fixed price per cluster)."""

import numpy as np
from conftest import print_section

from repro.analysis.reports import render_figure6_rows
from repro.experiments.figure6 import run_figure6


def test_figure6_price_ratios(benchmark, bench_config):
    """Run one full auction over a ~34-cluster fleet and regenerate the price-ratio series."""
    result = benchmark.pedantic(run_figure6, args=(bench_config,), rounds=1, iterations=1)

    print_section("Figure 6: settled market price / former fixed price, per cluster and resource")
    print(render_figure6_rows(result.rows))
    print()
    print(f"correlation(price ratio, utilization) = {result.correlation_with_utilization:.3f}")
    print(f"settled fraction = {result.settled_fraction:.1%}, clock rounds = {result.rounds}")

    # Shape checks against the paper's figure: ratios span below and above 1x,
    # congested clusters sit above idle clusters, and the ratio tracks utilization.
    cpu_ratios = np.array([row.cpu_ratio for row in result.rows])
    assert len(result.rows) == bench_config.config.fleet.cluster_count
    assert np.any(cpu_ratios < 1.0), "some idle clusters should settle below the old fixed price"
    assert np.any(cpu_ratios > 1.0), "some congested clusters should settle above the old fixed price"
    congested = result.congested_rows()
    idle = result.idle_rows()
    assert congested and idle
    assert np.mean([r.max_ratio() for r in congested]) > np.mean([r.max_ratio() for r in idle])
    # The paper's correlation strength needs the paper's scale (34 clusters, not 8).
    assert result.correlation_with_utilization > (0.5 if bench_config.name == "paper-reference" else 0.3)
