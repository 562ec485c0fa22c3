"""Tests for the experiment drivers at reduced (test) scale.

The benchmarks run these at paper scale; here they run small so the unit test
suite stays fast, and the assertions focus on the qualitative shape each
driver must reproduce.
"""

import numpy as np
import pytest

from repro.experiments.ablation_increment import run_ablation_increment
from repro.experiments.ablation_reserve import run_ablation_reserve
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.clock_rounds import run_clock_rounds
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.scaling import run_scaling
from repro.experiments.table1 import run_table1
from repro.simulation.catalog import get_scenario
from repro.simulation.runner import _round_list, run_scenario

SMOKE = get_scenario("smoke")


class TestOnePipeline:
    def test_drivers_and_runner_run_the_same_market(self):
        rows = run_table1(SMOKE).rows
        assert _round_list(row.median_premium for row in rows) == run_scenario(SMOKE).median_premium


class TestFigure2:
    def test_curves_match_formulas_and_properties(self):
        result = run_figure2(points=21)
        assert len(result.curves) == 3
        phi1 = result.curve("phi1")
        np.testing.assert_allclose(phi1.ys, np.exp(2 * (phi1.xs - 0.5)))
        for curve in result.curves:
            assert all(curve.properties.values())
            assert np.all(np.diff(curve.ys) > 0)

    def test_unknown_curve_lookup(self):
        with pytest.raises(KeyError):
            run_figure2(points=5).curve("phi9")


class TestFigure6:
    def test_price_ratios_track_utilization(self):
        result = run_figure6(SMOKE)
        assert len(result.rows) == SMOKE.config.fleet.cluster_count
        assert result.correlation_with_utilization > 0.3
        ratios = [row.cpu_ratio for row in result.rows]
        assert min(ratios) < 1.0 < max(ratios)
        # rows come back sorted by CPU ratio
        assert ratios == sorted(ratios)


class TestFigure7:
    def test_bids_in_idle_pools_offers_in_congested_pools(self):
        result = run_figure7(SMOKE)
        assert result.migration["bid_count"] > 0
        if result.migration["offer_count"] > 0:
            assert result.migration["median_offer_percentile"] > result.migration["median_bid_percentile"]
        assert result.migration["median_bid_percentile"] < 60.0
        assert any(key.endswith("Bids") for key in result.boxplots)


class TestTable1:
    def test_premiums_decline_over_auctions(self):
        result = run_table1(SMOKE, auctions=3)
        assert len(result.rows) == 3
        assert result.trend["median_last"] <= result.trend["median_first"]
        assert result.last_rows(2) == result.rows[-2:]
        for row in result.rows:
            assert 0.0 <= row.settled_fraction <= 1.0


class TestScaling:
    def test_small_grid_runs_and_fits(self):
        result = run_scaling(
            bidder_counts=(10, 20), cluster_counts=(4, 8), reference_bidders=20, reference_clusters=8
        )
        assert len(result.points) >= 3
        assert result.point(20, 24).rounds > 0
        assert np.isfinite(result.bidder_exponent)
        assert np.isfinite(result.pool_exponent)
        with pytest.raises(KeyError):
            result.point(999, 999)


class TestClockRounds:
    def test_trace_properties(self):
        result = run_clock_rounds(cluster_count=6, team_count=15, seed=1)
        outcome = result.outcome
        assert outcome.converged
        assert result.rounds == len(outcome.rounds)
        assert result.moved_pools >= 0
        trajectory = np.array([r.prices for r in outcome.rounds])
        assert np.all(np.diff(trajectory, axis=0) >= -1e-12)
        assert len(result.excess_demand_norms()) == result.rounds


class TestBaselineComparison:
    def test_market_balances_utilization_better(self):
        result = run_baseline_comparison(SMOKE, market_auctions=2)
        assert set(result.metrics) == {
            "fixed-price", "proportional", "priority", "lottery", "market",
        }
        market = result.market()
        fixed = result.baseline("fixed-price")
        assert market.utilization_spread <= fixed.utilization_spread + 1e-9
        assert 0.0 <= market.satisfied_fraction <= 1.0
        assert result.balance["spread_before"] >= 0.0


class TestAblations:
    def test_increment_ablation_shows_normalization_benefit(self):
        result = run_ablation_increment(cluster_count=6, team_count=15, seed=1, max_rounds=2000)
        assert len(result.rows) == 4
        naive = result.row("additive")
        proportional = result.row("proportional")
        assert proportional.converged
        assert proportional.disk_to_cpu_ratio_skew <= naive.disk_to_cpu_ratio_skew

    def test_reserve_ablation_steers_demand(self):
        result = run_ablation_reserve(SMOKE)
        assert len(result.rows) == 4
        flat = result.row("flat")
        phi1 = result.row("phi1")
        assert phi1.bid_share_in_underutilized >= flat.bid_share_in_underutilized - 0.05
        for row in result.rows:
            assert 0.0 <= row.settled_fraction <= 1.0
