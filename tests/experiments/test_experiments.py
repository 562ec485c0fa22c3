"""Tests for the experiment drivers: the shape of each paper artefact, at two scales.

Every paper-shape check runs twice: at smoke scale (the catalog's ``smoke``
economy, or a small auction) and at the paper's scale (``paper-reference``,
or the auction-only drivers' defaults, ~100 bidders over ~100 pools).  Some
margins need the paper's scale; each test takes its bounds as parameters, so
the paper-scale bound reads where the scale is chosen.
"""

import numpy as np
import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.resources import ResourceType
from repro.core.bids import Bid
from repro.experiments import first_auction_bids
from repro.experiments.ablation_increment import run_ablation_increment
from repro.experiments.ablation_reserve import run_ablation_reserve
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.clock_rounds import run_clock_rounds
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.scaling import ScalingPoint, run_scaling
from repro.experiments.table1 import run_table1
from repro.simulation.catalog import get_scenario
from repro.simulation.runner import _round_list, run_scenario

SMOKE = get_scenario("smoke")
PAPER = get_scenario("paper-reference")
SCALES = ("smoke", "paper")

#: The auction-only drivers' small reference auction; ``{}`` is their defaults.
SMALL_AUCTION = {"cluster_count": 6, "team_count": 15, "seed": 1}


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

    @pytest.mark.parametrize("points", [21, 101], ids=SCALES)
    def test_readings_at_zero_half_and_full_utilization(self, points):
        result = run_figure2(points=points)
        expected = {
            "phi1": (np.exp(-1.0), 1.0, np.exp(1.0)),
            "phi2": (np.exp(-0.5), 1.0, np.exp(0.5)),
            "phi3": (1 / 1.5, 1.0, 2.0),
        }
        for prefix, (zero, half, full) in expected.items():
            curve = result.curve(prefix)
            assert (curve.at_zero, curve.at_half, curve.at_full) == pytest.approx((zero, half, full))
            assert abs(curve.at_half - 1.0) < 1e-9
            assert curve.at_full > 1.0
            assert all(curve.properties.values()), curve.properties
        # phi1 is the steepest of the exponentials; phi3 tops out at 2.0; the
        # ordering at 100% utilization matches the published plot.
        phi1, phi2, phi3 = (result.curve(prefix) for prefix in ("phi1", "phi2", "phi3"))
        assert phi1.at_full > phi3.at_full > phi2.at_full
        assert abs(phi3.at_full - 2.0) < 1e-9

    def test_unknown_curve_lookup(self):
        with pytest.raises(KeyError):
            run_figure2(points=5).curve("phi9")


class TestFigure6:
    @pytest.mark.parametrize(("spec", "min_correlation"), [(SMOKE, 0.3), (PAPER, 0.5)], ids=SCALES)
    def test_price_ratios_track_utilization(self, spec, min_correlation):
        result = run_figure6(spec)
        assert len(result.rows) == spec.config.fleet.cluster_count
        ratios = [row.cpu_ratio for row in result.rows]
        # Idle clusters settle below the old fixed price, congested ones above.
        assert min(ratios) < 1.0 < max(ratios)
        # rows come back sorted by CPU ratio
        assert ratios == sorted(ratios)
        congested = [row.max_ratio() for row in result.rows if row.mean_utilization > 0.75]
        idle = [row.max_ratio() for row in result.rows if row.mean_utilization < 0.4]
        assert congested and idle
        assert np.mean(congested) > np.mean(idle)
        # The paper's correlation strength needs the paper's scale (34 clusters, not 8).
        assert result.correlation_with_utilization > min_correlation


class TestFigure7:
    @pytest.mark.parametrize(
        ("spec", "bid_median_below", "min_gap"), [(SMOKE, 60.0, 0.0), (PAPER, 50.0, 20.0)], ids=SCALES
    )
    def test_bids_in_idle_pools_offers_in_congested_pools(self, spec, bid_median_below, min_gap):
        result = run_figure7(spec)
        assert result.migration["bid_count"] > 0
        assert result.migration["offer_count"] > 0
        bid_median = result.migration["median_bid_percentile"]
        offer_median = result.migration["median_offer_percentile"]
        # Most settled bids are in under-utilized pools, most offers in
        # over-utilized ones; the paper's margins need the paper's scale (the
        # smoke economy settles a handful of trades over 8 clusters).
        assert bid_median < bid_median_below
        assert offer_median > 50.0
        assert offer_median - bid_median > min_gap
        # Premium payers appear as high-utilization bid outliers.
        assert any(
            trade.side == "bid" and trade.utilization_percentile >= 75.0 for trade in result.trades
        )
        assert any(key.endswith("Bids") for key in result.boxplots)


class TestTable1:
    @pytest.mark.parametrize(("spec", "max_ratio"), [(SMOKE, 1.0), (PAPER, 0.6)], ids=SCALES)
    def test_premiums_decline_over_auctions(self, spec, max_ratio):
        result = run_table1(spec)
        assert len(result.rows) == spec.auctions
        for row in result.rows:
            assert 0.15 <= row.settled_fraction <= 1.0
            assert row.mean_premium >= 0.0
        assert result.trend["median_last"] < result.trend["median_first"]
        # A marked fall needs the paper's six auctions; smoke runs three.
        assert result.trend["median_ratio_last_to_first"] < max_ratio


class TestScaling:
    @pytest.mark.parametrize(
        "grid",
        [
            {"bidder_counts": (10, 20), "cluster_counts": (4, 8), "reference_bidders": 20,
             "reference_clusters": 8},
            {},
        ],
        ids=SCALES,
    )
    def test_every_point_converges_and_fits(self, grid):
        result = run_scaling(**grid)
        assert len(result.points) >= 3
        assert all(point.rounds > 0 for point in result.points)
        first = result.points[0]
        assert result.point(first.bidders, first.pools) is first
        assert np.isfinite(result.bidder_exponent)
        assert np.isfinite(result.pool_exponent)
        with pytest.raises(KeyError):
            result.point(999, 999)

    def test_seconds_per_round_counts_a_roundless_run_as_one(self):
        point = ScalingPoint(bidders=10, pools=12, seconds=2.0, rounds=4, settled_fraction=1.0)
        assert point.seconds_per_round == 0.5
        assert ScalingPoint(10, 12, 2.0, 0, 0.0).seconds_per_round == 2.0

    def test_first_auction_bids_are_fixed_by_the_seed(self):
        population = PopulationSpec(team_count=6)
        index, bids = first_auction_bids(3, population, seed=5)
        again_index, again = first_auction_bids(3, population, seed=5)
        assert again_index.names == index.names
        assert bids and all(bid.index is index for bid in bids)
        assert [bid.bidder for bid in again] == [bid.bidder for bid in bids]
        for bid, other in zip(bids, again):
            assert bid.limit == other.limit
            np.testing.assert_array_equal(bid.bundles.matrix, other.bundles.matrix)


class TestClockRounds:
    @pytest.mark.parametrize("auction", [SMALL_AUCTION, {}], ids=SCALES)
    def test_trace_follows_figure1(self, auction):
        result = run_clock_rounds(**auction)
        outcome = result.outcome
        assert outcome.converged
        assert result.rounds == len(outcome.rounds)
        assert len(result.excess_demand_norms()) == result.rounds
        # Prices start at the reserve, rise monotonically on over-demanded
        # pools only, and the auction ends with no positive excess demand.
        first, last = outcome.rounds[0], outcome.rounds[-1]
        assert first.round_index == 0
        assert np.all(first.prices == outcome.reserve_prices)
        trajectory = np.array([r.prices for r in outcome.rounds])
        assert np.all(np.diff(trajectory, axis=0) >= -1e-12)
        assert np.all(last.excess_demand <= 1e-6 * np.maximum(outcome.index.capacities(), 1.0) + 1e-6)
        ever_over_demanded = np.any(np.array([r.excess_demand for r in outcome.rounds]) > 0, axis=0)
        moved = last.prices > outcome.reserve_prices + 1e-12
        assert np.all(~moved | ever_over_demanded)
        assert result.moved_pools == int(np.count_nonzero(moved))


class TestBaselineComparison:
    @pytest.mark.parametrize(("spec", "market_auctions"), [(SMOKE, 2), (PAPER, None)], ids=SCALES)
    def test_market_balances_utilization_better(self, spec, market_auctions):
        result = run_baseline_comparison(spec, market_auctions=market_auctions)
        assert set(result.metrics) == {
            "fixed-price", "proportional", "priority", "lottery", "market",
        }
        market = result.market()
        fixed = result.baseline("fixed-price")
        proportional = result.baseline("proportional")
        priority = result.baseline("priority")
        # The market evens out utilization across pools and leaves more teams
        # fully provisioned than the manual policies, because demand is
        # steered to where capacity actually exists.
        assert market.utilization_spread < fixed.utilization_spread
        assert market.utilization_spread < proportional.utilization_spread
        assert market.satisfied_fraction > max(
            fixed.satisfied_fraction, proportional.satisfied_fraction, priority.satisfied_fraction
        )
        assert 0.0 <= market.satisfied_fraction <= 1.0
        # The baselines serve the same demand against the same home-cluster
        # capacity, so they share the pool-level shortage.
        assert abs(fixed.shortage_cost - proportional.shortage_cost) < 1e-6
        assert result.balance["spread_before"] >= 0.0


class TestAblations:
    @pytest.mark.parametrize(
        "auction", [{**SMALL_AUCTION, "max_rounds": 2000}, {}], ids=SCALES
    )
    def test_increment_ablation_shows_normalization_benefit(self, auction):
        result = run_ablation_increment(**auction)
        assert len(result.rows) == 4
        naive = result.row("additive")
        # The naive alpha*z+ update leaves disk prices wildly out of proportion
        # to CPU prices; the capped, normalized and proportional forms keep the
        # final prices in line and still converge.
        assert naive.disk_to_cpu_ratio_skew > 10.0
        for policy in ("capped", "normalized", "proportional"):
            row = result.row(policy)
            assert row.converged
            assert row.disk_to_cpu_ratio_skew < naive.disk_to_cpu_ratio_skew / 10

    def test_increment_ablation_counts_each_active_bid(self, monkeypatch):
        """A team with two active bids counts twice, as the denominator counts bids."""
        index, _ = first_auction_bids(6, PopulationSpec(team_count=15), seed=1)
        cpu = [pool.name for pool in index.pools_of_type(ResourceType.CPU)]
        bids = [
            Bid.buy("team", index, [{name: 1.0}], max_payment=1e12) for name in cpu[:2]
        ]
        monkeypatch.setattr(
            "repro.experiments.ablation_increment.first_auction_bids", lambda *_, **__: (index, bids)
        )
        result = run_ablation_increment(cluster_count=6, team_count=1, seed=1)
        for row in result.rows:
            assert row.converged
            assert row.settled_like_fraction == 1.0

    def test_increment_ablation_counts_a_priced_out_bid_of_an_active_team(self, monkeypatch):
        """A team's bid that demands nothing at the reserve counts against the rate."""
        index, _ = first_auction_bids(6, PopulationSpec(team_count=15), seed=1)
        cpu = [pool.name for pool in index.pools_of_type(ResourceType.CPU)]
        bids = [
            Bid.buy("team", index, [{cpu[0]: 1.0}], max_payment=1e12),
            Bid.buy("team", index, [{cpu[1]: 1.0}], max_payment=1e-12),
        ]
        monkeypatch.setattr(
            "repro.experiments.ablation_increment.first_auction_bids", lambda *_, **__: (index, bids)
        )
        result = run_ablation_increment(cluster_count=6, team_count=1, seed=1)
        for row in result.rows:
            assert row.converged
            assert row.settled_like_fraction == 0.5

    @pytest.mark.parametrize(("spec", "slack"), [(SMOKE, 0.05), (PAPER, 0.0)], ids=SCALES)
    def test_reserve_ablation_steers_demand(self, spec, slack):
        result = run_ablation_reserve(spec)
        assert len(result.rows) == 4
        flat = result.row("flat")
        phi1 = result.row("phi1")
        # Congestion weighting steers bid-side demand towards idle pools more
        # strongly than flat pricing, and opens a larger price gap between
        # congested and idle clusters (the signal the operator wants).
        assert phi1.bid_share_in_underutilized > flat.bid_share_in_underutilized - slack
        assert phi1.congested_premium > flat.congested_premium
        assert phi1.median_bid_percentile <= flat.median_bid_percentile
        # Every weighting keeps a functioning market: some trades settle.
        for row in result.rows:
            assert 0.1 < row.settled_fraction <= 1.0
