"""Full-stack integration tests: fleet -> platform -> agents -> auctions -> analysis.

These exercise the same paths the examples and benchmarks use, at a reduced
scale, and assert the cross-cutting invariants that only show up when all
layers run together (budget conservation, quota consistency, reproducibility).
"""

import numpy as np
import pytest

from repro.analysis.premium import premium_trend
from repro.analysis.utilization_stats import figure7_boxplots
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.scenario import small_scenario


@pytest.fixture(scope="module")
def built():
    scenario = small_scenario(seed=13, team_count=30, cluster_count=8)
    # The budget dollars on the accounts right after the build: the endowments.
    return scenario, scenario.platform.ledger.total_outstanding()


@pytest.fixture(scope="module")
def economy(built):
    scenario, _ = built
    sim = MarketEconomySimulation(scenario)
    history = sim.run(4)
    return scenario, history


class TestEconomyInvariants:
    def test_all_auctions_converge_and_satisfy_constraints(self, economy):
        _, history = economy
        for period in history.periods:
            result = period.record.result
            assert result.outcome.converged
            assert result.constraints.satisfied, result.constraints.violations

    def test_budget_dollars_are_conserved_up_to_operator_flows(self, built, economy):
        _, endowed = built
        scenario, history = economy
        ledger = scenario.platform.ledger
        operator_net = sum(
            period.settlement.total_payments() for period in history.periods
        )
        total_balances = ledger.total_outstanding()
        # every budget dollar is either still on an account or was paid (net) to the operator
        assert total_balances + operator_net == pytest.approx(endowed, rel=1e-9)

    def test_no_team_ends_with_negative_quota(self, economy):
        scenario, _ = economy
        for team, holdings in scenario.platform.quotas.snapshot().items():
            for pool_name, quantity in holdings.items():
                assert quantity >= -1e-6, f"{team} has negative quota in {pool_name}"

    def test_winning_buyers_acquired_quota(self, economy):
        scenario, history = economy
        quotas = scenario.platform.quotas
        last = history.periods[-1].settlement
        for line in last.winners:
            bought = np.clip(line.allocation, 0.0, None)
            if bought.sum() > 0:
                holdings = quotas.holdings_map(line.bidder)
                assert all(quantity + 1e-9 >= 0 for quantity in holdings.values())

    def test_settled_trades_feed_figure7(self, economy):
        _, history = economy
        boxes = figure7_boxplots(history.settlements())
        assert boxes, "pooled settlements must produce at least one boxplot group"
        for stats in boxes.values():
            assert 0.0 <= stats.minimum <= stats.maximum <= 100.0

    def test_premiums_trend_downward_with_learning(self, economy):
        _, history = economy
        trend = premium_trend(history.premium_rows())
        assert trend["median_last"] <= trend["median_first"] + 1e-9


class TestReproducibility:
    def test_same_seed_gives_identical_prices(self):
        def run(seed):
            scenario = small_scenario(seed=seed, team_count=15, cluster_count=5)
            sim = MarketEconomySimulation(scenario)
            history = sim.run(2)
            return [period.record.prices for period in history.periods]

        assert run(99) == run(99)

    def test_different_seeds_differ(self):
        def run(seed):
            scenario = small_scenario(seed=seed, team_count=15, cluster_count=5)
            sim = MarketEconomySimulation(scenario)
            return sim.run(1).periods[0].record.prices

        assert run(1) != run(2)
