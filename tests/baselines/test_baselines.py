"""Unit tests for the traditional-allocation baselines and the comparison metrics."""

import math
import warnings

import numpy as np
import pytest

from repro.analysis import allocation
from repro.analysis.allocation import (
    allocation_metrics,
    market_outcome_from_quota_delta,
    row_blocks,
    utilization_imbalance,
)
from repro.cluster.resources import cpu_ram_disk
from repro.market.quotas import QuotaRegistry
from repro.market.services import ServiceCatalog, ServiceRequest, ServiceSpec
from repro.mechanisms import BaselineEconomySimulation, get_mechanism
from repro.mechanisms.baseline import (
    BASELINE_MECHANISMS,
    lottery_order,
    one_shot_outcomes,
    proportional_grants,
)
from repro.simulation.scenario import small_scenario
from repro.simulation.workload import demands_from_agents
from tests.conftest import build_pool_index

FIXED_PRICE, PRIORITY, PROPORTIONAL, LOTTERY = (
    get_mechanism(name) for name in ("fixed-price", "priority", "proportional", "lottery")
)


@pytest.fixture
def idle_index():
    """Two clusters, both half empty, with round capacities for easy math."""
    return build_pool_index({"alpha": 0.5, "beta": 0.5}, capacity_scale=1000.0)


def allocate(mechanism, index, rows, *, priorities=None, weights=None, rng=None):
    """Run ``mechanism`` once over ``rows`` (one {pool: quantity} per team).

    Returns the requested and granted matrices, row-aligned with ``rows``,
    and the service order.
    """
    requested = index.matrix(rows)
    served, granted = mechanism.grants(
        index.available(),
        requested,
        np.zeros(len(rows), dtype=int) if priorities is None else np.array(priorities),
        np.ones(len(rows)) if weights is None else np.array(weights, dtype=float),
        rng,
    )
    return requested, granted, served


def grant_fractions(requested, granted):
    """Fraction of each row's requested units that was granted."""
    return granted.sum(axis=1) / requested.sum(axis=1)


class TestDemandMatrix:
    def test_an_overflowing_covering_amount_is_refused(self):
        scenario = small_scenario(seed=1, team_count=3, cluster_count=2)
        catalog = ServiceCatalog()
        catalog.register(ServiceSpec("huge", "u", cpu_ram_disk(1e308, 1.0, 0.0)))
        agent = scenario.agents[1]
        agent.catalog = catalog
        agent.demand.requests = [ServiceRequest("huge", agent.demand.home_cluster, 10.0)]
        message = "covering amount of cpu must be finite, got inf"
        with pytest.raises(ValueError, match=message):
            demands_from_agents(scenario.agents, scenario.pool_index)
        with pytest.raises(ValueError, match=message):
            BaselineEconomySimulation(scenario, FIXED_PRICE)

    def test_non_finite_budget_rejected_by_the_simulation(self):
        scenario = small_scenario(seed=1, team_count=3, cluster_count=2)
        scenario.agents[1].budget = math.nan
        with pytest.raises(ValueError, match=repr(scenario.agents[1].name)):
            BaselineEconomySimulation(scenario, FIXED_PRICE)


class TestFixedPriceAllocator:
    def test_grants_until_capacity_exhausted(self, idle_index):
        # available alpha/cpu = 500; three requests of 200 arrive in order
        requested, granted, _ = allocate(FIXED_PRICE, idle_index, [{"alpha/cpu": 200}] * 3)
        assert grant_fractions(requested, granted).tolist() == [1.0, 1.0, 0.5]  # only 100 left
        shortage = np.clip(requested.sum(axis=0) - granted.sum(axis=0), 0.0, None)
        assert shortage[idle_index.index_of("alpha/cpu")] == pytest.approx(100.0)

    def test_idle_cluster_keeps_surplus(self, idle_index):
        _, granted, _ = allocate(FIXED_PRICE, idle_index, [{"alpha/cpu": 100}])
        surplus = np.clip(idle_index.available() - granted.sum(axis=0), 0.0, None)
        assert surplus[idle_index.index_of("beta/cpu")] == pytest.approx(500.0)
        assert surplus[idle_index.index_of("alpha/cpu")] == pytest.approx(400.0)


class TestProportionalShareAllocator:
    def test_scales_down_oversubscribed_pool_uniformly(self, idle_index):
        requested, granted, _ = allocate(PROPORTIONAL, idle_index, [{"alpha/cpu": 500}] * 2)
        # total demand 1000 against 500 available -> everyone gets half
        assert grant_fractions(requested, granted) == pytest.approx([0.5, 0.5])

    def test_undersubscribed_pool_fully_granted(self, idle_index):
        requested, granted, _ = allocate(PROPORTIONAL, idle_index, [{"beta/ram": 100}])
        assert grant_fractions(requested, granted).tolist() == [1.0]

    def test_empty_request_list(self, idle_index):
        requested, granted, served = allocate(PROPORTIONAL, idle_index, [])
        assert granted.shape == requested.shape == (0, len(idle_index))
        assert len(served) == 0


class TestPriorityAllocator:
    def test_higher_priority_served_first(self, idle_index):
        requested, granted, served = allocate(
            PRIORITY, idle_index, [{"alpha/cpu": 400}] * 2, priorities=[0, 5]
        )
        assert served.tolist() == [1, 0]
        # high is served in full, low gets the 100 of 400 left
        assert grant_fractions(requested, granted) == pytest.approx([0.25, 1.0])

    def test_arrival_order_breaks_ties(self, idle_index):
        requested, granted, served = allocate(
            PRIORITY, idle_index, [{"alpha/cpu": 400}] * 2, priorities=[1, 1]
        )
        assert served.tolist() == [0, 1]
        first, second = grant_fractions(requested, granted)
        assert first == 1.0
        assert second < 1.0


class TestLotteryAllocator:
    def test_deterministic_given_seed(self, idle_index):
        rows, weights = [{"alpha/cpu": 300}] * 4, [1.0, 2.0, 3.0, 4.0]
        _, a, served_a = allocate(
            LOTTERY, idle_index, rows, weights=weights, rng=np.random.default_rng(3)
        )
        _, b, served_b = allocate(
            LOTTERY, idle_index, rows, weights=weights, rng=np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(served_a, served_b)

    def test_different_seeds_draw_different_orders(self, idle_index):
        grants = set()
        for seed in range(8):
            requested, granted, _ = allocate(
                LOTTERY, idle_index, [{"alpha/cpu": 300}] * 6, rng=np.random.default_rng(seed)
            )
            grants.add(tuple(np.round(grant_fractions(requested, granted), 6)))
        assert len(grants) > 1  # the order (hence who is rationed) varies

    def test_budget_weight_biases_the_draw(self, idle_index):
        # One whale vs one minnow contending for a pool that fits only one
        # full request: across many draws the whale must win far more often.
        whale_wins = 0
        for seed in range(100):
            requested, granted, _ = allocate(
                LOTTERY,
                idle_index,
                [{"alpha/cpu": 400}] * 2,
                weights=[1000.0, 1.0],
                rng=np.random.default_rng(seed),
            )
            whale_wins += grant_fractions(requested, granted)[0] == 1.0
        assert whale_wins > 90

    def test_zero_weight_requests_sort_last(self, idle_index):
        for seed in range(10):
            requested, granted, served = allocate(
                LOTTERY,
                idle_index,
                [{"alpha/cpu": 400}] * 2,
                weights=[0.0, 5.0],
                rng=np.random.default_rng(seed),
            )
            assert served.tolist() == [1, 0]
            assert grant_fractions(requested, granted)[1] == 1.0

    def test_reseed_pins_the_stream(self):
        # A simulation takes the lottery's stream from the scenario RNG, so
        # the same scenario seed holds the same lotteries.
        a, b = (
            BaselineEconomySimulation(
                small_scenario(seed=42, team_count=8, cluster_count=3), LOTTERY
            )
            for _ in range(2)
        )
        for pa, pb in zip(a.run(2), b.run(2)):
            assert (pa.revenue, pa.allocation) == (pb.revenue, pb.allocation)

    def test_empty_request_list(self, idle_index):
        rng = np.random.default_rng(0)
        requested, granted, served = allocate(LOTTERY, idle_index, [], rng=rng)
        assert granted.shape == requested.shape == (0, len(idle_index))
        assert len(served) == 0
        assert rng.random() == np.random.default_rng(0).random()  # no draw


class TestAllocationMetrics:
    def test_metrics_on_fully_satisfied_outcome(self, idle_index):
        requested, granted, _ = allocate(FIXED_PRICE, idle_index, [{"alpha/cpu": 100}])
        metrics = allocation_metrics(idle_index, "fixed-price", row_blocks(requested, granted))
        assert metrics.shortage_cost == pytest.approx(0.0)
        assert metrics.satisfied_fraction == 1.0
        assert metrics.grant_rate == pytest.approx(1.0)
        assert metrics.policy == "fixed-price"

    def test_metrics_detect_shortage(self, idle_index):
        requested, granted, _ = allocate(FIXED_PRICE, idle_index, [{"alpha/cpu": 800}])
        metrics = allocation_metrics(idle_index, "fixed-price", row_blocks(requested, granted))
        # 300 CPU unmet at unit cost 10
        assert metrics.shortage_cost == pytest.approx(3000.0)
        assert metrics.satisfied_fraction == 0.0

    def test_relocated_grant_counts_as_satisfied(self, idle_index):
        # market-style outcome: requested in alpha, granted the equivalent in beta
        requested = idle_index.matrix([{"alpha/cpu": 100}])
        granted = idle_index.matrix([{"beta/cpu": 100}])
        metrics = allocation_metrics(idle_index, "market", row_blocks(requested, granted))
        assert metrics.shortage_cost == pytest.approx(0.0)
        assert metrics.satisfied_fraction == 1.0

    def test_row_blocks_chunk_the_rows_in_order(self, idle_index, monkeypatch):
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 2)
        requested = idle_index.matrix([{"alpha/cpu": 10.0 * (i + 1)} for i in range(5)])
        granted = idle_index.matrix([{"beta/cpu": float(i)} for i in range(5)])
        blocks = list(row_blocks(requested, granted))
        assert [len(rows) for rows, _ in blocks] == [2, 2, 1]
        np.testing.assert_array_equal(np.vstack([rows for rows, _ in blocks]), requested)
        np.testing.assert_array_equal(np.vstack([rows for _, rows in blocks]), granted)

    def test_metrics_do_not_depend_on_the_block_size(self, idle_index, monkeypatch):
        rows = [{"alpha/cpu": 90.0 + i, "beta/ram": 7.0 * i} for i in range(7)]
        requested, granted, _ = allocate(FIXED_PRICE, idle_index, rows)
        whole = allocation_metrics(idle_index, "fixed-price", [(requested, granted)])
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 3)
        assert allocation_metrics(
            idle_index, "fixed-price", row_blocks(requested, granted)
        ) == whole


def stacked(outcome):
    """A market outcome's requested and granted rows, every block stacked."""
    blocks = list(outcome.blocks())
    width = len(outcome.index)
    return (
        np.vstack([np.zeros((0, width))] + [requested for requested, _ in blocks]),
        np.vstack([np.zeros((0, width))] + [granted for _, granted in blocks]),
    )


class TestMarketOutcomes:
    def test_from_quota_delta(self, idle_index):
        demand = idle_index.matrix([{"alpha/cpu": 100}])
        quotas = QuotaRegistry(idle_index)
        quotas.grant("t", {"alpha/cpu": 20.0})
        initial = quotas.matrix()
        quotas.grant("t", {"alpha/cpu": 60.0, "beta/cpu": 40.0})
        outcome = market_outcome_from_quota_delta(idle_index, ("t",), demand, initial, quotas)
        (granted,) = stacked(outcome)[1]
        assert granted[idle_index.index_of("alpha/cpu")] == pytest.approx(60.0)
        assert granted[idle_index.index_of("beta/cpu")] == pytest.approx(40.0)
        # cost-weighted: requested 100 CPU, acquired 100 CPU worth -> satisfied
        metrics = allocation_metrics(idle_index, "market", outcome.blocks())
        assert metrics.satisfied_fraction == 1.0

    def test_from_quota_delta_ignores_sold_quota(self, idle_index):
        quotas = QuotaRegistry(idle_index)
        quotas.grant("t", {"alpha/cpu": 100.0})
        initial = quotas.matrix()
        quotas.apply_delta("t", idle_index.vector({"alpha/cpu": -60.0}))
        outcome = market_outcome_from_quota_delta(
            idle_index, ("t",), idle_index.matrix([{"alpha/cpu": 10}]), initial, quotas
        )
        requested, granted = stacked(outcome)
        assert len(requested) == 1
        assert not np.any(granted)

    def test_from_quota_delta_includes_unrequested_acquirers(self, idle_index):
        quotas = QuotaRegistry(idle_index)
        initial = quotas.matrix()
        quotas.grant("newcomer", {"beta/cpu": 10.0})
        outcome = market_outcome_from_quota_delta(
            idle_index, (), np.zeros((0, len(idle_index))), initial, quotas
        )
        requested, granted = stacked(outcome)
        assert not requested.any()
        assert granted.tolist() == [idle_index.vector({"beta/cpu": 10.0}).tolist()]

    def test_blocks_hold_the_demands_then_the_acquirers(self, idle_index, monkeypatch):
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 2)
        quotas = QuotaRegistry(idle_index)
        initial = quotas.matrix()
        demands = {f"d{i}": {"alpha/cpu": 10.0 + i} for i in range(3)}
        for i, team in enumerate(demands):
            quotas.grant(team, {"beta/cpu": float(i + 1)})
        for i, team in enumerate(("x", "y", "z")):
            quotas.grant(team, {"alpha/ram": 5.0 + i})
        outcome = market_outcome_from_quota_delta(
            idle_index, tuple(demands), idle_index.matrix(list(demands.values())), initial, quotas
        )
        blocks = list(outcome.blocks())
        assert [len(requested) for requested, _ in blocks] == [2, 1, 2, 1]
        requested, granted = stacked(outcome)
        np.testing.assert_array_equal(requested[:3], idle_index.matrix(list(demands.values())))
        assert not requested[3:].any()
        assert granted[:3, idle_index.index_of("beta/cpu")].tolist() == [1.0, 2.0, 3.0]
        # the acquirers follow in registration order
        assert granted[3:, idle_index.index_of("alpha/ram")].tolist() == [5.0, 6.0, 7.0]


class TestUtilizationImbalance:
    def test_cost_weighted_capacity_beyond_each_threshold(self, idle_index):
        # Per cluster, capacity x unit cost is 1000*10 + 4000*2 + 100000*0.05 = 23000.
        utils = np.where([p.cluster == "alpha" for p in idle_index], 1.0, 0.0)
        shortage, surplus = utilization_imbalance(
            idle_index, utils, shortage_threshold=0.8, surplus_threshold=0.2
        )
        assert shortage == pytest.approx(0.2 * 23000.0)
        assert surplus == pytest.approx(0.2 * 23000.0)

    def test_a_fleet_between_the_thresholds_is_balanced(self, idle_index):
        assert utilization_imbalance(idle_index) == (0.0, 0.0)
        shortage, surplus = utilization_imbalance(
            idle_index, shortage_threshold=0.4, surplus_threshold=0.6
        )
        assert shortage == surplus == pytest.approx(0.1 * 2 * 23000.0)


class TestPolicyOrders:
    def test_proportional_grants_scale_each_pool_on_its_own(self, idle_index):
        # alpha/cpu has 500 available for 1000 asked; beta/ram 2000 for 200.
        requested = idle_index.matrix([{"alpha/cpu": 500, "beta/ram": 100}] * 2)
        served, granted = proportional_grants(
            idle_index.available(), requested, np.zeros(2, dtype=int), np.ones(2), None
        )
        assert served.tolist() == [0, 1]
        for row in granted:
            assert row[idle_index.index_of("alpha/cpu")] == pytest.approx(250.0)
            assert row[idle_index.index_of("beta/ram")] == pytest.approx(100.0)

    def test_proportional_grants_a_subnormal_demand_in_full_without_warning(self):
        requested = np.array([[5e-324, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            served, granted = proportional_grants(
                np.array([5.0, 1.0]), requested, np.zeros(1, dtype=int), np.ones(1), None
            )
        assert served.tolist() == [0]
        assert granted.tolist() == requested.tolist()

    def test_lottery_of_no_requests_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert lottery_order(np.zeros(0, dtype=int), np.zeros(0), rng).tolist() == []
        assert rng.random() == np.random.default_rng(0).random()

    def test_one_shot_outcomes_run_every_baseline_once(self):
        scenario = small_scenario(seed=3, team_count=4, cluster_count=2)
        pool = scenario.pool_index.names[0]
        requested = scenario.pool_index.matrix([{pool: float(i + 1)} for i in range(3)])
        outcomes = one_shot_outcomes(scenario, requested, np.array([0, 2, 1]))
        assert [policy for policy, _, _ in outcomes] == [m.name for m in BASELINE_MECHANISMS]
        for policy, rows, granted in outcomes:
            # every request is served once, in the policy's order
            assert sorted(rows[:, 0].tolist()) == [1.0, 2.0, 3.0]
            assert granted.shape == rows.shape
        by_policy = {policy: rows[:, 0].tolist() for policy, rows, _ in outcomes}
        assert by_policy["fixed-price"] == [1.0, 2.0, 3.0]
        assert by_policy["priority"] == [2.0, 3.0, 1.0]
