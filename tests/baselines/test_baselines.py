"""Unit tests for the traditional-allocation baselines and the comparison metrics."""

import math

import numpy as np
import pytest

from repro.analysis import allocation
from repro.analysis.allocation import (
    AllocationOutcome,
    QuotaRequest,
    allocation_metrics,
    market_outcome_from_quota_delta,
    requests_from_demands,
    utilization_imbalance,
)
from repro.market.quotas import QuotaRegistry
from repro.mechanisms import BaselineEconomySimulation, get_mechanism
from repro.mechanisms.baseline import (
    BASELINE_MECHANISMS,
    lottery_order,
    one_shot_outcomes,
    proportional_grants,
)
from repro.simulation.scenario import small_scenario
from tests.conftest import build_pool_index

FIXED_PRICE, PRIORITY, PROPORTIONAL, LOTTERY = (
    get_mechanism(name) for name in ("fixed-price", "priority", "proportional", "lottery")
)


@pytest.fixture
def idle_index():
    """Two clusters, both half empty, with round capacities for easy math."""
    return build_pool_index({"alpha": 0.5, "beta": 0.5}, capacity_scale=1000.0)


class TestQuotaRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaRequest(team="", quantities={"a/cpu": 1})
        with pytest.raises(ValueError):
            QuotaRequest(team="t", quantities={})
        with pytest.raises(ValueError):
            QuotaRequest(team="t", quantities={"a/cpu": -1})
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="'a/cpu'"):
                QuotaRequest(team="t", quantities={"a/cpu": bad})
            with pytest.raises(ValueError, match="weight"):
                QuotaRequest(team="t", quantities={"a/cpu": 1}, weight=bad)
        assert QuotaRequest(team="t", quantities={"a/cpu": 0.0}, weight=0.0).weight == 0.0

    def test_vector(self, idle_index):
        request = QuotaRequest(team="t", quantities={"alpha/cpu": 10})
        assert request.vector(idle_index)[idle_index.index_of("alpha/cpu")] == 10.0

    def test_unknown_pool_rejected_by_allocators(self, idle_index):
        request = QuotaRequest(team="t", quantities={"nowhere/cpu": 10})
        with pytest.raises(KeyError):
            FIXED_PRICE.allocate(idle_index, [request])


class TestFixedPriceAllocator:
    def test_grants_until_capacity_exhausted(self, idle_index):
        # available alpha/cpu = 500; three requests of 200 arrive in order
        requests = [QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 200}) for i in range(3)]
        outcome = FIXED_PRICE.allocate(idle_index, requests)
        assert outcome.grant_fraction("t0") == 1.0
        assert outcome.grant_fraction("t1") == 1.0
        assert outcome.grant_fraction("t2") == pytest.approx(0.5)  # only 100 left
        assert outcome.shortage()[idle_index.index_of("alpha/cpu")] == pytest.approx(100.0)

    def test_idle_cluster_keeps_surplus(self, idle_index):
        requests = [QuotaRequest(team="t", quantities={"alpha/cpu": 100})]
        outcome = FIXED_PRICE.allocate(idle_index, requests)
        surplus = outcome.surplus()
        assert surplus[idle_index.index_of("beta/cpu")] == pytest.approx(500.0)
        assert surplus[idle_index.index_of("alpha/cpu")] == pytest.approx(400.0)


class TestProportionalShareAllocator:
    def test_scales_down_oversubscribed_pool_uniformly(self, idle_index):
        requests = [QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 500}) for i in range(2)]
        outcome = PROPORTIONAL.allocate(idle_index, requests)
        # total demand 1000 against 500 available -> everyone gets half
        assert outcome.grant_fraction("t0") == pytest.approx(0.5)
        assert outcome.grant_fraction("t1") == pytest.approx(0.5)

    def test_undersubscribed_pool_fully_granted(self, idle_index):
        requests = [QuotaRequest(team="t", quantities={"beta/ram": 100})]
        outcome = PROPORTIONAL.allocate(idle_index, requests)
        assert outcome.grant_fraction("t") == 1.0

    def test_empty_request_list(self, idle_index):
        outcome = PROPORTIONAL.allocate(idle_index, [])
        assert outcome.teams() == []
        assert not np.any(outcome.total_granted())


class TestPriorityAllocator:
    def test_higher_priority_served_first(self, idle_index):
        requests = [
            QuotaRequest(team="low", quantities={"alpha/cpu": 400}, priority=0),
            QuotaRequest(team="high", quantities={"alpha/cpu": 400}, priority=5),
        ]
        outcome = PRIORITY.allocate(idle_index, requests)
        assert outcome.grant_fraction("high") == 1.0
        assert outcome.grant_fraction("low") == pytest.approx(0.25)  # 100 of 400 left

    def test_arrival_order_breaks_ties(self, idle_index):
        requests = [
            QuotaRequest(team="first", quantities={"alpha/cpu": 400}, priority=1),
            QuotaRequest(team="second", quantities={"alpha/cpu": 400}, priority=1),
        ]
        outcome = PRIORITY.allocate(idle_index, requests)
        assert outcome.grant_fraction("first") == 1.0
        assert outcome.grant_fraction("second") < 1.0


class TestLotteryAllocator:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QuotaRequest(team="t", quantities={"a/cpu": 1}, weight=-1.0)

    def test_deterministic_given_seed(self, idle_index):
        requests = [
            QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 300}, weight=float(i + 1))
            for i in range(4)
        ]
        a = LOTTERY.allocate(idle_index, requests, np.random.default_rng(3))
        b = LOTTERY.allocate(idle_index, requests, np.random.default_rng(3))
        for team in a.teams():
            np.testing.assert_array_equal(a.granted[team], b.granted[team])

    def test_different_seeds_draw_different_orders(self, idle_index):
        requests = [
            QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 300}) for i in range(6)
        ]
        grants = set()
        for seed in range(8):
            outcome = LOTTERY.allocate(idle_index, requests, np.random.default_rng(seed))
            grants.add(tuple(round(outcome.grant_fraction(t), 6) for t in sorted(outcome.teams())))
        assert len(grants) > 1  # the order (hence who is rationed) varies

    def test_budget_weight_biases_the_draw(self, idle_index):
        # One whale vs one minnow contending for a pool that fits only one
        # full request: across many draws the whale must win far more often.
        requests = [
            QuotaRequest(team="whale", quantities={"alpha/cpu": 400}, weight=1000.0),
            QuotaRequest(team="minnow", quantities={"alpha/cpu": 400}, weight=1.0),
        ]
        whale_wins = sum(
            LOTTERY.allocate(idle_index, requests, np.random.default_rng(seed))
            .grant_fraction("whale") == 1.0
            for seed in range(100)
        )
        assert whale_wins > 90

    def test_zero_weight_requests_sort_last(self, idle_index):
        requests = [
            QuotaRequest(team="broke", quantities={"alpha/cpu": 400}, weight=0.0),
            QuotaRequest(team="funded", quantities={"alpha/cpu": 400}, weight=5.0),
        ]
        for seed in range(10):
            outcome = LOTTERY.allocate(idle_index, requests, np.random.default_rng(seed))
            assert outcome.grant_fraction("funded") == 1.0

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
        outcome = LOTTERY.allocate(idle_index, [], np.random.default_rng(0))
        assert outcome.teams() == []


class TestAllocationOutcomeAndMetrics:
    def test_record_accumulates(self, idle_index):
        outcome = AllocationOutcome(index=idle_index, policy="x")
        vec = idle_index.vector({"alpha/cpu": 10})
        outcome.record("t", vec, vec)
        outcome.record("t", vec, vec * 0.5)
        assert outcome.requested["t"][idle_index.index_of("alpha/cpu")] == 20.0
        assert outcome.granted["t"][idle_index.index_of("alpha/cpu")] == 15.0

    def test_metrics_on_fully_satisfied_outcome(self, idle_index):
        requests = [QuotaRequest(team="t", quantities={"alpha/cpu": 100})]
        outcome = FIXED_PRICE.allocate(idle_index, requests)
        metrics = allocation_metrics(outcome)
        assert metrics.shortage_cost == pytest.approx(0.0)
        assert metrics.satisfied_fraction == 1.0
        assert metrics.grant_rate == pytest.approx(1.0)
        assert metrics.policy == "fixed-price"

    def test_metrics_detect_shortage(self, idle_index):
        requests = [QuotaRequest(team="t", quantities={"alpha/cpu": 800})]
        metrics = allocation_metrics(FIXED_PRICE.allocate(idle_index, requests))
        # 300 CPU unmet at unit cost 10
        assert metrics.shortage_cost == pytest.approx(3000.0)
        assert metrics.satisfied_fraction == 0.0

    def test_relocated_grant_counts_as_satisfied(self, idle_index):
        # market-style outcome: requested in alpha, granted the equivalent in beta
        outcome = AllocationOutcome(index=idle_index, policy="market")
        outcome.record(
            "t",
            idle_index.vector({"alpha/cpu": 100}),
            idle_index.vector({"beta/cpu": 100}),
        )
        metrics = allocation_metrics(outcome)
        assert metrics.shortage_cost == pytest.approx(0.0)
        assert metrics.satisfied_fraction == 1.0

    def test_blocks_chunk_the_teams_in_order(self, idle_index, monkeypatch):
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 2)
        outcome = AllocationOutcome(index=idle_index, policy="x")
        for i in range(5):
            outcome.record(
                f"t{i}",
                idle_index.vector({"alpha/cpu": 10.0 * (i + 1)}),
                idle_index.vector({"beta/cpu": float(i)}),
            )
        blocks = list(outcome.blocks())
        assert [len(requested) for requested, _ in blocks] == [2, 2, 1]
        requested = np.vstack([requested for requested, _ in blocks])
        granted = np.vstack([granted for _, granted in blocks])
        np.testing.assert_array_equal(requested, [outcome.requested[t] for t in outcome.teams()])
        np.testing.assert_array_equal(granted, [outcome.granted[t] for t in outcome.teams()])
        np.testing.assert_array_equal(outcome.total_requested(), requested.sum(axis=0))

    def test_metrics_do_not_depend_on_the_block_size(self, idle_index, monkeypatch):
        requests = [
            QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 90.0 + i, "beta/ram": 7.0 * i})
            for i in range(7)
        ]
        whole = allocation_metrics(FIXED_PRICE.allocate(idle_index, requests))
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 3)
        assert allocation_metrics(FIXED_PRICE.allocate(idle_index, requests)) == whole

    def test_requests_from_demands(self, idle_index):
        requests = requests_from_demands(
            idle_index, {"a": {"alpha/cpu": 5}, "b": {}}, priorities={"a": 2}
        )
        assert len(requests) == 1
        assert requests[0].priority == 2


class TestMarketOutcomes:
    def test_from_quota_delta(self, idle_index):
        demands = {"t": {"alpha/cpu": 100}}
        quotas = QuotaRegistry(idle_index)
        quotas.grant("t", {"alpha/cpu": 20.0})
        initial = quotas.matrix()
        quotas.grant("t", {"alpha/cpu": 60.0, "beta/cpu": 40.0})
        outcome = market_outcome_from_quota_delta(idle_index, demands, initial, quotas)
        granted = outcome.granted["t"]
        assert granted[idle_index.index_of("alpha/cpu")] == pytest.approx(60.0)
        assert granted[idle_index.index_of("beta/cpu")] == pytest.approx(40.0)
        # cost-weighted: requested 100 CPU, acquired 100 CPU worth -> satisfied
        metrics = allocation_metrics(outcome)
        assert metrics.satisfied_fraction == 1.0

    def test_from_quota_delta_ignores_sold_quota(self, idle_index):
        quotas = QuotaRegistry(idle_index)
        quotas.grant("t", {"alpha/cpu": 100.0})
        initial = quotas.matrix()
        quotas.apply_delta("t", idle_index.vector({"alpha/cpu": -60.0}))
        outcome = market_outcome_from_quota_delta(
            idle_index, {"t": {"alpha/cpu": 10}}, initial, quotas
        )
        assert not np.any(outcome.granted["t"])

    def test_from_quota_delta_includes_unrequested_acquirers(self, idle_index):
        quotas = QuotaRegistry(idle_index)
        initial = quotas.matrix()
        quotas.grant("newcomer", {"beta/cpu": 10.0})
        outcome = market_outcome_from_quota_delta(idle_index, {}, initial, quotas)
        assert "newcomer" in outcome.teams()

    def test_blocks_hold_the_demands_then_the_acquirers(self, idle_index, monkeypatch):
        monkeypatch.setattr(allocation, "BLOCK_TEAMS", 2)
        quotas = QuotaRegistry(idle_index)
        initial = quotas.matrix()
        demands = {f"d{i}": {"alpha/cpu": 10.0 + i} for i in range(3)}
        for i, team in enumerate(demands):
            quotas.grant(team, {"beta/cpu": float(i + 1)})
        for team in ("x", "y", "z"):
            quotas.grant(team, {"alpha/ram": 5.0})
        outcome = market_outcome_from_quota_delta(idle_index, demands, initial, quotas)
        assert outcome.teams() == ["d0", "d1", "d2", "x", "y", "z"]
        blocks = list(outcome.blocks())
        assert [len(requested) for requested, _ in blocks] == [2, 1, 2, 1]
        requested = np.vstack([requested for requested, _ in blocks])
        granted = np.vstack([granted for _, granted in blocks])
        np.testing.assert_array_equal(requested[:3], idle_index.matrix(list(demands.values())))
        assert not requested[3:].any()
        assert granted[:3, idle_index.index_of("beta/cpu")].tolist() == [1.0, 2.0, 3.0]
        assert granted[3:, idle_index.index_of("alpha/ram")].tolist() == [5.0, 5.0, 5.0]


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
        requests = [
            QuotaRequest(team=f"t{i}", quantities={"alpha/cpu": 500, "beta/ram": 100})
            for i in range(2)
        ]
        for request, wanted, granted in proportional_grants(idle_index, requests, None):
            np.testing.assert_array_equal(wanted, request.vector(idle_index))
            assert granted[idle_index.index_of("alpha/cpu")] == pytest.approx(250.0)
            assert granted[idle_index.index_of("beta/ram")] == pytest.approx(100.0)

    def test_lottery_of_no_requests_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert list(lottery_order([], rng)) == []
        assert rng.random() == np.random.default_rng(0).random()

    def test_one_shot_outcomes_run_every_baseline_once(self):
        scenario = small_scenario(seed=3, team_count=4, cluster_count=2)
        pool = scenario.pool_index.names[0]
        requests = [QuotaRequest(team=f"t{i}", quantities={pool: 1.0}) for i in range(3)]
        outcomes = one_shot_outcomes(scenario, requests)
        assert [outcome.policy for outcome in outcomes] == [m.name for m in BASELINE_MECHANISMS]
        for outcome in outcomes:
            assert outcome.teams() == ["t0", "t1", "t2"]
