"""Unit tests for the agent framework: relocation costs, learning, strategies, population."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.agents.base import DemandProfile, MarketView, TeamAgent
from repro.agents.learning import AdaptiveMarginModel
from repro.agents.population import PopulationSpec, build_population, strategy_counts
from repro.agents.relocation import RelocationCostModel
from repro.agents.strategies import (
    ArbitrageurStrategy,
    FixedPriceAnchorStrategy,
    LowballStrategy,
    MarketTrackerStrategy,
    PremiumPayerStrategy,
    RelocatorStrategy,
    SellerStrategy,
)
from repro.cluster.fleet_gen import small_fleet
from repro.core.bids import BidderClass
from repro.core.settlement import settle
from repro.market.services import ServiceRequest, default_catalog


@pytest.fixture
def fleet():
    return small_fleet(4, seed=21, utilization_range=(0.15, 0.95))


@pytest.fixture
def view(fleet):
    index = fleet.pool_index
    return MarketView(
        index=index,
        displayed_prices={p.name: p.unit_cost for p in index},
        fixed_prices=dict(fleet.fixed_prices),
        auction_number=1,
        topology=fleet.topology,
    )


def make_agent(fleet, strategy, *, home=None, budget=1e9, mobile=True, holdings=None):
    catalog = default_catalog()
    home = home or fleet.cluster_names()[0]
    demand = DemandProfile(
        home_cluster=home,
        requests=[ServiceRequest("batch_compute", home, 20)],
        growth_rate=0.1,
        mobile=mobile,
    )
    agent = TeamAgent(name="team-x", demand=demand, strategy=strategy, catalog=catalog, budget=budget)
    if holdings:
        agent.holdings = holdings
    return agent


class TestRelocationCostModel:
    def test_same_cluster_is_free(self, fleet):
        model = RelocationCostModel()
        assert model.move_cost(fleet.topology, "cluster-00", "cluster-00", workload_size=100) == 0.0

    def test_cost_grows_with_workload_and_distance(self, fleet):
        model = RelocationCostModel(base_cost=10, cost_per_distance=1.0, cost_per_unit=2.0)
        names = fleet.cluster_names()
        small = model.move_cost(fleet.topology, names[0], names[1], workload_size=10)
        big = model.move_cost(fleet.topology, names[0], names[1], workload_size=100)
        assert big > small

    def test_immobile_multiplier(self, fleet):
        model = RelocationCostModel(immobile_multiplier=5.0)
        names = fleet.cluster_names()
        mobile = model.move_cost(fleet.topology, names[0], names[1], workload_size=10, mobile=True)
        pinned = model.move_cost(fleet.topology, names[0], names[1], workload_size=10, mobile=False)
        assert pinned == pytest.approx(mobile * 5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RelocationCostModel(base_cost=-1)
        with pytest.raises(ValueError):
            RelocationCostModel(immobile_multiplier=0.5)
        with pytest.raises(ValueError):
            RelocationCostModel().move_cost(None, "a", "b", workload_size=-1)


class TestAdaptiveMarginModel:
    def test_margin_shrinks_on_wins_and_grows_on_losses(self):
        model = AdaptiveMarginModel(initial_margin=0.5, win_decay=0.5, loss_growth=2.0)
        model.record_win()
        assert model.margin == pytest.approx(0.25)
        model.record_loss()
        assert model.margin == pytest.approx(0.5)

    def test_bounds_are_enforced(self):
        model = AdaptiveMarginModel(initial_margin=0.5, floor=0.1, ceiling=1.0)
        for _ in range(20):
            model.record_win()
        assert model.margin >= 0.1
        for _ in range(20):
            model.record_loss()
        assert model.margin <= 1.0

    def test_observed_premium_accelerates_convergence(self):
        slow = AdaptiveMarginModel(initial_margin=1.0)
        fast = AdaptiveMarginModel(initial_margin=1.0)
        slow.record_win()
        fast.record_win(observed_premium=0.01)
        assert fast.margin < slow.margin

    def test_limit_for(self):
        model = AdaptiveMarginModel(initial_margin=0.2)
        assert model.limit_for(100.0) == pytest.approx(120.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveMarginModel(win_decay=1.5)
        with pytest.raises(ValueError):
            AdaptiveMarginModel(loss_growth=0.5)
        with pytest.raises(ValueError):
            AdaptiveMarginModel(initial_margin=-0.1)


class TestDemandProfile:
    def test_growth(self, fleet):
        profile = DemandProfile(
            home_cluster="cluster-00",
            requests=[ServiceRequest("batch_compute", "cluster-00", 10)],
            growth_rate=0.5,
        )
        profile.grow()
        assert profile.requests[0].quantity == pytest.approx(15.0)
        assert profile.total_quantity() == pytest.approx(15.0)

    def test_covering_bundle_rehomes_requests(self, fleet):
        catalog = default_catalog()
        profile = DemandProfile(
            home_cluster="cluster-00",
            requests=[ServiceRequest("batch_compute", "cluster-00", 10)],
        )
        bundle = profile.covering_bundle(catalog, fleet.pool_index, "cluster-01")
        assert all(name.startswith("cluster-01/") for name in bundle)


class TestStrategies:
    def test_fixed_anchor_produces_buy_bid_anchored_to_fixed_prices(self, fleet, view):
        agent = make_agent(fleet, FixedPriceAnchorStrategy(margin=0.5, jitter=0.0))
        bids = agent.prepare_bids(view)
        assert len(bids) == 1
        bid = bids[0]
        assert bid.bidder_class is BidderClass.PURE_BUYER
        bundle_cost = float(bid.bundles.matrix[0] @ np.array([view.fixed_prices[n] for n in view.index.names]))
        assert bid.limit == pytest.approx(bundle_cost * 1.5, rel=1e-6)

    def test_market_tracker_adapts_after_feedback(self, fleet, view):
        strategy = MarketTrackerStrategy(margins=AdaptiveMarginModel(initial_margin=0.5))
        agent = make_agent(fleet, strategy)
        first_limit = agent.prepare_bids(view)[0].limit
        # simulate a win at a much lower settled payment
        settlement = settle(view.index, agent.prepare_bids(view), np.array([p.unit_cost for p in view.index]))
        agent.observe_settlement(settlement.lines, view)
        second_limit = agent.prepare_bids(view)[0].limit
        assert strategy.margins.margin < 0.5
        assert second_limit < first_limit * 1.2  # demand grew 10%, margin shrank

    def test_market_tracker_includes_alternatives(self, fleet, view):
        agent = make_agent(fleet, MarketTrackerStrategy(alternatives=2))
        bid = agent.prepare_bids(view)[0]
        assert len(bid.bundles) == 3

    def test_lowball_bids_below_cost(self, fleet, view):
        agent = make_agent(fleet, LowballStrategy(fraction=0.3))
        bid = agent.prepare_bids(view)[0]
        cost = float(bid.bundles.matrix[0] @ np.array([view.displayed_prices[n] for n in view.index.names]))
        assert bid.limit < cost

    def test_premium_payer_stays_home_and_overbids(self, fleet, view):
        home = fleet.cluster_names()[0]
        agent = make_agent(fleet, PremiumPayerStrategy(premium=2.0), home=home)
        bid = agent.prepare_bids(view)[0]
        assert len(bid.bundles) == 1
        assert all(name.startswith(home) for name in view.index.describe(bid.bundles.matrix[0]))
        cost = float(bid.bundles.matrix[0] @ np.array([view.displayed_prices[n] for n in view.index.names]))
        assert bid.limit > cost * 1.5

    def test_relocator_includes_cheaper_clusters(self, fleet):
        index = fleet.pool_index
        # make the home cluster expensive and another cluster cheap
        prices = {p.name: p.unit_cost for p in index}
        home = fleet.cluster_names()[0]
        cheap = fleet.cluster_names()[1]
        for rtype in ("cpu", "ram", "disk"):
            prices[f"{home}/{rtype}"] *= 4.0
            prices[f"{cheap}/{rtype}"] *= 0.25
        view = MarketView(
            index=index, displayed_prices=prices, fixed_prices=dict(fleet.fixed_prices),
            auction_number=1, topology=fleet.topology,
        )
        agent = make_agent(
            fleet,
            RelocatorStrategy(relocation=RelocationCostModel(base_cost=0.0, cost_per_distance=0.0, cost_per_unit=0.0)),
            home=home,
        )
        bid = agent.prepare_bids(view)[0]
        touched_clusters = {index.pool(n).cluster for row in bid.bundles.matrix for n in index.describe(row)}
        assert home in touched_clusters and cheap in touched_clusters

    def test_relocator_stays_home_when_moving_is_prohibitive(self, fleet, view):
        agent = make_agent(
            fleet,
            RelocatorStrategy(relocation=RelocationCostModel(base_cost=1e9)),
        )
        bid = agent.prepare_bids(view)[0]
        assert len(bid.bundles) == 1

    def test_seller_offers_only_congested_holdings(self, fleet, view):
        index = fleet.pool_index
        congested = max(fleet.cluster_names(), key=lambda c: index.pool(f"{c}/cpu").utilization)
        idle = min(fleet.cluster_names(), key=lambda c: index.pool(f"{c}/cpu").utilization)
        holdings = {f"{congested}/cpu": 100.0, f"{idle}/cpu": 100.0}
        agent = make_agent(fleet, SellerStrategy(utilization_threshold=0.7, offer_fraction=0.5), holdings=holdings)
        bids = agent.prepare_bids(view)
        if index.pool(f"{congested}/cpu").utilization >= 0.7:
            assert len(bids) == 1
            offered = index.describe(bids[0].bundles.matrix[0])
            assert f"{congested}/cpu" in offered
            assert f"{idle}/cpu" not in offered
            assert offered[f"{congested}/cpu"] == pytest.approx(-50.0)
        else:
            assert bids == []

    def test_seller_without_holdings_is_silent(self, fleet, view):
        agent = make_agent(fleet, SellerStrategy())
        assert agent.prepare_bids(view) == []

    def test_arbitrageur_buys_cheapest_then_sells_on_markup(self, fleet, view):
        strategy = ArbitrageurStrategy(sell_markup=1.2)
        agent = make_agent(fleet, strategy, budget=1e6)
        bids = agent.prepare_bids(view)
        assert any(b.bidder_class is BidderClass.PURE_BUYER for b in bids)
        # simulate having bought at half today's price: selling should trigger
        cheapest = view.cheapest_clusters(limit=1)[0]
        pool_name = f"{cheapest}/cpu"
        agent.holdings = {pool_name: 10.0}
        strategy.cost_basis[pool_name] = view.price(pool_name) / 2.0
        bids = agent.prepare_bids(view)
        assert any(b.bidder_class is BidderClass.PURE_SELLER for b in bids)

    def test_affordable_limit_clamps_to_the_budget(self, fleet):
        agent = make_agent(fleet, LowballStrategy(fraction=0.3), budget=100.0)
        assert agent.affordable_limit(40.0) == 40.0
        assert agent.affordable_limit(250.0) == 100.0
        assert agent.affordable_limit(-5.0) == 0.0
        agent.budget = 0.0  # a spent budget no longer caps the limit
        assert agent.affordable_limit(250.0) == 250.0
        assert agent.affordable_limit(-5.0) == 0.0

    def test_strategy_must_bid_under_agents_name(self, fleet, view):
        class RogueStrategy:
            def prepare_bids(self, agent, view):
                from repro.core.bids import Bid

                return [Bid.buy("someone-else", view.index, [{"cluster-00/cpu": 1}], max_payment=1.0)]

            def observe(self, agent, lines, view):
                return None

        agent = make_agent(fleet, RogueStrategy())
        with pytest.raises(ValueError):
            agent.prepare_bids(view)


class TestPopulation:
    def test_population_size_and_names(self, fleet):
        agents = build_population(fleet, PopulationSpec(team_count=30), seed=1)
        assert len(agents) == 30
        assert len({a.name for a in agents}) == 30

    def test_strategy_mix_is_respected_roughly(self, fleet):
        spec = PopulationSpec(team_count=200, strategy_mix={"market_tracker": 1.0})
        agents = build_population(fleet, spec, seed=2)
        counts = strategy_counts(agents)
        assert counts == {"MarketTrackerStrategy": 200}

    def test_sellers_get_initial_holdings(self, fleet):
        spec = PopulationSpec(team_count=50, strategy_mix={"seller": 1.0})
        agents = build_population(fleet, spec, seed=3)
        assert all(agent.holdings for agent in agents)

    def test_homes_biased_towards_congested_clusters(self, fleet):
        spec = PopulationSpec(team_count=400, congested_home_bias=1.0)
        agents = build_population(fleet, spec, seed=4)
        index = fleet.pool_index
        utils = np.array([index.pool(f"{a.demand.home_cluster}/cpu").utilization for a in agents])
        fleet_mean = np.mean([index.pool(f"{c}/cpu").utilization for c in fleet.cluster_names()])
        assert utils.mean() > fleet_mean

    def test_deterministic_given_seed(self, fleet):
        a = build_population(fleet, PopulationSpec(team_count=10), seed=9)
        b = build_population(fleet, PopulationSpec(team_count=10), seed=9)
        assert [x.demand.home_cluster for x in a] == [x.demand.home_cluster for x in b]
        assert [type(x.strategy).__name__ for x in a] == [type(x.strategy).__name__ for x in b]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PopulationSpec(team_count=0)
        with pytest.raises(ValueError):
            PopulationSpec(strategy_mix={})
        with pytest.raises(ValueError):
            PopulationSpec(strategy_mix={"market_tracker": -1.0})
        with pytest.raises(ValueError):
            PopulationSpec(budget_per_team=-1.0)
        for bias in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="congested_home_bias must be finite"):
                PopulationSpec(congested_home_bias=bias)
        for mix in ({"seller": float("nan")}, {"seller": float("inf"), "lowball": 1.0}):
            with pytest.raises(ValueError, match="strategy weights must be finite"):
                PopulationSpec(strategy_mix=mix)
        with pytest.raises(ValueError, match="strategy weights must sum to a finite positive value"):
            PopulationSpec(strategy_mix={"seller": 1e308, "lowball": 1e308})
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="demand_scale must be finite"):
                PopulationSpec(demand_scale=value)
            with pytest.raises(ValueError, match="budget_per_team must be finite"):
                PopulationSpec(budget_per_team=value)

    def test_negative_bias_stays_valid(self, fleet):
        agents = build_population(fleet, PopulationSpec(team_count=20, congested_home_bias=-2.0), seed=5)
        assert len(agents) == 20

    def test_negative_demand_scale_stays_valid(self, fleet):
        agents = build_population(fleet, PopulationSpec(team_count=20, demand_scale=-0.5), seed=5)
        assert len(agents) == 20
        assert {r.quantity for agent in agents for r in agent.demand.requests} == {1.0}

    @pytest.mark.parametrize(
        "bias, utils",
        [
            # One cluster below 1/3 CPU utilization: its weight 1.5u - 0.5 is negative.
            (1.5, None),
            # Every weight 1.0 * 0 + 0: nothing to normalise by.
            (1.0, [0.0, 0.0, 0.0, 0.0]),
            # Every weight negative: dividing by their sum would invert the bias.
            (1.5, [0.3, 0.2, 0.1, 0.0]),
        ],
        ids=["one-negative-weight", "all-loads-zero", "all-weights-negative"],
    )
    def test_bad_home_weights_rejected_before_any_draw(self, fleet, bias, utils):
        if utils is None:
            assert min(p.utilization for p in fleet.pool_index if p.name.endswith("/cpu")) < 1 / 3
        else:
            index = fleet.pool_index.with_utilizations(
                {f"{c}/cpu": u for c, u in zip(fleet.cluster_names(), utils)}
            )
            fleet = dataclasses.replace(fleet, pool_index=index)
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="congested_home_bias"):
                build_population(fleet, PopulationSpec(congested_home_bias=bias), seed=rng)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

    def test_unknown_strategy_kind_rejected(self, fleet):
        with pytest.raises(KeyError):
            build_population(fleet, PopulationSpec(team_count=5, strategy_mix={"mystery": 1.0}), seed=0)
