"""Tests for the allocation-mechanism layer: registry, baselines, dispatch."""

import numpy as np
import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.mechanisms import (
    BASELINE_MECHANISMS,
    DEFAULT_MECHANISM,
    BaselineEconomySimulation,
    BaselineMechanism,
    MarketMechanism,
    baseline_mechanism_names,
    get_mechanism,
    mechanism_names,
    register_mechanism,
    resolve_mechanisms,
    zero_migration_summary,
)
from repro.results.metrics import METRICS, run_metrics
from repro.simulation.catalog import ScenarioSpec
from repro.simulation.runner import run_scenario
from repro.simulation.scenario import ScenarioConfig
from repro.simulation.workload import priorities_from_agents


def tiny_spec(mechanism: str = "market", seed: int = 0, auctions: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        description="tiny mechanism-test economy",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=3, sites=1, machines_range=(5, 12)),
            population=PopulationSpec(team_count=6, budget_per_team=100_000.0),
            seed=seed,
        ),
        auctions=auctions,
        mechanism=mechanism,
    )


class TestRegistry:
    def test_all_five_mechanisms_registered(self):
        assert mechanism_names() == [
            "market", "fixed-price", "lottery", "priority", "proportional",
        ]

    def test_default_leads_the_listing(self):
        assert mechanism_names()[0] == DEFAULT_MECHANISM == "market"
        assert baseline_mechanism_names() == [
            "fixed-price", "lottery", "priority", "proportional",
        ]

    def test_lookup_returns_named_mechanism(self):
        for name in mechanism_names():
            assert get_mechanism(name).name == name

    def test_unknown_mechanism_lists_available(self):
        with pytest.raises(KeyError, match="market"):
            get_mechanism("no-such-policy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mechanism(MarketMechanism())

    def test_every_mechanism_has_a_description(self):
        for name in mechanism_names():
            assert get_mechanism(name).description.strip()


class TestResolveMechanisms:
    def test_none_means_default(self):
        assert resolve_mechanisms(None) == ["market"]

    def test_all_expands_to_registry(self):
        assert resolve_mechanisms("all") == mechanism_names()

    def test_comma_list_preserves_order(self):
        assert resolve_mechanisms("priority,market") == ["priority", "market"]

    def test_unknown_name_raises_with_available(self):
        with pytest.raises(KeyError, match="fixed-price"):
            resolve_mechanisms("market,bogus")

    def test_empty_selector_rejected(self):
        with pytest.raises(ValueError):
            resolve_mechanisms(" , ")


class TestMarketMechanism:
    def test_run_matches_runner_dispatch(self):
        direct = MarketMechanism().run(tiny_spec())
        dispatched = run_scenario(tiny_spec())
        # wall_time_seconds is excluded from equality on purpose
        assert direct == dispatched
        assert dispatched.mechanism == "market"

    def test_market_result_has_allocation_trajectories(self):
        result = MarketMechanism().run(tiny_spec())
        assert len(result.shortage_cost) == 2
        assert len(result.surplus_cost) == 2
        assert len(result.satisfied_fraction) == 2


class TestBaselineMechanisms:
    @pytest.mark.parametrize("name", ["fixed-price", "priority", "proportional", "lottery"])
    def test_trajectories_have_one_entry_per_epoch(self, name):
        result = get_mechanism(name).run(tiny_spec(mechanism=name, auctions=3))
        assert result.mechanism == name
        assert result.auctions == 3
        for series in (
            result.median_premium,
            result.mean_premium,
            result.settled_fraction,
            result.clearing_rounds,
            result.mean_clearing_price,
            result.revenue,
            result.mean_utilization,
            result.utilization_spread,
            result.shortage_cost,
            result.surplus_cost,
            result.satisfied_fraction,
        ):
            assert len(series) == 3

    @pytest.mark.parametrize("name", ["fixed-price", "priority", "proportional", "lottery"])
    def test_no_price_discovery(self, name):
        result = get_mechanism(name).run(tiny_spec(mechanism=name))
        assert result.clearing_rounds == [0, 0]
        assert result.median_premium == [1.0, 1.0]
        assert result.migration == zero_migration_summary()

    @pytest.mark.parametrize("name", ["fixed-price", "priority", "proportional", "lottery"])
    def test_deterministic_under_fixed_seed(self, name):
        spec = tiny_spec(mechanism=name, seed=7)
        assert get_mechanism(name).run(spec) == get_mechanism(name).run(spec)

    def test_different_seeds_differ(self):
        a = get_mechanism("fixed-price").run(tiny_spec("fixed-price", seed=1))
        b = get_mechanism("fixed-price").run(tiny_spec("fixed-price", seed=2))
        assert a != b

    def test_every_metric_extractable_from_baseline_runs(self):
        for name in baseline_mechanism_names():
            metrics = run_metrics(get_mechanism(name).run(tiny_spec(mechanism=name)))
            assert sorted(metrics) == sorted(METRICS)
            assert all(np.isfinite(v) for v in metrics.values())

    def test_grants_are_sticky_and_revenue_decays(self):
        """Epoch 1 harvests the big one-shot grant; later epochs only grant
        residual demand against drift-freed capacity."""
        result = get_mechanism("fixed-price").run(tiny_spec("fixed-price", auctions=3))
        assert result.revenue[0] > result.revenue[1]
        assert result.revenue[0] > result.revenue[2]

    def test_allocator_registry_backs_the_mechanisms(self):
        assert sorted(m.name for m in BASELINE_MECHANISMS) == baseline_mechanism_names()
        assert all(get_mechanism(m.name) is m for m in BASELINE_MECHANISMS)


class TestBaselineEconomySimulation:
    def build(self, seed=0):
        scenario = tiny_spec(seed=seed).build()
        return scenario, BaselineEconomySimulation(
            scenario, get_mechanism("fixed-price"), drift_scale=0.01
        )

    def test_run_records_one_period_per_epoch(self):
        _, sim = self.build()
        assert [p.epoch for p in sim.run(3)] == [1, 2, 3]

    def test_budgets_cap_requests_at_fixed_prices(self):
        scenario, sim = self.build()
        # Zero everyone's budget: nothing can be bought at the posted prices.
        sim._budgets[:] = 0.0
        period = sim.run_one_epoch()
        assert period.revenue == 0.0
        assert period.grant_count == 0

    def test_negative_drift_scale_rejected(self):
        scenario = tiny_spec().build()
        with pytest.raises(ValueError):
            BaselineEconomySimulation(scenario, get_mechanism("priority"), drift_scale=-1)

    def test_utilization_evolves_between_epochs(self):
        _, sim = self.build()
        first, second = sim.run(2)
        assert not np.allclose(first.utilization_after, second.utilization_after)

    @pytest.mark.parametrize("mechanism", BASELINE_MECHANISMS, ids=lambda m: m.name)
    def test_only_the_lottery_draws_from_the_scenario_rng(self, mechanism):
        reference = tiny_spec().build()
        priorities_from_agents(reference.agents, seed=reference.rng)
        if mechanism.name == "lottery":
            reference.rng.integers(2**63)  # the lottery's own stream
        scenario = tiny_spec().build()
        BaselineEconomySimulation(scenario, mechanism)
        assert scenario.rng.random() == reference.rng.random()


class TestBaselineMechanismClass:
    def test_engine_and_seed_provenance_come_from_the_spec(self):
        spec = tiny_spec("priority", seed=11)
        result = BaselineMechanism("priority", "test", get_mechanism("priority").grants).run(spec)
        assert result.seed == 11
        assert result.engine == spec.config.auction_engine
        assert result.teams == 6
        assert result.pools == 9
