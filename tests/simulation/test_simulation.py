"""Unit and integration tests for the workload helpers, scenario, and economy."""

import dataclasses

import numpy as np
import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.simulation.catalog import get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.scenario import ScenarioConfig, build_scenario, small_scenario
from repro.simulation.workload import (
    apply_settlement_to_utilization,
    demands_from_agents,
    organic_drift,
    priorities_from_agents,
)


class TestWorkloadHelpers:
    def test_demands_from_agents(self):
        scenario = small_scenario(seed=1, team_count=10, cluster_count=4)
        demands = demands_from_agents(scenario.agents, scenario.pool_index)
        assert set(demands) <= {a.name for a in scenario.agents}
        assert all(all(q > 0 for q in bundle.values()) for bundle in demands.values())

    def test_priorities_are_in_range_and_deterministic(self):
        scenario = small_scenario(seed=1, team_count=20, cluster_count=4)
        a = priorities_from_agents(scenario.agents, seed=3)
        b = priorities_from_agents(scenario.agents, seed=3)
        assert a == b
        assert set(a.values()) <= {0, 1, 2}

    def test_organic_drift_stays_in_bounds(self, pool_index, rng):
        drifted = organic_drift(pool_index, rng=rng, drift_scale=0.5)
        utils = drifted.utilizations()
        assert np.all(utils >= 0.02) and np.all(utils <= 0.99)
        assert drifted.names == pool_index.names

    def test_organic_drift_zero_scale_is_identity(self, pool_index, rng):
        drifted = organic_drift(pool_index, rng=rng, drift_scale=0.0)
        np.testing.assert_allclose(drifted.utilizations(), pool_index.utilizations())

    def test_apply_settlement_to_utilization(self, pool_index):
        net = np.zeros(len(pool_index))
        net[pool_index.index_of("beta/cpu")] = pool_index.pool("beta/cpu").capacity * 0.1
        net[pool_index.index_of("alpha/cpu")] = -pool_index.pool("alpha/cpu").capacity * 0.1
        updated = apply_settlement_to_utilization(pool_index, net, move_out_fraction=1.0)
        assert updated.pool("beta/cpu").utilization == pytest.approx(0.4)
        assert updated.pool("alpha/cpu").utilization == pytest.approx(0.8)

    def test_move_out_fraction_limits_freed_load(self, pool_index):
        net = np.zeros(len(pool_index))
        net[pool_index.index_of("alpha/cpu")] = -pool_index.pool("alpha/cpu").capacity * 0.2
        updated = apply_settlement_to_utilization(pool_index, net, move_out_fraction=0.5)
        assert updated.pool("alpha/cpu").utilization == pytest.approx(0.8)
        with pytest.raises(ValueError):
            apply_settlement_to_utilization(pool_index, net, move_out_fraction=2.0)


class TestScenario:
    def test_build_scenario_registers_all_teams(self):
        scenario = small_scenario(seed=2, team_count=12, cluster_count=4)
        assert len(scenario.agents) == 12
        for agent in scenario.agents:
            assert scenario.platform.ledger.has_account(agent.name)
            assert scenario.platform.ledger.balance(agent.name) > 0

    def test_scenario_is_deterministic(self):
        a = small_scenario(seed=5)
        b = small_scenario(seed=5)
        np.testing.assert_allclose(a.pool_index.utilizations(), b.pool_index.utilizations())
        assert [x.name for x in a.agents] == [x.name for x in b.agents]

    def test_config_knobs_flow_through(self):
        config = ScenarioConfig(
            fleet=FleetSpec(cluster_count=5, machines_range=(5, 10)),
            population=PopulationSpec(team_count=7),
            operator_supply_fraction=0.5,
            seed=3,
        )
        scenario = build_scenario(config)
        assert len(scenario.fleet.clusters) == 5
        assert len(scenario.agents) == 7
        assert scenario.platform._operator_supply_fraction == 0.5


class TestEconomySimulation:
    @pytest.fixture(scope="class")
    def history(self):
        scenario = small_scenario(seed=4, team_count=25, cluster_count=8)
        sim = MarketEconomySimulation(scenario)
        return sim.run(3), scenario

    def test_runs_requested_number_of_auctions(self, history):
        hist, _ = history
        assert len(hist) == 3
        assert [p.auction_number for p in hist.periods] == [1, 2, 3]

    def test_every_auction_converges_and_verifies(self, history):
        hist, _ = history
        for period in hist.periods:
            assert period.record.result.outcome.converged
            assert period.record.result.constraints.satisfied, period.record.result.constraints.violations

    def test_premium_rows_and_series(self, history):
        hist, _ = history
        rows = hist.premium_rows()
        assert len(rows) == 3
        assert hist.median_premium_series() == [r.median_premium for r in rows]
        assert len(hist.utilization_spread_series()) == 3

    def test_agents_receive_feedback(self, history):
        hist, scenario = history
        assert any(agent.settlement_history for agent in scenario.agents)

    def test_platform_history_matches_periods(self, history):
        hist, scenario = history
        assert len(scenario.platform.history) == 3
        assert scenario.platform.history[0].auction_id == 1

    def test_utilization_evolves_between_auctions(self, history):
        hist, _ = history
        assert not np.allclose(hist.periods[0].utilization_before, hist.periods[-1].utilization_after)

    def test_trades_pooled_across_auctions(self, history):
        hist, _ = history
        assert len(hist.all_trades()) >= sum(len(p.trades) for p in hist.periods[:1])

    def test_from_spec_applies_the_run_knobs(self):
        spec = get_scenario("smoke").with_overrides(auctions=2, drift_scale=0.03)
        spec = dataclasses.replace(spec, preliminary_runs=1)
        sim = MarketEconomySimulation.from_spec(spec.build(), spec)
        assert (sim.drift_scale, sim.preliminary_runs) == (0.03, 1)
        assert len(sim.run(spec.auctions)) == 2

    def test_invalid_parameters(self):
        scenario = small_scenario(seed=7, team_count=5, cluster_count=4)
        with pytest.raises(ValueError):
            MarketEconomySimulation(scenario, preliminary_runs=-1)
        with pytest.raises(ValueError):
            MarketEconomySimulation(scenario).run(-1)

    def test_run_drifts_before_each_auction(self, monkeypatch):
        import repro.simulation.economy as economy

        calls = []
        sim = MarketEconomySimulation(small_scenario(seed=7, team_count=5, cluster_count=4))
        drift = economy.organic_drift

        def recording_drift(*args, **kwargs):
            calls.append("drift")
            return drift(*args, **kwargs)

        monkeypatch.setattr(economy, "organic_drift", recording_drift)
        monkeypatch.setattr(sim, "run_one_auction", lambda: calls.append("auction"))
        sim.run(2)
        assert calls == ["drift", "auction", "drift", "auction"]

    def test_preliminary_runs_supported(self):
        scenario = small_scenario(seed=8, team_count=10, cluster_count=4)
        sim = MarketEconomySimulation(scenario, preliminary_runs=1)
        period = sim.run_one_auction()
        assert period.record.result.outcome.converged
