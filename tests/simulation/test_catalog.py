"""Tests for the scenario catalog: registry integrity, presets, overrides."""

import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.simulation.catalog import (
    SCENARIOS,
    ScenarioSpec,
    default_sweep_names,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.simulation.scenario import ScenarioConfig


def tiny_config(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        fleet=FleetSpec(cluster_count=2, sites=1, machines_range=(5, 10)),
        population=PopulationSpec(team_count=4),
        seed=seed,
    )


class TestRegistry:
    def test_issue_presets_are_registered(self):
        expected = {
            "paper-reference",
            "congested-fleet",
            "trader-heavy",
            "flash-crowd",
            "idle-fleet-migration",
            "10k-bidder-stress",
            "smoke",
        }
        assert expected <= set(scenario_names())

    def test_default_sweep_excludes_stress_and_has_six(self):
        names = default_sweep_names()
        assert len(names) >= 6
        assert "10k-bidder-stress" not in names
        assert all("stress" not in SCENARIOS[n].tags for n in names)

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="paper-reference"):
            get_scenario("no-such-economy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(
                ScenarioSpec(name="smoke", description="dup", config=tiny_config())
            )

    def test_registered_specs_are_well_formed(self):
        # Every preset must carry a description and a valid kebab-case name.
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert spec.description
            assert spec.auctions >= 1


class TestScenarioSpec:
    def test_paper_reference_matches_paper_dimensions(self):
        spec = get_scenario("paper-reference")
        # "around 100 bidders and 100 system-level resources" (Section III-C-4)
        assert spec.config.population.team_count == 100
        assert spec.config.fleet.cluster_count * 3 == 102  # pools = clusters x dims
        assert spec.auctions == 6

    def test_stress_scenario_uses_incremental_engine(self):
        spec = get_scenario("10k-bidder-stress")
        # A retired label, kept because bench/pins.json hashes this preset's
        # report; build_scenario runs it on the batch engine.
        assert spec.config.auction_engine == "incremental"
        assert spec.config.population.team_count == 10_000
        assert "stress" in spec.tags

    def test_validation(self):
        with pytest.raises(ValueError, match="kebab-case"):
            ScenarioSpec(name="Bad Name", description="x", config=tiny_config())
        with pytest.raises(ValueError, match="description"):
            ScenarioSpec(name="ok", description="  ", config=tiny_config())
        with pytest.raises(ValueError, match="auctions"):
            ScenarioSpec(name="ok", description="x", config=tiny_config(), auctions=0)
        with pytest.raises(ValueError, match="drift_scale"):
            ScenarioSpec(name="ok", description="x", config=tiny_config(), drift_scale=-1)

    def test_with_overrides_replaces_only_requested_knobs(self):
        spec = get_scenario("smoke")
        out = spec.with_overrides(auctions=1, seed=7, engine="scalar")
        assert (out.auctions, out.config.seed, out.config.auction_engine) == (1, 7, "scalar")
        # untouched knobs survive
        assert out.config.fleet == spec.config.fleet
        assert out.drift_scale == spec.drift_scale
        # original is unchanged (frozen dataclass semantics)
        assert spec.config.seed == 2009

    def test_build_materialises_the_declared_scale(self):
        scenario = get_scenario("smoke").build()
        assert len(scenario.fleet.clusters) == 8
        assert len(scenario.agents) == 24

    def test_summary_is_json_friendly(self):
        import json

        summary = get_scenario("paper-reference").summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["teams"] == 100


class TestMechanismField:
    def test_default_mechanism_is_market(self):
        assert get_scenario("paper-reference").mechanism == "market"

    def test_with_overrides_replaces_mechanism(self):
        spec = get_scenario("smoke")
        out = spec.with_overrides(mechanism="fixed-price")
        assert out.mechanism == "fixed-price"
        assert spec.mechanism == "market"  # original untouched
        # other knobs survive the mechanism override
        assert out.config == spec.config and out.auctions == spec.auctions

    def test_invalid_mechanism_name_rejected(self):
        with pytest.raises(ValueError, match="mechanism"):
            ScenarioSpec(
                name="ok", description="x", config=tiny_config(), mechanism="Not Kebab"
            )

    def test_summary_carries_the_mechanism(self):
        spec = get_scenario("smoke").with_overrides(mechanism="proportional")
        assert spec.summary()["mechanism"] == "proportional"

    def test_baseline_cost_estimate_is_discounted(self):
        spec = get_scenario("paper-reference")
        market_cost = spec.cost_estimate()
        baseline_cost = spec.with_overrides(mechanism="priority").cost_estimate()
        assert baseline_cost == pytest.approx(market_cost * ScenarioSpec.BASELINE_COST_FACTOR)
