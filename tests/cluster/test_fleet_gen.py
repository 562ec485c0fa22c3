"""Unit tests for synthetic fleet generation."""

import numpy as np
import pytest

from repro.cluster.fleet_gen import FleetSpec, generate_fleet, small_fleet, utilization_targets
from repro.cluster.resources import ResourceType


class TestFleetSpec:
    def test_defaults_match_paper_scale(self):
        spec = FleetSpec()
        assert spec.cluster_count == 34  # Figure 6 shows 34 clusters

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            FleetSpec(cluster_count=0)

    def test_invalid_utilization_range(self):
        with pytest.raises(ValueError):
            FleetSpec(utilization_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            FleetSpec(utilization_range=(-0.1, 0.5))


class TestGenerateFleet:
    def test_cluster_and_pool_counts(self):
        fleet = small_fleet(5, seed=0)
        assert len(fleet.clusters) == 5
        assert len(fleet.pool_index) == 15  # 3 pools per cluster

    def test_deterministic_given_seed(self):
        a = generate_fleet(FleetSpec(cluster_count=6, machines_range=(5, 10)), seed=42)
        b = generate_fleet(FleetSpec(cluster_count=6, machines_range=(5, 10)), seed=42)
        np.testing.assert_allclose(a.pool_index.capacities(), b.pool_index.capacities())
        np.testing.assert_allclose(a.pool_index.utilizations(), b.pool_index.utilizations())

    def test_different_seeds_differ(self):
        a = small_fleet(5, seed=1)
        b = small_fleet(5, seed=2)
        assert not np.allclose(a.pool_index.capacities(), b.pool_index.capacities())

    def test_utilizations_respect_clipping_bounds(self, medium_fleet):
        utils = medium_fleet.pool_index.utilizations()
        assert np.all(utils >= 0.02 - 1e-9)
        assert np.all(utils <= 0.99 + 1e-9)

    def test_fleet_has_both_congested_and_idle_pools(self):
        fleet = generate_fleet(FleetSpec(cluster_count=20, machines_range=(5, 10)), seed=3)
        assert fleet.congested_pools(0.8)
        assert fleet.idle_pools(0.4)

    def test_fixed_prices_equal_unit_costs(self, tiny_fleet):
        for pool in tiny_fleet.pool_index:
            assert tiny_fleet.fixed_prices[pool.name] == pytest.approx(pool.unit_cost)

    def test_sites_assigned_round_robin(self):
        fleet = generate_fleet(FleetSpec(cluster_count=6, sites=3, machines_range=(5, 10)), seed=0)
        sites = {cluster.site for cluster in fleet.clusters}
        assert len(sites) == 3

    def test_utilization_targets_helper(self, tiny_fleet):
        targets = utilization_targets(tiny_fleet)
        assert set(targets) == set(tiny_fleet.pool_index.names)

    def test_cluster_names_are_unique_and_ordered(self, medium_fleet):
        names = medium_fleet.cluster_names()
        assert len(names) == len(set(names)) == 10

    def test_machine_shapes_within_spec(self):
        spec = FleetSpec(cluster_count=4, machines_range=(5, 10), machine_cpu=(8.0, 16.0))
        fleet = generate_fleet(spec, seed=5)
        for cluster in fleet.clusters:
            assert 8.0 <= cluster.machine_capacity.cpu <= 16.0
            assert 5 <= cluster.machine_count <= 10

    def test_generator_accepts_generator_instance(self):
        rng = np.random.default_rng(9)
        fleet = generate_fleet(FleetSpec(cluster_count=3, machines_range=(5, 6)), seed=rng)
        assert len(fleet.clusters) == 3
