"""Unit tests for Cluster and FleetTopology."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.resources import RESOURCE_TYPES, ResourceType, ResourceVector, cpu_ram_disk
from repro.cluster.topology import FleetTopology, Site


class TestCluster:
    def test_homogeneous_builder(self):
        cluster = Cluster.homogeneous("c0", machine_count=5, machine_capacity=cpu_ram_disk(10, 40, 100))
        assert cluster.machine_count == 5
        assert cluster.machine_capacity == cpu_ram_disk(10, 40, 100)
        assert cluster.capacity == cpu_ram_disk(50, 200, 500)

    def test_homogeneous_rejects_negative_count(self):
        with pytest.raises(ValueError):
            Cluster.homogeneous("c0", machine_count=-1)

    def test_negative_machine_shape_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Cluster.homogeneous("c0", machine_count=1, machine_capacity=cpu_ram_disk(-1, 0, 0))

    def test_load_sets_utilization(self):
        cluster = Cluster.homogeneous("c0", machine_count=2, machine_capacity=cpu_ram_disk(10, 10, 10))
        cluster.set_load({ResourceType.CPU: 0.5})
        assert cluster.utilization(ResourceType.CPU) == pytest.approx(0.5)
        assert cluster.utilization(ResourceType.RAM) == 0.0

    def test_load_is_clamped_to_unit_interval(self):
        cluster = Cluster.homogeneous("c0", machine_count=1)
        cluster.set_load({ResourceType.CPU: 1.5, ResourceType.RAM: -0.2})
        assert cluster.load[ResourceType.CPU] == 1.0
        assert cluster.load[ResourceType.RAM] == 0.0

    def test_utilization_capped_at_one(self):
        cluster = Cluster.homogeneous("c0", machine_count=1, machine_capacity=cpu_ram_disk(10, 10, 10))
        cluster.set_load({ResourceType.CPU: 2.0})
        assert cluster.utilization(ResourceType.CPU) == 1.0

    def test_empty_cluster_utilization_is_zero(self):
        cluster = Cluster(name="empty")
        cluster.set_load({ResourceType.CPU: 0.5})
        assert cluster.utilization(ResourceType.CPU) == 0.0
        assert cluster.capacity.is_zero()


def machine_fold(machine_count: int, shape: ResourceVector) -> ResourceVector:
    """Capacity as the per-machine model summed it: one machine at a time from 0.0."""
    cpu = ram = disk = 0.0
    for _ in range(machine_count):
        cpu += shape.cpu
        ram += shape.ram
        disk += shape.disk
    return ResourceVector(cpu=cpu, ram=ram, disk=disk)


def reference_utilization(capacity: float, load: float) -> float:
    """Utilization as the per-machine model computed it: placed usage 0.0 plus the load."""
    if capacity <= 0.0:
        return 0.0
    return min(1.0, max(0.0, (0.0 + capacity * load) / capacity))


shape_components = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
machine_shapes = st.builds(cpu_ram_disk, shape_components, shape_components, shape_components)


class TestClusterMatchesThePerMachineModel:
    """Capacities and utilizations keep the bits the per-machine model gave them."""

    @settings(max_examples=200, deadline=None)
    @given(machine_count=st.integers(min_value=0, max_value=500), shape=machine_shapes)
    @example(machine_count=7, shape=cpu_ram_disk(0.1, 0.7, 1e-3))
    def test_capacity_is_the_machine_by_machine_fold(self, machine_count, shape):
        cluster = Cluster.homogeneous("c0", machine_count=machine_count, machine_capacity=shape)
        reference = machine_fold(machine_count, shape)
        for rtype in RESOURCE_TYPES:
            assert cluster.capacity.get(rtype).hex() == reference.get(rtype).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        machine_count=st.integers(min_value=0, max_value=500),
        shape=machine_shapes,
        loads=st.tuples(*[st.floats(min_value=-0.5, max_value=1.5, allow_nan=False)] * 3),
    )
    @example(machine_count=0, shape=cpu_ram_disk(8, 32, 100), loads=(0.5, 0.5, 0.5))
    @example(machine_count=3, shape=cpu_ram_disk(0.0, 32, 100), loads=(0.5, 1.5, -0.5))
    def test_utilization_is_used_over_capacity(self, machine_count, shape, loads):
        cluster = Cluster.homogeneous("c0", machine_count=machine_count, machine_capacity=shape)
        cluster.set_load(dict(zip(RESOURCE_TYPES, loads)))
        capacity = machine_fold(machine_count, shape)
        for rtype, load in zip(RESOURCE_TYPES, loads):
            expected = reference_utilization(capacity.get(rtype), min(1.0, max(0.0, load)))
            assert cluster.utilization(rtype).hex() == expected.hex()
            if capacity.get(rtype) == 0.0:
                assert cluster.utilization(rtype).hex() == (0.0).hex()


class TestFleetTopology:
    def build(self) -> FleetTopology:
        topo = FleetTopology()
        topo.add_site(Site(name="us-east", coordinates=(0.0, 0.0)))
        topo.add_site(Site(name="eu-west", coordinates=(3.0, 4.0)))
        topo.add_cluster(Cluster.homogeneous("c-us", machine_count=1, site="us-east"))
        topo.add_cluster(Cluster.homogeneous("c-eu", machine_count=1, site="eu-west"))
        return topo

    def test_add_cluster_requires_known_site(self):
        topo = FleetTopology()
        with pytest.raises(KeyError):
            topo.add_cluster(Cluster.homogeneous("c0", machine_count=1, site="nowhere"))

    def test_duplicate_cluster_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.add_cluster(Cluster.homogeneous("c-us", machine_count=1, site="us-east"))

    def test_duplicate_site_with_different_attributes_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.add_site(Site(name="us-east", coordinates=(9.0, 9.0)))

    def test_site_distance_is_euclidean(self):
        topo = self.build()
        assert topo.site_distance("us-east", "eu-west") == pytest.approx(5.0)

    def test_cluster_distance_same_site_is_zero(self):
        topo = self.build()
        topo.add_cluster(Cluster.homogeneous("c-us-2", machine_count=1, site="us-east"))
        assert topo.cluster_distance("c-us", "c-us-2") == 0.0
        assert topo.cluster_distance("c-us", "c-eu") == pytest.approx(5.0)

    def test_iteration_and_len(self):
        topo = self.build()
        assert len(topo) == 2
        assert {c.name for c in topo} == {"c-us", "c-eu"}
