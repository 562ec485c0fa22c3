"""Unit tests for resource types and resource vectors."""

from repro.cluster.resources import (
    DEFAULT_UNIT_COSTS,
    RESOURCE_TYPES,
    ResourceType,
    ResourceVector,
    cpu_ram_disk,
)


class TestResourceType:
    def test_canonical_ordering_has_three_dimensions(self):
        assert RESOURCE_TYPES == (ResourceType.CPU, ResourceType.RAM, ResourceType.DISK)

    def test_constructible_from_string_value(self):
        assert ResourceType("cpu") is ResourceType.CPU
        assert ResourceType("disk") is ResourceType.DISK

    def test_default_unit_costs_cover_all_types(self):
        assert set(DEFAULT_UNIT_COSTS) == set(RESOURCE_TYPES)

    def test_disk_is_much_cheaper_than_cpu(self):
        # The increment-normalization discussion in the paper hinges on this.
        assert DEFAULT_UNIT_COSTS[ResourceType.DISK] < DEFAULT_UNIT_COSTS[ResourceType.CPU] / 10


class TestResourceVectorConstruction:
    def test_zero_vector(self):
        assert ResourceVector().is_zero()

    def test_cpu_ram_disk_helper(self):
        vec = cpu_ram_disk(1, 2, 3)
        assert (vec.cpu, vec.ram, vec.disk) == (1, 2, 3)

    def test_iteration_order_matches_canonical_order(self):
        assert list(cpu_ram_disk(1, 2, 3)) == [1, 2, 3]


class TestResourceVectorArithmetic:
    def test_addition(self):
        assert cpu_ram_disk(1, 2, 3) + cpu_ram_disk(4, 5, 6) == cpu_ram_disk(5, 7, 9)

    def test_subtraction(self):
        assert cpu_ram_disk(4, 5, 6) - cpu_ram_disk(1, 2, 3) == cpu_ram_disk(3, 3, 3)

    def test_scalar_multiplication_both_sides(self):
        assert cpu_ram_disk(1, 2, 3) * 2 == cpu_ram_disk(2, 4, 6)
        assert 3 * cpu_ram_disk(1, 2, 3) == cpu_ram_disk(3, 6, 9)

    def test_negation(self):
        assert -cpu_ram_disk(1, 2, 3) == cpu_ram_disk(-1, -2, -3)


class TestResourceVectorComparisons:
    def test_is_nonnegative(self):
        assert cpu_ram_disk(0, 1, 2).is_nonnegative()
        assert not cpu_ram_disk(-1, 1, 2).is_nonnegative()


class TestResourceVectorAggregates:
    def test_get_and_as_dict_round_trip(self):
        vec = cpu_ram_disk(1, 2, 3)
        assert vec.get(ResourceType.RAM) == 2
        assert vec.as_dict() == {
            ResourceType.CPU: 1,
            ResourceType.RAM: 2,
            ResourceType.DISK: 3,
        }
