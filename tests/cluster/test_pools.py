"""Unit tests for ResourcePool and PoolIndex."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.fleet_gen import FleetSpec, generate_fleet
from repro.cluster.pools import PoolIndex, ResourcePool, pools_from_topology
from repro.cluster.resources import ResourceType, cpu_ram_disk
from repro.cluster.topology import FleetTopology, Site
from tests.conftest import build_pool_index


def make_pool(cluster="c0", rtype=ResourceType.CPU, capacity=100.0, cost=10.0, util=0.5):
    return ResourcePool(cluster=cluster, rtype=rtype, capacity=capacity, unit_cost=cost, utilization=util)


class TestResourcePool:
    def test_name_combines_cluster_and_type(self):
        assert make_pool().name == "c0/cpu"

    def test_available_capacity(self):
        assert make_pool(capacity=100, util=0.25).available == pytest.approx(75.0)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ValueError):
            make_pool(util=1.5)
        with pytest.raises(ValueError):
            make_pool(util=-0.1)

    def test_negative_capacity_or_cost_rejected(self):
        with pytest.raises(ValueError):
            make_pool(capacity=-1)
        with pytest.raises(ValueError):
            make_pool(cost=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kwarg, field", [("capacity", "capacity"), ("cost", "unit_cost")])
    def test_non_finite_capacity_or_cost_rejected(self, kwarg, field, value):
        with pytest.raises(ValueError, match=rf"{field}.*{value}"):
            make_pool(**{kwarg: value})

    def test_with_utilization_clips_to_unit_interval(self):
        pool = make_pool(util=0.5)
        assert pool.with_utilization(1.7).utilization == 1.0
        assert pool.with_utilization(-0.2).utilization == 0.0
        assert pool.with_utilization(0.8).utilization == pytest.approx(0.8)


class TestPoolIndex:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PoolIndex([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            PoolIndex([make_pool(), make_pool()])

    def test_lookup_and_membership(self, pool_index):
        assert "alpha/cpu" in pool_index
        assert "gamma/cpu" not in pool_index
        assert pool_index.pool("alpha/cpu").rtype is ResourceType.CPU
        assert pool_index.index_of("alpha/cpu") == 0

    def test_names_follow_insertion_order(self, pool_index):
        assert pool_index.names[:3] == ["alpha/cpu", "alpha/ram", "alpha/disk"]

    def test_has_cluster(self, pool_index):
        assert pool_index.has_cluster("alpha") and pool_index.has_cluster("beta")
        assert not pool_index.has_cluster("gamma")
        assert not pool_index.has_cluster("alpha/cpu")

    def test_pools_of_cluster_and_type(self, pool_index):
        assert len(pool_index.pools_of_type(ResourceType.RAM)) == 2

    def test_clusters_in_first_appearance_order(self, pool_index):
        assert pool_index.clusters() == ["alpha", "beta"]

    def test_vector_views_have_matching_lengths(self, pool_index):
        n = len(pool_index)
        assert pool_index.capacities().shape == (n,)
        assert pool_index.unit_costs().shape == (n,)
        assert pool_index.utilizations().shape == (n,)
        assert pool_index.available().shape == (n,)

    def test_available_is_capacity_times_one_minus_util(self, pool_index):
        np.testing.assert_allclose(
            pool_index.available(),
            pool_index.capacities() * (1 - pool_index.utilizations()),
        )

    def test_vector_construction_and_describe_round_trip(self, pool_index):
        quantities = {"alpha/cpu": 10.0, "beta/disk": -5.0}
        vec = pool_index.vector(quantities)
        assert vec[pool_index.index_of("alpha/cpu")] == 10.0
        assert pool_index.describe(vec) == quantities

    def test_vector_unknown_pool_raises(self, pool_index):
        with pytest.raises(KeyError):
            pool_index.vector({"nope/cpu": 1.0})

    def test_describe_rejects_wrong_shape(self, pool_index):
        with pytest.raises(ValueError):
            pool_index.describe(np.zeros(3))

    def test_with_utilizations_mapping(self, pool_index):
        updated = pool_index.with_utilizations({"alpha/cpu": 0.1})
        assert updated.pool("alpha/cpu").utilization == pytest.approx(0.1)
        # untouched pools keep their utilization
        assert updated.pool("beta/cpu").utilization == pool_index.pool("beta/cpu").utilization

    def test_with_utilizations_unknown_pool_rejected(self, pool_index):
        with pytest.raises(KeyError, match="typo/cpu"):
            pool_index.with_utilizations({"alpha/cpu": 0.2, "typo/cpu": 0.9})

    def test_with_utilizations_array(self, pool_index):
        arr = np.full(len(pool_index), 0.42)
        updated = pool_index.with_utilizations(arr)
        assert np.allclose(updated.utilizations(), 0.42)

    def test_with_utilizations_wrong_length_rejected(self, pool_index):
        with pytest.raises(ValueError):
            pool_index.with_utilizations(np.zeros(2))


def describe_reference(index, vec, tol=1e-12):
    """Reference per-element loop that the vectorised ``PoolIndex.describe`` must match."""
    return {
        index.pools[i].name: float(vec[i])
        for i in range(len(index))
        if abs(vec[i]) > tol
    }


#: A module-level index, so hypothesis draws need no function-scoped fixture.
DESCRIBE_INDEX = build_pool_index({"alpha": 0.9, "beta": 0.3, "gamma": 0.5})


def edge_values(tol):
    """Values on and around the ``describe`` threshold, plus the non-finite ones."""
    above = float(np.nextafter(tol, np.inf))
    return [tol, -tol, above, -above, 0.0, -0.0, float("nan"), float("inf"), float("-inf")]


def edge_inputs(tol):
    """Every edge value at least once, cycled over the index."""
    n = len(DESCRIBE_INDEX)
    return np.array((edge_values(tol) * n)[:n]), tol


@st.composite
def describe_inputs(draw):
    tol = draw(st.sampled_from([1e-12, 0.0, 1.0]))
    values = st.one_of(st.sampled_from(edge_values(tol)), st.floats())
    n = len(DESCRIBE_INDEX)
    return np.array(draw(st.lists(values, min_size=n, max_size=n))), tol


class TestDerivedDataIsCallerOwned:
    """The index derives its names, clusters and vectors once and hands out copies."""

    def test_mutating_names_leaves_the_index_intact(self, pool_index):
        expected = list(pool_index.names)
        names = pool_index.names
        names[0] = "mutated"
        names.append("extra")
        assert pool_index.names == expected
        assert pool_index.index_of(expected[0]) == 0

    def test_mutating_clusters_leaves_the_index_intact(self, pool_index):
        clusters = pool_index.clusters()
        clusters.clear()
        assert pool_index.clusters() == ["alpha", "beta"]

    @pytest.mark.parametrize(
        "view, attr",
        [("capacities", "capacity"), ("unit_costs", "unit_cost"),
         ("utilizations", "utilization"), ("available", "available")],
    )
    def test_vector_views_are_caller_owned_copies(self, pool_index, view, attr):
        expected = [getattr(pool, attr) for pool in pool_index.pools]
        vec = getattr(pool_index, view)()
        assert vec.tolist() == expected
        vec[:] = -1.0
        assert getattr(pool_index, view)().tolist() == expected

    def test_clusters_follow_first_appearance_with_interleaved_pools(self):
        pools = [make_pool("b"), make_pool("a"), make_pool("b", rtype=ResourceType.RAM)]
        assert PoolIndex(pools).clusters() == ["b", "a"]

    @settings(max_examples=200, deadline=None)
    @given(inputs=describe_inputs())
    @example(inputs=edge_inputs(1e-12))
    @example(inputs=edge_inputs(0.0))
    @example(inputs=edge_inputs(0.5))
    def test_describe_matches_the_reference_loop(self, inputs):
        vec, tol = inputs
        got = DESCRIBE_INDEX.describe(vec, tol=tol)
        assert list(got.items()) == list(describe_reference(DESCRIBE_INDEX, vec, tol).items())
        assert all(type(value) is float for value in got.values())


def with_utilizations_reference(index, utilizations):
    """One ``ResourcePool.with_utilization`` per pool: the specification of ``with_utilizations``."""
    if isinstance(utilizations, np.ndarray):
        if utilizations.shape != (len(index),):
            raise ValueError("utilization vector has wrong length")
        values = {name: float(utilizations[i]) for i, name in enumerate(index.names)}
    else:
        values = dict(utilizations)
        known = set(index.names)
        unknown = sorted(set(values) - known)
        if unknown:
            raise KeyError(f"unknown pools {unknown}; known pools: {sorted(known)[:5]}...")
    return PoolIndex(
        [pool.with_utilization(values.get(pool.name, pool.utilization)) for pool in index.pools]
    )


def pool_bits(pool):
    return (pool.cluster, pool.rtype, pool.capacity, pool.unit_cost, float(pool.utilization).hex())


#: Odd capacities, so ``capacity * (1 - utilization)`` rounds.
FLEET_INDEX = generate_fleet(FleetSpec(cluster_count=6, machines_range=(3, 40)), seed=3).pool_index
UTILIZATION_EDGES = [
    -0.5, -0.0, 0.0, 5e-324, float(np.nextafter(0.0, -1.0)), 1.0,
    float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)), 1.5,
]
UTILIZATION = st.one_of(st.sampled_from(UTILIZATION_EDGES), st.floats(-0.5, 1.5))


class TestWithUtilizationsMatchesThePoolLoop:
    """One vector clip gives every pool and vector the bits of the per-pool loop."""

    def assert_same_index(self, parent, got, expected):
        assert [pool_bits(p) for p in got.pools] == [pool_bits(p) for p in expected.pools]
        for view in ("utilizations", "available", "capacities", "unit_costs"):
            assert getattr(got, view)().tobytes() == getattr(expected, view)().tobytes(), view
        assert got.capacities().tobytes() == parent.capacities().tobytes()
        assert got.unit_costs().tobytes() == parent.unit_costs().tobytes()
        assert got.names == parent.names == expected.names
        assert got.clusters() == parent.clusters()
        assert [got.index_of(name) for name in parent.names] == list(range(len(parent)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), index=st.sampled_from([DESCRIBE_INDEX, FLEET_INDEX]))
    def test_vector(self, data, index):
        values = np.array(data.draw(st.lists(UTILIZATION, min_size=len(index), max_size=len(index))))
        got = index.with_utilizations(values)
        self.assert_same_index(index, got, with_utilizations_reference(index, values))
        # Derived again, from a derived index.
        again = got.with_utilizations(values[::-1].copy())
        self.assert_same_index(index, again, with_utilizations_reference(got, values[::-1].copy()))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), index=st.sampled_from([DESCRIBE_INDEX, FLEET_INDEX]))
    def test_mapping(self, data, index):
        mapping = data.draw(st.dictionaries(st.sampled_from(index.names), UTILIZATION))
        got = index.with_utilizations(mapping)
        self.assert_same_index(index, got, with_utilizations_reference(index, mapping))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0.5, np.nan] + [0.5] * (len(DESCRIBE_INDEX) - 2)),
            {"beta/ram": float("nan")},
            np.zeros(len(DESCRIBE_INDEX) - 1),
            np.zeros((1, len(DESCRIBE_INDEX))),
            {"alpha/cpu": 0.2, "typo/cpu": 0.9, "a-typo/ram": 0.1},
        ],
        ids=["nan-vector", "nan-mapping", "short-vector", "2d-vector", "unknown-names"],
    )
    def test_bad_input_raises_as_the_loop_did(self, bad):
        with pytest.raises((ValueError, KeyError)) as expected:
            with_utilizations_reference(DESCRIBE_INDEX, bad)
        with pytest.raises(expected.type, match=None) as got:
            DESCRIBE_INDEX.with_utilizations(bad)
        assert str(got.value) == str(expected.value)

    def test_pool_objects_are_built_on_first_read(self, monkeypatch):
        built = []
        post_init = ResourcePool.__post_init__
        monkeypatch.setattr(
            ResourcePool, "__post_init__", lambda pool: (built.append(pool), post_init(pool))
        )
        derived = FLEET_INDEX.with_utilizations(np.full(len(FLEET_INDEX), 0.5))
        derived = derived.with_utilizations({"cluster-00/cpu": 0.25})
        assert len(derived) == len(FLEET_INDEX) and derived.utilizations()[0] == 0.25
        assert derived.rtypes() == [pool.rtype for pool in FLEET_INDEX.pools]
        assert built == []
        assert derived.pool("cluster-00/cpu").utilization == 0.25
        assert len(built) == len(FLEET_INDEX)
        assert list(derived) == list(derived.pools) and len(built) == len(FLEET_INDEX)

    def test_shared_vectors_are_read_only(self):
        derived = DESCRIBE_INDEX.with_utilizations(np.full(len(DESCRIBE_INDEX), 0.5))
        assert derived._capacities is DESCRIBE_INDEX._capacities
        with pytest.raises(ValueError):
            derived._capacities[0] = 0.0
        derived.capacities()[0] = 0.0  # a caller's copy is its own
        assert derived.capacities()[0] == DESCRIBE_INDEX.capacities()[0]


class TestPoolsFromTopology:
    def test_builds_three_pools_per_cluster(self):
        clusters = [
            Cluster.homogeneous("c0", machine_count=2, machine_capacity=cpu_ram_disk(10, 40, 100)),
            Cluster.homogeneous("c1", machine_count=1, machine_capacity=cpu_ram_disk(10, 40, 100)),
        ]
        topo = FleetTopology()
        topo.add_site(Site(name="site-0"))
        for cluster in clusters:
            topo.add_cluster(cluster)
        index = pools_from_topology(topo)
        assert len(index) == 6
        assert index.pool("c0/cpu").capacity == pytest.approx(20.0)
        assert index.pool("c1/ram").capacity == pytest.approx(40.0)

    def test_custom_unit_costs(self):
        clusters = [Cluster.homogeneous("c0", machine_count=1)]
        index = pools_from_topology(clusters, unit_costs={ResourceType.CPU: 99.0, ResourceType.RAM: 1.0, ResourceType.DISK: 0.5})
        assert index.pool("c0/cpu").unit_cost == 99.0

    def test_utilization_read_from_cluster_state(self):
        cluster = Cluster.homogeneous("c0", machine_count=1, machine_capacity=cpu_ram_disk(10, 10, 10))
        cluster.set_load({ResourceType.CPU: 0.6})
        index = pools_from_topology([cluster])
        assert index.pool("c0/cpu").utilization == pytest.approx(0.6)
        assert index.pool("c0/ram").utilization == pytest.approx(0.0)
