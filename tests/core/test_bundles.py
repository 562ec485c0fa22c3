"""Unit tests for bundles and XOR bundle sets."""

import numpy as np
import pytest

from repro.core.bundles import Bundle, BundleKind, BundleSet, bundle_kind


class TestBundleKind:
    def test_classification(self):
        assert bundle_kind(np.array([0.0, 0.0])) is BundleKind.EMPTY
        assert bundle_kind(np.array([1.0, 0.0])) is BundleKind.BUY
        assert bundle_kind(np.array([-1.0, 0.0])) is BundleKind.SELL
        assert bundle_kind(np.array([1.0, -1.0])) is BundleKind.TRADE

    def test_tolerance(self):
        assert bundle_kind(np.array([1e-15, -1e-15])) is BundleKind.EMPTY


class TestBundle:
    def test_from_mapping_and_describe_round_trip(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 10, "alpha/ram": 40})
        assert bundle.describe() == {"alpha/cpu": 10.0, "alpha/ram": 40.0}

    def test_empty_constructor(self, pool_index):
        assert Bundle.empty(pool_index).kind is BundleKind.EMPTY

    def test_wrong_length_rejected(self, pool_index):
        with pytest.raises(ValueError):
            Bundle(index=pool_index, quantities=np.zeros(2))

    def test_non_finite_rejected(self, pool_index):
        vec = np.zeros(len(pool_index))
        vec[0] = np.nan
        with pytest.raises(ValueError):
            Bundle(index=pool_index, quantities=vec)

    def test_quantities_are_immutable(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 1})
        with pytest.raises(ValueError):
            bundle.quantities[0] = 5.0

    def test_cost_is_dot_product(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 10, "beta/disk": 100})
        prices = np.ones(len(pool_index)) * 2.0
        assert bundle.cost(prices) == pytest.approx(220.0)

    def test_cost_rejects_mismatched_prices(self, pool_index):
        bundle = Bundle.empty(pool_index)
        with pytest.raises(ValueError):
            bundle.cost(np.ones(2))

    def test_demanded_and_offered_split(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 5, "beta/cpu": -3})
        assert bundle.offered().sum() == pytest.approx(3.0)

    def test_pools_touched(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 5, "beta/cpu": -3})
        assert set(bundle.pools_touched()) == {"alpha/cpu", "beta/cpu"}

    def test_scaled(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 5})
        assert bundle.scaled(2.0).describe() == {"alpha/cpu": 10.0}

    def test_addition(self, pool_index):
        a = Bundle.from_mapping(pool_index, {"alpha/cpu": 5})
        b = Bundle.from_mapping(pool_index, {"alpha/cpu": 2, "beta/ram": 1})
        assert (a + b).describe() == {"alpha/cpu": 7.0, "beta/ram": 1.0}

    def test_equality_and_hash(self, pool_index):
        a = Bundle.from_mapping(pool_index, {"alpha/cpu": 5})
        b = Bundle.from_mapping(pool_index, {"alpha/cpu": 5})
        c = Bundle.from_mapping(pool_index, {"alpha/cpu": 6})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_kind_property(self, pool_index):
        assert Bundle.from_mapping(pool_index, {"alpha/cpu": 5}).kind is BundleKind.BUY
        assert Bundle.from_mapping(pool_index, {"alpha/cpu": -5}).kind is BundleKind.SELL


class TestBundleSet:
    def test_requires_at_least_one_bundle(self, pool_index):
        with pytest.raises(ValueError):
            BundleSet(pool_index, [])

    def test_accepts_mixed_input_forms(self, pool_index):
        bundle = Bundle.from_mapping(pool_index, {"alpha/cpu": 1})
        vec = pool_index.vector({"beta/cpu": 2})
        mapping = {"beta/ram": 3}
        bundle_set = BundleSet(pool_index, [bundle, vec, mapping])
        assert len(bundle_set) == 3
        assert bundle_set.matrix.shape == (3, len(pool_index))

    def test_rejects_wrong_shape_array(self, pool_index):
        with pytest.raises(ValueError):
            BundleSet(pool_index, [np.zeros(2)])

    def test_costs_vectorized_match_individual_costs(self, pool_index, rng):
        bundles = [
            {"alpha/cpu": float(rng.uniform(1, 10)), "alpha/ram": float(rng.uniform(1, 10))}
            for _ in range(5)
        ]
        bundle_set = BundleSet(pool_index, bundles)
        prices = rng.uniform(0.1, 10.0, size=len(pool_index))
        costs = bundle_set.costs(prices)
        for i in range(len(bundle_set)):
            assert costs[i] == pytest.approx(bundle_set.bundle(i).cost(prices))

    def test_cheapest_breaks_ties_deterministically(self, pool_index):
        same = {"alpha/cpu": 5}
        bundle_set = BundleSet(pool_index, [same, dict(same)])
        i, _ = bundle_set.cheapest(np.ones(len(pool_index)))
        assert i == 0

    def test_cheapest_picks_lower_cost_cluster(self, pool_index):
        bundle_set = BundleSet(pool_index, [{"alpha/cpu": 10}, {"beta/cpu": 10}])
        prices = np.ones(len(pool_index))
        prices[pool_index.index_of("alpha/cpu")] = 5.0
        i, cost = bundle_set.cheapest(prices)
        assert i == 1
        assert cost == pytest.approx(10.0)

    def test_aggregate_kind(self, pool_index):
        buys = BundleSet(pool_index, [{"alpha/cpu": 1}, {"beta/cpu": 1}])
        sells = BundleSet(pool_index, [{"alpha/cpu": -1}])
        mixed = BundleSet(pool_index, [{"alpha/cpu": 1}, {"beta/cpu": -1}])
        assert buys.aggregate_kind() is BundleKind.BUY
        assert sells.aggregate_kind() is BundleKind.SELL
        assert mixed.aggregate_kind() is BundleKind.TRADE

    def test_max_demand_and_offer(self, pool_index):
        bundle_set = BundleSet(pool_index, [{"alpha/cpu": 5, "beta/cpu": -2}, {"alpha/cpu": 3}])
        i_beta = pool_index.index_of("beta/cpu")
        assert bundle_set.max_offer()[i_beta] == 2.0

    def test_iteration_yields_bundles(self, pool_index):
        bundle_set = BundleSet(pool_index, [{"alpha/cpu": 1}, {"beta/cpu": 2}])
        assert [b.describe() for b in bundle_set] == [{"alpha/cpu": 1.0}, {"beta/cpu": 2.0}]

    def test_matrix_is_read_only(self, pool_index):
        bundle_set = BundleSet(pool_index, [{"alpha/cpu": 1}])
        with pytest.raises(ValueError):
            bundle_set.matrix[0, 0] = 9.0

    def test_accepts_one_2d_array(self, pool_index):
        rows = [{"alpha/cpu": 1}, {"beta/cpu": 2, "beta/ram": 8}]
        matrix = pool_index.matrix(rows)
        from_array = BundleSet(pool_index, matrix)
        expected = BundleSet(pool_index, rows).matrix
        np.testing.assert_array_equal(from_array.matrix, expected)
        matrix[:] = -9.0  # the set keeps its own copy
        np.testing.assert_array_equal(from_array.matrix, expected)
        assert from_array.kinds() == [BundleKind.BUY, BundleKind.BUY]

    def test_sign_structure_skips_nan_like_bundle_kind(self, pool_index):
        nan, inf = float("nan"), float("inf")
        rows = np.full((4, len(pool_index)), nan)
        rows[1, 0] = -1.0
        rows[2, 0] = inf
        rows[3, 0], rows[3, 1] = -inf, 1.0
        bundle_set = BundleSet(pool_index, rows)
        expected = [BundleKind.EMPTY, BundleKind.SELL, BundleKind.BUY, BundleKind.TRADE]
        assert [bundle_kind(row) for row in rows] == expected
        assert bundle_set.kinds() == expected
        assert bundle_set.aggregate_kind() is BundleKind.TRADE
        assert bundle_set.offers_any()
        assert not bundle_set.all_finite()
        all_nan = BundleSet(pool_index, rows[:1])
        assert all_nan.aggregate_kind() is BundleKind.EMPTY
        assert not all_nan.offers_any()
        assert not all_nan.all_finite()

    def test_2d_array_shape_checked(self, pool_index):
        with pytest.raises(ValueError):
            BundleSet(pool_index, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least one bundle"):
            BundleSet(pool_index, np.zeros((0, len(pool_index))))
