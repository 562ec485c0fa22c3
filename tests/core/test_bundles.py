"""Unit tests for bundle classification and XOR bundle sets."""

import numpy as np
import pytest

from repro.core.bundles import BundleKind, BundleSet, bundle_kind


class TestBundleKind:
    def test_classification(self):
        assert bundle_kind(np.array([0.0, 0.0])) is BundleKind.EMPTY
        assert bundle_kind(np.array([1.0, 0.0])) is BundleKind.BUY
        assert bundle_kind(np.array([-1.0, 0.0])) is BundleKind.SELL
        assert bundle_kind(np.array([1.0, -1.0])) is BundleKind.TRADE

    def test_tolerance(self):
        assert bundle_kind(np.array([1e-15, -1e-15])) is BundleKind.EMPTY


class TestBundleSet:
    def test_requires_at_least_one_bundle(self, pool_index):
        with pytest.raises(ValueError):
            BundleSet(pool_index, [])

    def test_accepts_mixed_input_forms(self, pool_index):
        vec = pool_index.vector({"beta/cpu": 2})
        mapping = {"beta/ram": 3}
        bundle_set = BundleSet(pool_index, [vec, mapping])
        assert len(bundle_set) == 2
        np.testing.assert_array_equal(
            bundle_set.matrix, pool_index.matrix([{"beta/cpu": 2}, {"beta/ram": 3}])
        )

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
        for i, row in enumerate(bundle_set.matrix):
            assert costs[i] == pytest.approx(row @ prices)

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


class TestBundleSetFromColumns:
    @pytest.mark.parametrize(
        "amount, kind, offers, finite",
        [
            (float("nan"), BundleKind.EMPTY, False, False),  # neither demands nor offers
            (float("inf"), BundleKind.BUY, False, False),
            (float("-inf"), BundleKind.SELL, True, False),
            (-0.0, BundleKind.EMPTY, False, True),  # nothing
            (-1e-13, BundleKind.EMPTY, True, True),  # an offer, but below the kinds' tolerance
        ],
    )
    def test_edge_amounts_give_the_array_paths_facts(self, pool_index, amount, kind, offers, finite):
        for bundles, aggregate in (([[(1, amount)]], kind), ([[(1, amount)], [(0, 0.0), (2, 5.0)]], None)):
            bundle_set = BundleSet.from_columns(pool_index, bundles)
            assert bundle_set.matrix.tobytes() == pool_index.rows(bundles).tobytes()
            from_array = BundleSet(pool_index, bundle_set.matrix)
            if aggregate is not None:
                assert bundle_set.aggregate_kind() is aggregate
                assert bundle_set.offers_any() is offers
                assert bundle_set.all_finite() is finite
            assert bundle_set.aggregate_kind() is from_array.aggregate_kind()
            assert bundle_set.offers_any() is from_array.offers_any()
            assert bundle_set.all_finite() is from_array.all_finite()
            assert bundle_set.kinds() == from_array.kinds()

    def test_an_empty_bundle_is_an_empty_row(self, pool_index):
        bundle_set = BundleSet.from_columns(pool_index, [[]])
        assert bundle_set.matrix.tolist() == [[0.0] * len(pool_index)]
        assert bundle_set.kinds() == [BundleKind.EMPTY]
        assert bundle_set.aggregate_kind() is BundleKind.EMPTY
        assert not bundle_set.offers_any()
        assert bundle_set.all_finite()
        mixed = BundleSet.from_columns(pool_index, [[], [(3, -2.0)]])
        assert mixed.kinds() == [BundleKind.EMPTY, BundleKind.SELL]
        assert mixed.aggregate_kind() is BundleKind.SELL

    def test_requires_at_least_one_bundle(self, pool_index):
        with pytest.raises(ValueError, match="at least one bundle"):
            BundleSet.from_columns(pool_index, [])

    def test_owns_the_written_matrix_read_only(self, pool_index):
        bundle_set = BundleSet.from_columns(pool_index, [[(0, 1.0)]])
        assert not bundle_set.matrix.flags.writeable
        with pytest.raises(ValueError):
            bundle_set.matrix[0, 0] = 9.0

    def test_refuses_the_columns_rows_refuses(self, pool_index):
        with pytest.raises(ValueError, match="bundle 1 names column 2 twice"):
            BundleSet.from_columns(pool_index, [[(0, 1.0)], [(2, 1.0), (2, 3.0)]])
        with pytest.raises(IndexError, match=r"bundle 0 names column -1, outside \[0, 6\)"):
            BundleSet.from_columns(pool_index, [[(-1, 1.0)]])
