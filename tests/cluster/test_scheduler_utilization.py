"""Unit tests for utilization metrics."""

import numpy as np

from repro.cluster.utilization import percentile_ranks, snapshot_pools, utilization_spread


class TestPercentileRanks:
    def test_empty_input(self):
        assert percentile_ranks([]).size == 0

    def test_single_value_is_median(self):
        assert percentile_ranks([0.7]).tolist() == [50.0]

    def test_monotone_values_span_0_to_100(self):
        ranks = percentile_ranks([0.1, 0.2, 0.3, 0.4, 0.5])
        assert ranks[0] == 0.0 and ranks[-1] == 100.0
        assert np.all(np.diff(ranks) > 0)

    def test_ties_share_a_rank(self):
        ranks = percentile_ranks([0.5, 0.5, 1.0])
        assert ranks[0] == ranks[1]
        assert ranks[2] == 100.0


class TestSnapshots:
    def test_percentile_vector_follows_index_order(self, tiny_fleet):
        index = tiny_fleet.pool_index
        snap = snapshot_pools(index)
        assert snap.percentile_vector(index).tolist() == [snap.percentile(n) for n in index.names]
        np.testing.assert_allclose([snap.fraction(n) for n in index.names], index.utilizations())

    def test_percentiles_are_within_bounds(self, medium_fleet):
        snap = snapshot_pools(medium_fleet.pool_index)
        values = np.array(list(snap.percentiles.values()))
        assert np.all(values >= 0.0) and np.all(values <= 100.0)


class TestUtilizationSpread:
    def test_uniform_fractions_have_zero_spread(self):
        assert utilization_spread([0.5, 0.5, 0.5]) == 0.0

    def test_spread_increases_with_imbalance(self):
        assert utilization_spread([0.1, 0.9]) > utilization_spread([0.45, 0.55])

    def test_empty_input(self):
        assert utilization_spread([]) == 0.0
