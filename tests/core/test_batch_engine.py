"""Unit tests for the vectorized batch demand engine (repro.core.batch)."""

import numpy as np
import pytest

from repro.core.batch import BatchDemandEngine, sum_demand_rows
from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.clock_auction import (
    BATCH_AUTO_THRESHOLD,
    AscendingClockAuction,
    AuctionConfig,
)
from repro.core.proxy import BidderProxy


def unit_reserve(pool_index, value=1.0):
    return np.full(len(pool_index), value)


def mixed_bids(pool_index, rng, *, buyers=12, sellers=3, traders=2):
    """A reproducible mixed population of buyers, sellers, and traders."""
    names = pool_index.names
    bids = []
    for i in range(buyers):
        bundles = []
        for _ in range(int(rng.integers(1, 4))):
            chosen = rng.choice(names, size=2, replace=False)
            bundles.append({str(n): float(rng.uniform(1, 200)) for n in chosen})
        bids.append(Bid.buy(f"buyer-{i}", pool_index, bundles, max_payment=float(rng.uniform(50, 5000))))
    for i in range(sellers):
        name = str(rng.choice(names))
        bids.append(
            Bid.sell(f"seller-{i}", pool_index, [{name: float(rng.uniform(10, 100))}],
                     min_revenue=float(rng.uniform(1, 50)))
        )
    for i in range(traders):
        a, b = (str(n) for n in rng.choice(names, size=2, replace=False))
        qty = float(rng.uniform(1, 20))
        bids.append(
            Bid(bidder=f"trader-{i}",
                bundles=BundleSet(pool_index, [{a: qty, b: -qty}]),
                limit=float(rng.uniform(0, 100)))
        )
    return bids


class TestBatchResponse:
    def test_empty_engine(self, pool_index):
        engine = BatchDemandEngine(pool_index, [])
        response = engine.respond_all(unit_reserve(pool_index))
        assert response.active_count == 0
        assert response.demand_map() == {}
        np.testing.assert_array_equal(response.total, np.zeros(len(pool_index)))

    def test_rejects_foreign_index_bid(self, pool_index, three_cluster_index):
        bid = Bid.buy("t", three_cluster_index, [{"low/cpu": 1}], max_payment=1.0)
        with pytest.raises(ValueError):
            BatchDemandEngine(pool_index, [bid])

    def test_accepts_bids_over_equal_but_distinct_index(self, pool_index, rng):
        other = pool_index.with_utilizations(np.full(len(pool_index), 0.5))
        assert other is not pool_index and other.names == pool_index.names
        bids = mixed_bids(pool_index, rng)
        foreign = [
            Bid(bidder=b.bidder, bundles=BundleSet(other, list(b.bundles.matrix)), limit=b.limit)
            for b in bids
        ]
        prices = unit_reserve(pool_index, 3.0)
        expected = BatchDemandEngine(pool_index, bids).respond_all(prices)
        response = BatchDemandEngine(pool_index, foreign).respond_all(prices)
        np.testing.assert_array_equal(response.active, expected.active)
        np.testing.assert_array_equal(response.total, expected.total)

    def test_matches_proxy_decisions(self, pool_index, rng):
        bids = mixed_bids(pool_index, rng)
        engine = BatchDemandEngine(pool_index, bids)
        for scale in (0.5, 1.0, 3.0, 10.0, 100.0):
            prices = unit_reserve(pool_index, scale)
            response = engine.respond_all(prices)
            for i, bid in enumerate(bids):
                decision = BidderProxy(bid).respond(prices)
                assert bool(response.active[i]) == decision.active, bid.bidder
                expected_idx = decision.bundle_index if decision.active else -1
                assert int(response.bundle_indices[i]) == (expected_idx if expected_idx is not None else -1)
                np.testing.assert_array_equal(response.quantities[i], decision.quantities)
            np.testing.assert_array_equal(
                response.total,
                sum_demand_rows(np.array([BidderProxy(b).respond(prices).quantities for b in bids])),
            )

    def test_argmin_tie_breaks_to_lowest_index(self, pool_index):
        # Two identical bundles: both engines must pick index 0.
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}, {"alpha/cpu": 10}], max_payment=1e6)
        engine = BatchDemandEngine(pool_index, [bid])
        response = engine.respond_all(unit_reserve(pool_index))
        assert int(response.bundle_indices[0]) == 0
        assert BidderProxy(bid).respond(unit_reserve(pool_index)).bundle_index == 0

    def test_dropout_mask_and_costs(self, pool_index):
        bids = [
            Bid.buy("in", pool_index, [{"alpha/cpu": 10}], max_payment=100.0),
            Bid.buy("out", pool_index, [{"alpha/cpu": 10}], max_payment=5.0),
        ]
        engine = BatchDemandEngine(pool_index, bids)
        response = engine.respond_all(unit_reserve(pool_index, 2.0))  # bundle costs 20
        assert response.active.tolist() == [True, False]
        assert response.costs.tolist() == [20.0, 0.0]
        np.testing.assert_array_equal(response.quantities[1], np.zeros(len(pool_index)))
        assert response.active_count == 1

    def test_bundle_rows_and_len(self, pool_index):
        bids = [
            Bid.buy("a", pool_index, [{"alpha/cpu": 1}, {"beta/cpu": 1}], max_payment=10.0),
            Bid.buy("b", pool_index, [{"alpha/ram": 1}], max_payment=10.0),
        ]
        engine = BatchDemandEngine(pool_index, bids)
        assert len(engine) == 2
        assert engine.bundle_rows == 3
        assert engine.matrix.shape == (3, len(pool_index))
        assert engine.limits.tolist() == [10.0, 10.0]


class TestEngineSelection:
    def test_config_rejects_unknown_engine(self):
        # "incremental" and "sharded" are retired labels that only
        # build_scenario still accepts (it maps them to batch).
        for engine in ("turbo", "incremental", "sharded"):
            with pytest.raises(ValueError, match="engine must be one of"):
                AuctionConfig(engine=engine)

    def test_explicit_engines_respected(self, pool_index):
        bids = [Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=10.0)]
        for engine in ("scalar", "batch"):
            auction = AscendingClockAuction(
                pool_index, bids, reserve_prices=unit_reserve(pool_index),
                config=AuctionConfig(engine=engine),
            )
            assert auction.engine == engine

    def test_auto_threshold(self, pool_index):
        small = [Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 1}], max_payment=10.0) for i in range(3)]
        large = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 1}], max_payment=10.0)
            for i in range(BATCH_AUTO_THRESHOLD)
        ]
        reserve = unit_reserve(pool_index)
        assert AscendingClockAuction(pool_index, small, reserve_prices=reserve).engine == "scalar"
        assert AscendingClockAuction(pool_index, large, reserve_prices=reserve).engine == "batch"


# NOTE: the scalar/batch trace-equivalence tests live in
# tests/core/test_engine_equivalence.py, which runs them over hand-built
# populations and every catalog preset.
