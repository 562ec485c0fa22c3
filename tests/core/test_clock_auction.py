"""Unit tests for the ascending clock auction (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.bids import Bid, BidderClass
from repro.core.bundles import BundleSet
from repro.core.clock_auction import (
    AscendingClockAuction,
    AuctionConfig,
    ConvergenceError,
)
from repro.core.increment import AdditiveIncrement, default_increment


def zero_reserve(pool_index):
    return np.zeros(len(pool_index))


def unit_reserve(pool_index, value=1.0):
    return np.full(len(pool_index), value)


class TestConstruction:
    def test_rejects_wrong_reserve_length(self, pool_index):
        with pytest.raises(ValueError):
            AscendingClockAuction(pool_index, [], reserve_prices=np.zeros(2))

    def test_rejects_negative_reserve(self, pool_index):
        with pytest.raises(ValueError):
            AscendingClockAuction(pool_index, [], reserve_prices=-unit_reserve(pool_index))

    def test_rejects_negative_supply(self, pool_index):
        with pytest.raises(ValueError):
            AscendingClockAuction(
                pool_index, [], reserve_prices=zero_reserve(pool_index),
                supply=-np.ones(len(pool_index)),
            )

    def test_rejects_bid_over_different_index(self, pool_index, three_cluster_index):
        bid = Bid.buy("t", three_cluster_index, [{"low/cpu": 1}], max_payment=1.0)
        with pytest.raises(ValueError):
            AscendingClockAuction(pool_index, [bid], reserve_prices=zero_reserve(pool_index))

    def test_accepts_bid_over_equal_but_distinct_index(self, pool_index):
        # The same pools at other utilizations: a distinct index object with
        # the same pool names, so the bid is admitted and prices identically.
        other = pool_index.with_utilizations(np.full(len(pool_index), 0.5))
        assert other is not pool_index and other.names == pool_index.names
        kwargs = dict(reserve_prices=unit_reserve(pool_index), supply=np.full(len(pool_index), 5.0))
        foreign = AscendingClockAuction(
            pool_index, [Bid.buy("t", other, [{"alpha/cpu": 10}], max_payment=100.0)], **kwargs
        ).run()
        native = AscendingClockAuction(
            pool_index, [Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=100.0)], **kwargs
        ).run()
        assert foreign.converged
        np.testing.assert_array_equal(foreign.final_prices, native.final_prices)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AuctionConfig(max_rounds=0)
        with pytest.raises(ValueError):
            AuctionConfig(tolerance=-1.0)
        with pytest.raises(ValueError):
            AuctionConfig(stall_rounds=0)

    def test_bidder_classes_and_traders_flag(self, pool_index):
        bids = [
            Bid.buy("b", pool_index, [{"alpha/cpu": 1}], max_payment=10.0),
            Bid(bidder="t", bundles=BundleSet(pool_index, [{"alpha/cpu": 1, "beta/cpu": -1}]), limit=0.0),
        ]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        classes = auction.bidder_classes()
        assert classes["b"] is BidderClass.PURE_BUYER
        assert classes["t"] is BidderClass.TRADER
        assert auction.has_traders()

    def test_traders_flag_sees_every_bid_of_a_team(self, pool_index):
        # bidder_classes() keeps a team's last bid; the trader bid comes first
        bids = [
            Bid(bidder="t", bundles=BundleSet(pool_index, [{"alpha/cpu": 1, "beta/cpu": -1}]), limit=0.0),
            Bid.buy("t", pool_index, [{"alpha/cpu": 1}], max_payment=10.0),
        ]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        assert auction.bidder_classes() == {"t": BidderClass.PURE_BUYER}
        assert auction.has_traders()


class TestClearingBehaviour:
    def test_no_bids_clears_immediately(self, pool_index):
        auction = AscendingClockAuction(pool_index, [], reserve_prices=unit_reserve(pool_index))
        outcome = auction.run()
        assert outcome.converged
        assert outcome.round_count == 1
        np.testing.assert_allclose(outcome.final_prices, unit_reserve(pool_index))

    def test_demand_within_supply_clears_at_reserve(self, pool_index):
        supply = np.full(len(pool_index), 1000.0)
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=1e6)
        auction = AscendingClockAuction(
            pool_index, [bid], reserve_prices=unit_reserve(pool_index, 2.0), supply=supply
        )
        outcome = auction.run()
        assert outcome.converged and outcome.round_count == 1
        np.testing.assert_allclose(outcome.final_prices, 2.0)

    def test_excess_demand_raises_prices_until_dropout(self, pool_index):
        # Two buyers compete for a single pool with zero operator supply: the
        # price must rise until both drop out (supply is zero).
        bids = [
            Bid.buy("rich", pool_index, [{"alpha/cpu": 10}], max_payment=200.0),
            Bid.buy("poor", pool_index, [{"alpha/cpu": 10}], max_payment=50.0),
        ]
        auction = AscendingClockAuction(
            pool_index, bids, reserve_prices=unit_reserve(pool_index),
            increment=default_increment(pool_index.capacities(), cap_fraction=0.25),
        )
        outcome = auction.run()
        assert outcome.converged
        i = pool_index.index_of("alpha/cpu")
        # price rose above the poor bidder's valuation per unit
        assert outcome.final_prices[i] > 5.0
        assert outcome.excess_demand[i] <= 0

    def test_buyer_seller_trade_clears_with_positive_allocation(self, pool_index):
        bids = [
            Bid.buy("buyer", pool_index, [{"alpha/cpu": 10}], max_payment=500.0),
            Bid.sell("seller", pool_index, [{"alpha/cpu": 10}], min_revenue=20.0),
        ]
        auction = AscendingClockAuction(
            pool_index, bids, reserve_prices=unit_reserve(pool_index, 5.0)
        )
        outcome = auction.run()
        assert outcome.converged
        i = pool_index.index_of("alpha/cpu")
        # seller supplies 10, buyer demands 10 -> net excess <= 0
        assert outcome.excess_demand[i] <= 1e-6
        assert outcome.final_demands["buyer"][i] == pytest.approx(10.0)
        assert outcome.final_demands["seller"][i] == pytest.approx(-10.0)

    def test_operator_supply_absorbs_demand(self, pool_index):
        supply = np.zeros(len(pool_index))
        supply[pool_index.index_of("alpha/cpu")] = 100.0
        bids = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 10}], max_payment=1e9) for i in range(5)
        ]
        auction = AscendingClockAuction(
            pool_index, bids, reserve_prices=unit_reserve(pool_index), supply=supply
        )
        outcome = auction.run()
        assert outcome.converged and outcome.round_count == 1

    def test_prices_monotonically_nondecreasing(self, pool_index):
        bids = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 50, "alpha/ram": 100}], max_payment=500.0 * (i + 1))
            for i in range(6)
        ]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        outcome = auction.run()
        trajectory = np.array([r.prices for r in outcome.rounds])
        assert np.all(np.diff(trajectory, axis=0) >= -1e-12)

    def test_only_overdemanded_pools_move(self, pool_index):
        bids = [Bid.buy("t", pool_index, [{"alpha/cpu": 100}], max_payment=150.0)]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        outcome = auction.run()
        final = outcome.final_prices
        assert final[pool_index.index_of("alpha/cpu")] > 1.0
        for name in pool_index.names:
            if name != "alpha/cpu":
                assert final[pool_index.index_of(name)] == pytest.approx(1.0)

    def test_active_bidder_count_decreases(self, pool_index):
        bids = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 100}], max_payment=100.0 * (i + 1))
            for i in range(5)
        ]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        outcome = auction.run()
        counts = outcome.active_bidder_counts()
        assert counts[0] == 5
        assert counts[-1] < 5
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestOutcomeAccessors:
    def test_price_map_and_trajectory(self, pool_index):
        bids = [Bid.buy("t", pool_index, [{"alpha/cpu": 100}], max_payment=5000.0)]
        auction = AscendingClockAuction(pool_index, bids, reserve_prices=unit_reserve(pool_index))
        outcome = auction.run()
        prices = outcome.price_map()
        assert set(prices) == set(pool_index.names)
        traj = outcome.price_trajectory("alpha/cpu")
        assert len(traj) == outcome.round_count
        assert traj[-1] >= traj[0]

    def test_bidder_demands_recorded_when_enabled(self, pool_index):
        bids = [Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=1e6)]
        auction = AscendingClockAuction(
            pool_index,
            bids,
            reserve_prices=unit_reserve(pool_index),
            config=AuctionConfig(record_bidder_demands=True),
        )
        outcome = auction.run()
        assert outcome.rounds[0].bidder_demands is not None
        assert "t" in outcome.rounds[0].bidder_demands

    def test_reserve_prices_stored_on_outcome(self, pool_index):
        auction = AscendingClockAuction(pool_index, [], reserve_prices=unit_reserve(pool_index, 3.0))
        outcome = auction.run()
        np.testing.assert_allclose(outcome.reserve_prices, 3.0)


class TestNonConvergence:
    def test_round_limit_raises_convergence_error(self, pool_index):
        # A tiny additive increment with a huge valuation cannot clear within
        # a handful of rounds.
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 100}], max_payment=1e12)
        auction = AscendingClockAuction(
            pool_index,
            [bid],
            reserve_prices=unit_reserve(pool_index),
            increment=AdditiveIncrement(alpha=1e-9),
            config=AuctionConfig(max_rounds=5),
        )
        with pytest.raises(ConvergenceError):
            auction.run()

    def test_oscillating_trader_never_converges(self, pool_index):
        # The paper notes there are "relatively small counterexamples" with
        # traders in which the clock auction never converges.  This is one: a
        # trader indifferent between (buy alpha, sell beta) and (buy beta,
        # sell alpha) with a zero limit always finds one of the two bundles at
        # non-positive cost, so it never drops out, and whichever pool it
        # currently demands gets its price raised -- forever.
        trader = Bid(
            bidder="loop",
            bundles=BundleSet(
                pool_index,
                [
                    {"alpha/cpu": 10, "beta/cpu": -10},
                    {"alpha/cpu": -10, "beta/cpu": 10},
                ],
            ),
            limit=0.0,
        )
        auction = AscendingClockAuction(
            pool_index,
            [trader],
            reserve_prices=unit_reserve(pool_index),
            config=AuctionConfig(max_rounds=200),
        )
        with pytest.raises(ConvergenceError):
            auction.run()

    def test_pure_buyers_always_converge(self, pool_index, rng):
        # Randomized pure-buyer instances must always clear (Section III-C-3).
        for trial in range(5):
            bids = [
                Bid.buy(
                    f"t{trial}-{i}",
                    pool_index,
                    [{"alpha/cpu": float(rng.uniform(1, 500)), "beta/ram": float(rng.uniform(1, 500))}],
                    max_payment=float(rng.uniform(10, 1e4)),
                )
                for i in range(10)
            ]
            auction = AscendingClockAuction(
                pool_index, bids, reserve_prices=unit_reserve(pool_index)
            )
            outcome = auction.run()
            assert outcome.converged
