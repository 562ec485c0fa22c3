"""Property-style scalar-vs-batch equivalence over random bid populations.

The batch demand engine must be observationally indistinguishable from the
scalar proxy loop: for any bid population — pure buyers, sellers, traders, or
any mix — both engines must produce the same price trajectory, the same
per-round excess demand, the same final demands, and the same convergence
behavior (including raising :class:`ConvergenceError` on the same instances).
"""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.clock_auction import (
    AscendingClockAuction,
    AuctionConfig,
    ConvergenceError,
)


def random_population(pool_index, rng, *, buyers, sellers, traders):
    names = pool_index.names
    bids = []
    for i in range(buyers):
        bundles = []
        for _ in range(int(rng.integers(1, 5))):
            width = int(rng.integers(1, min(3, len(names)) + 1))
            chosen = rng.choice(names, size=width, replace=False)
            bundles.append({str(n): float(rng.uniform(0.5, 300)) for n in chosen})
        bids.append(
            Bid.buy(f"buyer-{i}", pool_index, bundles, max_payment=float(rng.uniform(10, 8000)))
        )
    for i in range(sellers):
        name = str(rng.choice(names))
        bids.append(
            Bid.sell(
                f"seller-{i}",
                pool_index,
                [{name: float(rng.uniform(5, 150))}],
                min_revenue=float(rng.uniform(0, 80)),
            )
        )
    for i in range(traders):
        a, b = (str(n) for n in rng.choice(names, size=2, replace=False))
        qty = float(rng.uniform(1, 25))
        bids.append(
            Bid(
                bidder=f"trader-{i}",
                bundles=BundleSet(pool_index, [{a: qty, b: -qty}, {a: -qty, b: qty}]),
                limit=float(rng.uniform(0, 50)),
            )
        )
    return bids


def run_engine(pool_index, bids, engine, *, max_rounds=3000):
    auction = AscendingClockAuction(
        pool_index,
        bids,
        reserve_prices=np.ones(len(pool_index)),
        supply=np.full(len(pool_index), 40.0),
        config=AuctionConfig(engine=engine, max_rounds=max_rounds, record_bidder_demands=True),
    )
    try:
        return auction.run()
    except ConvergenceError:
        return None


def assert_equivalent(scalar, batch):
    if scalar is None or batch is None:
        # Non-convergence must be engine-independent.
        assert scalar is None and batch is None
        return
    assert scalar.round_count == batch.round_count
    np.testing.assert_array_equal(scalar.final_prices, batch.final_prices)
    assert scalar.final_demands.shape == batch.final_demands.shape
    assert scalar.final_demands.tobytes() == batch.final_demands.tobytes()
    for rs, rb in zip(scalar.rounds, batch.rounds):
        np.testing.assert_array_equal(rs.prices, rb.prices)
        np.testing.assert_array_equal(rs.excess_demand, rb.excess_demand)
        assert rs.active_bidders == rb.active_bidders
        assert rs.bidder_demands.shape == rb.bidder_demands.shape
        assert rs.bidder_demands.tobytes() == rb.bidder_demands.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_random_buyer_populations_are_engine_invariant(pool_index, seed):
    rng = np.random.default_rng(1000 + seed)
    bids = random_population(pool_index, rng, buyers=int(rng.integers(5, 40)), sellers=0, traders=0)
    assert_equivalent(
        run_engine(pool_index, bids, "scalar"), run_engine(pool_index, bids, "batch")
    )


@pytest.mark.parametrize("seed", range(8))
def test_random_mixed_populations_are_engine_invariant(pool_index, seed):
    rng = np.random.default_rng(2000 + seed)
    bids = random_population(
        pool_index,
        rng,
        buyers=int(rng.integers(5, 30)),
        sellers=int(rng.integers(1, 8)),
        traders=int(rng.integers(0, 4)),
    )
    assert_equivalent(
        run_engine(pool_index, bids, "scalar"), run_engine(pool_index, bids, "batch")
    )


@pytest.mark.parametrize("seed", range(4))
def test_three_cluster_index_equivalence(three_cluster_index, seed):
    rng = np.random.default_rng(3000 + seed)
    bids = random_population(three_cluster_index, rng, buyers=25, sellers=5, traders=2)
    assert_equivalent(
        run_engine(three_cluster_index, bids, "scalar"),
        run_engine(three_cluster_index, bids, "batch"),
    )


def test_nonconvergent_trader_raises_in_both_engines(pool_index):
    # The oscillating trader from the scalar unit tests: never drops out,
    # whichever pool it demands gets raised, forever.  Both engines must hit
    # the round limit and raise.
    trader = Bid(
        bidder="loop",
        bundles=BundleSet(
            pool_index,
            [{"alpha/cpu": 10, "beta/cpu": -10}, {"alpha/cpu": -10, "beta/cpu": 10}],
        ),
        limit=0.0,
    )
    for engine in ("scalar", "batch"):
        auction = AscendingClockAuction(
            pool_index,
            [trader],
            reserve_prices=np.ones(len(pool_index)),
            config=AuctionConfig(engine=engine, max_rounds=150),
        )
        with pytest.raises(ConvergenceError):
            auction.run()


def test_auto_engine_trace_matches_forced_engines(pool_index):
    rng = np.random.default_rng(4000)
    bids = random_population(pool_index, rng, buyers=40, sellers=4, traders=0)  # >= threshold
    auto = run_engine(pool_index, bids, "auto")
    scalar = run_engine(pool_index, bids, "scalar")
    batch = run_engine(pool_index, bids, "batch")
    assert_equivalent(scalar, batch)
    assert_equivalent(scalar, auto)
