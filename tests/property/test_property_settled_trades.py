"""Figure 7's settled trades against their per-line reference loop.

``settled_trades`` and ``settled_trade_count`` read every winner's allocation
in a few stacked array passes.  The loop below is the earlier code, one
``np.flatnonzero`` per winner and one NumPy scalar per trade, and is the
specification: the same trades, field for field and in the same order, and
the same count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.utilization_stats import SettledTrade, settled_trade_count, settled_trades
from repro.cluster.utilization import snapshot_pools
from repro.core.settlement import Settlement, SettlementLine
from tests.conftest import build_pool_index

INDEX = build_pool_index({"alpha": 0.9, "beta": 0.3, "gamma": 0.5}, capacity_scale=50.0)
R = len(INDEX)
TOL = 1e-9


def settled_trades_reference(settlement, *, percentiles=None, tol=TOL):
    """One winner at a time: the specification of ``settled_trades``."""
    index = settlement.index
    if percentiles is None:
        percentiles = snapshot_pools(index).percentiles
    names = index.names
    trades = []
    for line in settlement.winners:
        for i in np.flatnonzero(np.abs(line.allocation) > tol):
            pool = index.pools[int(i)]
            name = names[i]
            quantity = float(line.allocation[i])
            trades.append(
                SettledTrade(
                    bidder=line.bidder,
                    pool=name,
                    cluster=pool.cluster,
                    rtype=pool.rtype,
                    side="bid" if quantity > 0 else "offer",
                    quantity=abs(quantity),
                    utilization_percentile=float(percentiles[name]),
                    utilization_fraction=pool.utilization,
                )
            )
    return trades


def settled_trade_count_reference(settlement, *, tol=TOL):
    return sum(int(np.count_nonzero(np.abs(line.allocation) > tol)) for line in settlement.winners)


# Entries at and around the tolerance, signed zeros and ordinary quantities.
_EDGES = [0.0, -0.0, TOL, -TOL, 2 * TOL, -2 * TOL, 1e-12]
_entries = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=-1e3, max_value=1e3))
_lines = st.tuples(
    st.sampled_from(["t0", "t1", "t2", "t3"]),  # several lines per bidder
    st.booleans(),
    st.lists(_entries, min_size=R, max_size=R),
)


def settlement_of(lines):
    return Settlement(
        index=INDEX,
        prices=np.ones(R),
        lines=[
            SettlementLine(
                bidder=bidder,
                won=won,
                allocation=np.array(allocation, dtype=float),
                payment=0.0,
                limit=1.0,
                bundle_index=0 if won else None,
            )
            for bidder, won, allocation in lines
        ],
        supply=np.zeros(R),
    )


def assert_same_trades(got, expected):
    assert got == expected
    # Equality of floats hides a type or a signed zero; compare exactly.
    assert [(type(t.quantity), t.quantity.hex(), type(t.utilization_fraction)) for t in got] == [
        (type(t.quantity), t.quantity.hex(), type(t.utilization_fraction)) for t in expected
    ]


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_lines, max_size=12))
def test_trades_and_count_match_the_per_line_loop(lines):
    settlement = settlement_of(lines)
    assert_same_trades(settled_trades(settlement), settled_trades_reference(settlement))
    assert settled_trade_count(settlement) == settled_trade_count_reference(settlement)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), tol=st.sampled_from([TOL, 2 * TOL, 0.5]))
def test_many_winners_cross_array_blocks(seed, tol):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(250, 700))
    allocations = np.where(rng.random((count, R)) < 0.4, rng.normal(0.0, 1.0, (count, R)), 0.0)
    allocations[rng.random((count, R)) < 0.1] = rng.choice([TOL, -TOL, 2 * TOL, -2 * TOL])
    lines = [(f"t{i % 37}", bool(rng.random() < 0.8), row) for i, row in enumerate(allocations.tolist())]
    settlement = settlement_of(lines)
    assert_same_trades(settled_trades(settlement, tol=tol), settled_trades_reference(settlement, tol=tol))
    assert settled_trade_count(settlement, tol=tol) == settled_trade_count_reference(settlement, tol=tol)


def test_no_winners_give_no_trades():
    settlement = settlement_of([("t0", False, [1.0] * R)])
    assert settled_trades(settlement) == [] and settled_trade_count(settlement) == 0
    assert settled_trades(settlement_of([])) == [] and settled_trade_count(settlement_of([])) == 0


def test_percentiles_are_read_only_for_touched_pools():
    allocation = [0.0] * R
    allocation[INDEX.index_of("beta/ram")] = -4.0
    settlement = settlement_of([("t0", True, allocation)])
    (trade,) = settled_trades(settlement, percentiles={"beta/ram": 12.5})
    assert (trade.pool, trade.side, trade.quantity, trade.utilization_percentile) == ("beta/ram", "offer", 4.0, 12.5)
