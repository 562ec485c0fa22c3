"""Settlement and the SYSTEM-constraint check against their per-bid reference loops.

``settle`` and ``verify_system_constraints`` evaluate every bid in a few array
passes.  The loops below evaluate one bid at a time — one :class:`BidderProxy`
per bid, one ``np.min`` / ``np.argmin`` / ``np.isclose`` per line — and are
the specification: every settlement line must match bit for bit, and every
constraint report must match message for message, in order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.proxy import DROPOUT_SLACK, BidderProxy
from repro.core.settlement import (
    ConstraintReport,
    Settlement,
    SettlementLine,
    settle,
    verify_system_constraints,
)
from tests.conftest import build_pool_index

#: A module-level index, so hypothesis draws need no function-scoped fixture.
INDEX = build_pool_index({"alpha": 0.9, "beta": 0.3, "gamma": 0.5}, capacity_scale=50.0)
R = len(INDEX)
TEAMS = ["t0", "t1", "t2", "t3", "t4"]


def settle_reference(index, bids, prices, *, supply=None):
    """Settlement one proxy at a time: the specification of ``settle``."""
    prices = np.asarray(prices, dtype=float)
    supply_vec = np.zeros(len(index)) if supply is None else np.asarray(supply, dtype=float)
    lines = []
    for bid in bids:
        decision = BidderProxy(bid).respond(prices)
        won = bool(decision.active and np.any(np.abs(decision.quantities) > 0))
        lines.append(
            SettlementLine(
                bidder=bid.bidder,
                won=won,
                allocation=decision.quantities if won else np.zeros(len(index)),
                payment=decision.cost if won else 0.0,
                limit=bid.limit,
                bundle_index=decision.bundle_index if won else None,
            )
        )
    return Settlement(index=index, prices=prices.copy(), lines=lines, supply=supply_vec.copy())


def verify_reference(settlement, bids, *, tolerance=1e-6):
    """The SYSTEM constraints one line at a time: the specification of ``verify_system_constraints``."""
    violations = []
    prices = settlement.prices
    bids_by_name = {bid.bidder: bid for bid in bids}
    scale = np.maximum(np.abs(prices).max(initial=1.0), 1.0)
    if np.any(prices < -tolerance):
        violations.append("constraint 6 violated: negative prices present")
    over = settlement.total_allocated() - settlement.supply
    capacities = np.maximum(settlement.index.capacities(), 1.0)
    for i in np.flatnonzero(over > tolerance * capacities + tolerance):
        violations.append(
            f"constraint 2 violated: pool {settlement.index.pools[i].name} over-allocated by {over[i]:.6g}"
        )
    for line in settlement.lines:
        bid = bids_by_name.get(line.bidder)
        if bid is None:
            violations.append(f"settlement contains unknown bidder {line.bidder!r}")
            continue
        costs = bid.bundles.costs(prices)
        min_cost = float(np.min(costs))
        if line.won:
            matches = np.any(
                np.all(np.isclose(bid.bundles.matrix, line.allocation, atol=tolerance), axis=1)
            )
            if not matches:
                violations.append(
                    f"constraint 1 violated: {line.bidder} was allocated a bundle outside Q_u"
                )
            if line.payment > bid.limit + tolerance * scale:
                violations.append(
                    f"constraint 3 violated: {line.bidder} pays {line.payment:.6g} above limit {bid.limit:.6g}"
                )
            if line.payment > min_cost + tolerance * scale:
                violations.append(
                    f"constraint 4 violated: {line.bidder} pays {line.payment:.6g} but cheapest bundle costs {min_cost:.6g}"
                )
        else:
            cheapest_i = int(np.argmin(costs))
            cheapest_is_empty = bool(np.all(np.abs(bid.bundles.matrix[cheapest_i]) <= tolerance))
            if not cheapest_is_empty and bid.limit >= min_cost - tolerance * scale:
                violations.append(
                    f"constraint 5 violated: {line.bidder} lost but its limit {bid.limit:.6g} covers the cheapest bundle cost {min_cost:.6g}"
                )
    return ConstraintReport(satisfied=not violations, violations=violations)


def line_key(line):
    """Every bit of a settlement line."""
    return (
        line.bidder,
        line.won,
        line.bundle_index,
        float(line.payment).hex(),
        line.limit,
        line.allocation.dtype.str,
        line.allocation.tobytes(),
    )


def assert_same_settlement(got, expected):
    assert [line_key(line) for line in got.lines] == [line_key(line) for line in expected.lines]
    assert got.prices.tobytes() == expected.prices.tobytes()
    assert got.supply.tobytes() == expected.supply.tobytes()


# -- populations ----------------------------------------------------------------------------

#: Small exact values make cost ties exact; the generic floats exercise rounding.
EXACT = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 10.0])
QUANTITY = st.one_of(EXACT, st.floats(0.001, 300.0))
PRICE = st.one_of(EXACT, st.floats(0.0, 50.0))
#: Offsets of a bid's limit from its cheapest cost, on and around DROPOUT_SLACK.
LIMIT_OFFSET = st.sampled_from(
    [-5.0, -1.0, -2 * DROPOUT_SLACK, -DROPOUT_SLACK / 2, 0.0, DROPOUT_SLACK / 2, DROPOUT_SLACK,
     2 * DROPOUT_SLACK, 1.0, 50.0]
)


@st.composite
def bundle_rows(draw, side):
    """A ``(k, R)`` matrix of 1-4 bundles for a buyer, seller or trader."""
    k = draw(st.integers(1, 4))
    matrix = np.zeros((k, R))
    for row in matrix:
        for j in draw(st.lists(st.integers(0, R - 1), min_size=1, max_size=3, unique=True)):
            row[j] = draw(QUANTITY)
        if side == "seller":
            row *= -1.0
        elif side == "trader" and draw(st.booleans()):
            j = draw(st.integers(0, R - 1))
            row[j] = -draw(QUANTITY)
    if draw(st.integers(0, 9)) == 0:
        matrix[draw(st.integers(0, k - 1))] = 0.0  # an all-zero bundle
    if draw(st.integers(0, 14)) == 0:
        matrix[draw(st.integers(0, k - 1)), draw(st.integers(0, R - 1))] = np.nan
    return matrix


@st.composite
def populations(draw, max_bids=12):
    """Prices and bids whose limits sit on and around each bid's cheapest cost."""
    prices = np.array(draw(st.lists(PRICE, min_size=R, max_size=R)))
    bids = []
    for _ in range(draw(st.integers(0, max_bids))):
        side = draw(st.sampled_from(["buyer", "seller", "trader"]))
        matrix = draw(bundle_rows(side))
        cheapest = float(np.min(matrix @ prices))
        limit = draw(LIMIT_OFFSET) + (cheapest if np.isfinite(cheapest) else 0.0)
        bids.append(Bid(draw(st.sampled_from(TEAMS)), BundleSet(INDEX, matrix), limit))
    return prices, bids


# -- settle -----------------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(population=populations(), supply=st.floats(0.0, 100.0))
def test_settle_matches_the_proxy_loop_bit_for_bit(population, supply):
    prices, bids = population
    supply = np.full(R, supply)
    assert_same_settlement(
        settle(INDEX, bids, prices, supply=supply),
        settle_reference(INDEX, bids, prices, supply=supply),
    )


def test_settle_of_no_bids_is_empty():
    settlement = settle(INDEX, [], np.ones(R))
    assert settlement.lines == []
    assert settlement.supply.tolist() == [0.0] * R


def test_a_nan_quantity_loses_wherever_it_sits():
    # argmin picks the NaN cost, and NaN is never within the limit.
    matrix = np.array([[np.nan] + [0.0] * (R - 1), [1.0] + [0.0] * (R - 1)])
    bid = Bid("t", BundleSet(INDEX, matrix), limit=1e9)
    for prices in (np.zeros(R), np.ones(R)):
        (line,) = settle(INDEX, [bid], prices).lines
        assert not line.won and line.bundle_index is None
        assert_same_settlement(settle(INDEX, [bid], prices), settle_reference(INDEX, [bid], prices))


def test_cost_ties_go_to_the_lowest_bundle_index():
    matrix = np.zeros((3, R))
    matrix[0, 0], matrix[1, 1], matrix[2, 2] = 4.0, 2.0, 2.0
    prices = np.zeros(R)
    prices[:3] = [1.0, 2.0, 2.0]
    (line,) = settle(INDEX, [Bid("t", BundleSet(INDEX, matrix), limit=4.0)], prices).lines
    assert line.won and line.bundle_index == 0 and line.payment == 4.0


# -- verify_system_constraints ------------------------------------------------------------------

TAMPERS = st.sampled_from(
    ["outside", "nudge", "overpay", "not_cheapest", "lose", "rename", "negative_price",
     "nan_price", "short_supply", "drop_bids"]
)


def tamper(settlement, bids, op, i, rng):
    """One deliberate violation of the SYSTEM constraints (or of the bid list)."""
    lines = settlement.lines
    prices = settlement.prices.copy()
    supply = settlement.supply.copy()
    if lines and op in ("outside", "nudge", "overpay", "not_cheapest", "lose", "rename"):
        i %= len(lines)
        line = lines[i]
        bid = next((b for b in reversed(bids) if b.bidder == line.bidder), None)
        if op in ("outside", "nudge"):
            # "nudge" moves an entry by about the tolerances under test.
            allocation = line.allocation.copy()
            allocation[rng.integers(R)] += 3.0 if op == "outside" else rng.choice([5e-9, 5e-7, 5e-4])
            line = dataclasses.replace(line, won=True, allocation=allocation)
        elif op == "overpay":
            line = dataclasses.replace(line, won=True, payment=line.limit + 7.5)
        elif op == "not_cheapest" and bid is not None:
            j = int(np.argmax(bid.bundles.costs(prices)))
            line = dataclasses.replace(
                line,
                won=True,
                allocation=bid.bundles.matrix[j].copy(),
                payment=float(bid.bundles.costs(prices)[j]),
                bundle_index=j,
            )
        elif op == "lose":
            line = dataclasses.replace(
                line, won=False, allocation=np.zeros(R), payment=0.0, bundle_index=None
            )
        elif op == "rename":
            line = dataclasses.replace(line, bidder="ghost")
        lines = lines[:i] + [line] + lines[i + 1 :]
    elif op == "negative_price":
        prices[rng.integers(R)] = -1.0
    elif op == "nan_price":
        prices[rng.integers(R)] = np.nan
    elif op == "short_supply":
        supply[:] = 0.0
    elif op == "drop_bids":
        bids = []
    return Settlement(settlement.index, prices, lines, supply), bids


@settings(max_examples=300, deadline=None)
@given(
    population=populations(),
    supply=st.floats(0.0, 100.0),
    tampers=st.lists(st.tuples(TAMPERS, st.integers(0, 50)), max_size=4),
    seed=st.integers(0, 2**16),
    tolerance=st.sampled_from([1e-6, 1e-3, 0.0]),
)
def test_verify_reports_what_the_per_line_loop_reports(population, supply, tampers, seed, tolerance):
    prices, bids = population
    settlement = settle(INDEX, bids, prices, supply=np.full(R, supply))
    rng = np.random.default_rng(seed)
    for op, i in tampers:
        settlement, bids = tamper(settlement, bids, op, i, rng)
    got = verify_system_constraints(settlement, bids, tolerance=tolerance)
    expected = verify_reference(settlement, bids, tolerance=tolerance)
    assert (got.satisfied, got.violations) == (expected.satisfied, expected.violations)


def one_bid_settlement(matrix, limit, prices, *, won_row=None, payment=0.0, supply=100.0):
    bid = Bid("t", BundleSet(INDEX, np.atleast_2d(matrix)), limit)
    allocation = np.zeros(R) if won_row is None else np.atleast_2d(matrix)[won_row].copy()
    line = SettlementLine("t", won_row is not None, allocation, payment, limit, won_row)
    return Settlement(INDEX, np.asarray(prices, dtype=float), [line], np.full(R, supply)), [bid]


def unit(j, value=1.0):
    vec = np.zeros(R)
    vec[j] = value
    return vec


def check_against_reference(settlement, bids, *, contains):
    got = verify_system_constraints(settlement, bids)
    expected = verify_reference(settlement, bids)
    assert (got.satisfied, got.violations) == (expected.satisfied, expected.violations)
    assert any(contains in message for message in got.violations), got.violations
    return got


class TestEachConstraintIsReported:
    """One tampered settlement per constraint, each compared with the reference."""

    def test_allocation_outside_the_bundle_set(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R), won_row=0, payment=2.0)
        settlement.lines[0] = dataclasses.replace(settlement.lines[0], allocation=unit(1, 2.0))
        check_against_reference(settlement, bids, contains="constraint 1 violated")

    def test_allocation_within_the_tolerance_of_a_bundle_is_in_the_set(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R), won_row=0, payment=2.0)
        # Off the bundle's support, only the absolute tolerance applies.
        nudged = unit(0, 2.0) + unit(1, 5e-7)
        settlement.lines[0] = dataclasses.replace(settlement.lines[0], allocation=nudged)
        assert verify_system_constraints(settlement, bids).satisfied
        strict = verify_system_constraints(settlement, bids, tolerance=1e-8)
        assert strict == verify_reference(settlement, bids, tolerance=1e-8)
        assert strict.violations == ["constraint 1 violated: t was allocated a bundle outside Q_u"]

    def test_over_allocated_pool(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R), won_row=0, payment=2.0, supply=1.0)
        check_against_reference(settlement, bids, contains="constraint 2 violated: pool alpha/cpu")

    def test_winner_paying_above_its_limit(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 1.0, np.ones(R), won_row=0, payment=2.0)
        check_against_reference(settlement, bids, contains="constraint 3 violated: t pays 2 above limit 1")

    def test_winner_of_a_bundle_that_is_not_the_cheapest(self):
        matrix = np.vstack([unit(0, 2.0), unit(1, 5.0)])
        settlement, bids = one_bid_settlement(matrix, 10.0, np.ones(R), won_row=1, payment=5.0)
        check_against_reference(
            settlement, bids, contains="constraint 4 violated: t pays 5 but cheapest bundle costs 2"
        )

    def test_loser_whose_limit_covers_its_cheapest_bundle(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R))
        check_against_reference(
            settlement, bids, contains="constraint 5 violated: t lost but its limit 10 covers"
        )

    def test_negative_price(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, -np.ones(R), won_row=0, payment=-2.0)
        check_against_reference(settlement, bids, contains="constraint 6 violated")


class TestEdgeCases:
    def test_a_loser_whose_cheapest_bundle_is_empty_is_exempt(self):
        matrix = np.vstack([unit(0, 2.0), np.zeros(R)])
        settlement, bids = one_bid_settlement(matrix, 10.0, np.ones(R))
        report = verify_system_constraints(settlement, bids)
        assert report.satisfied and report == verify_reference(settlement, bids)

    def test_unknown_bidders_are_reported_in_line_order(self):
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R))
        ghost = dataclasses.replace(settlement.lines[0], bidder="ghost")
        settlement.lines[:] = [ghost, settlement.lines[0], ghost]
        report = check_against_reference(settlement, bids, contains="unknown bidder 'ghost'")
        assert [m.split(":")[0] for m in report.violations] == [
            "settlement contains unknown bidder 'ghost'",
            "constraint 5 violated",
            "settlement contains unknown bidder 'ghost'",
        ]

    def test_each_line_of_a_team_is_checked_against_its_last_bid(self):
        first = Bid("t", BundleSet(INDEX, unit(0, 2.0)[None]), 10.0)
        last = Bid("t", BundleSet(INDEX, unit(1, 3.0)[None]), 10.0)
        settlement = settle(INDEX, [first, last], np.ones(R), supply=np.full(R, 100.0))
        report = check_against_reference(settlement, [first, last], contains="constraint 1 violated")
        assert not report.satisfied

    def test_nan_prices_raise_nothing(self):
        prices = np.ones(R)
        prices[0] = np.nan
        settlement, bids = one_bid_settlement(unit(0, 2.0), 10.0, prices, won_row=0, payment=2.0)
        assert verify_system_constraints(settlement, bids) == verify_reference(settlement, bids)

    def test_no_bids_leaves_every_line_unknown(self):
        settlement, _ = one_bid_settlement(unit(0, 2.0), 10.0, np.ones(R), won_row=0, payment=2.0)
        check_against_reference(settlement, [], contains="unknown bidder 't'")

    def test_no_lines_and_no_bids(self):
        settlement = settle(INDEX, [], np.ones(R))
        assert verify_system_constraints(settlement, []) == ConstraintReport(True, [])

    def test_more_winners_than_one_check_block(self):
        bids = [Bid(f"t{i}", BundleSet(INDEX, np.vstack([unit(i % R, 1.0), unit(0, 9.0)])), 5.0)
                for i in range(600)]
        settlement = settle(INDEX, bids, np.ones(R), supply=np.full(R, 1e4))
        for i in (3, 255, 256, 599):
            allocation = settlement.lines[i].allocation.copy()
            allocation[(i + 1) % R] += 1.0
            settlement.lines[i] = dataclasses.replace(settlement.lines[i], allocation=allocation)
        report = check_against_reference(settlement, bids, contains="constraint 1 violated")
        assert [m.split(":")[1].split()[0] for m in report.violations] == ["t3", "t255", "t256", "t599"]
