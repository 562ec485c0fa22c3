"""Property-based tests (hypothesis) for the core market mechanism.

These pin down the invariants the paper's SYSTEM formulation demands, over
randomly generated bid populations rather than hand-picked examples:

* the clock auction's prices never decrease and never fall below the reserve;
* a converged auction has no positive excess demand;
* settlements always satisfy the six SYSTEM constraints;
* winners never pay more than their limit and always get their cheapest bundle;
* the premium gamma_u is non-negative whenever defined;
* a bundle set's cached sign structure matches classifying each row on its
  own, and a team's covering bundle matches covering each request in turn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.base import DemandProfile
from repro.cluster.pools import PoolIndex, ResourcePool
from repro.cluster.resources import ResourceType
from repro.core.bids import Bid, validate_bid
from repro.core.bundles import BundleKind, BundleSet, bundle_kind
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig
from repro.core.increment import default_increment
from repro.core.reserve import PAPER_PHI_1, ReservePricer
from repro.core.settlement import settle, verify_system_constraints
from repro.market.services import ServiceRequest, default_catalog

# A deliberately small, fixed pool index so hypothesis explores bid space, not fleet space.
_POOLS = PoolIndex(
    [
        ResourcePool(cluster="c0", rtype=ResourceType.CPU, capacity=1_000.0, unit_cost=10.0, utilization=0.9),
        ResourcePool(cluster="c0", rtype=ResourceType.RAM, capacity=4_000.0, unit_cost=2.0, utilization=0.85),
        ResourcePool(cluster="c1", rtype=ResourceType.CPU, capacity=1_000.0, unit_cost=10.0, utilization=0.3),
        ResourcePool(cluster="c1", rtype=ResourceType.RAM, capacity=4_000.0, unit_cost=2.0, utilization=0.25),
    ]
)


@st.composite
def buy_bids(draw, max_bidders: int = 8):
    """A list of pure-buyer bids with 1-2 alternative bundles each."""
    count = draw(st.integers(min_value=1, max_value=max_bidders))
    bids = []
    for i in range(count):
        alternatives = draw(st.integers(min_value=1, max_value=2))
        bundles = []
        for _ in range(alternatives):
            cluster = draw(st.sampled_from(["c0", "c1"]))
            cpu = draw(st.floats(min_value=1.0, max_value=300.0))
            ram = draw(st.floats(min_value=0.0, max_value=1_200.0))
            bundles.append({f"{cluster}/cpu": cpu, f"{cluster}/ram": ram})
        limit = draw(st.floats(min_value=0.0, max_value=20_000.0))
        bids.append(Bid.buy(f"bidder-{i}", _POOLS, bundles, max_payment=limit))
    return bids


def _run_auction(bids):
    reserve = ReservePricer(weighting=PAPER_PHI_1).reserve_prices(_POOLS)
    supply = _POOLS.available() * 0.9
    auction = AscendingClockAuction(
        _POOLS,
        bids,
        reserve_prices=reserve,
        supply=supply,
        increment=default_increment(_POOLS.capacities()),
        config=AuctionConfig(max_rounds=5_000),
    )
    return auction.run(), reserve, supply


class TestClockAuctionProperties:
    @settings(max_examples=40, deadline=None)
    @given(bids=buy_bids())
    def test_pure_buyer_auctions_always_converge(self, bids):
        outcome, reserve, supply = _run_auction(bids)
        assert outcome.converged

    @settings(max_examples=40, deadline=None)
    @given(bids=buy_bids())
    def test_prices_monotone_and_at_least_reserve(self, bids):
        outcome, reserve, _ = _run_auction(bids)
        trajectory = np.array([r.prices for r in outcome.rounds])
        assert np.all(np.diff(trajectory, axis=0) >= -1e-12)
        assert np.all(outcome.final_prices >= reserve - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(bids=buy_bids())
    def test_no_positive_excess_demand_at_clearing(self, bids):
        outcome, _, supply = _run_auction(bids)
        tolerance = 1e-6 * np.maximum(_POOLS.capacities(), 1.0) + 1e-6
        assert np.all(outcome.excess_demand <= tolerance)

    @settings(max_examples=40, deadline=None)
    @given(bids=buy_bids())
    def test_settlement_satisfies_system_constraints(self, bids):
        outcome, _, supply = _run_auction(bids)
        settlement = settle(_POOLS, bids, outcome.final_prices, supply=supply)
        report = verify_system_constraints(settlement, bids)
        assert report.satisfied, report.violations

    @settings(max_examples=40, deadline=None)
    @given(bids=buy_bids())
    def test_winners_pay_within_limit_and_get_cheapest_bundle(self, bids):
        outcome, _, supply = _run_auction(bids)
        settlement = settle(_POOLS, bids, outcome.final_prices, supply=supply)
        by_name = {bid.bidder: bid for bid in bids}
        for line in settlement.winners:
            bid = by_name[line.bidder]
            costs = bid.bundles.costs(outcome.final_prices)
            assert line.payment <= bid.limit + 1e-6
            assert line.payment == pytest.approx(float(np.min(costs)), abs=1e-6)
            premium = line.premium
            assert premium is None or premium >= -1e-12


class TestReserveAndIncrementProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        utilization=st.floats(min_value=0.0, max_value=1.0),
        cost=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_reserve_price_is_phi_times_cost(self, utilization, cost):
        pool = ResourcePool(cluster="c", rtype=ResourceType.CPU, capacity=10.0, unit_cost=cost, utilization=utilization)
        index = PoolIndex([pool])
        price = ReservePricer(weighting=PAPER_PHI_1).reserve_prices(index)[0]
        assert price == pytest.approx(PAPER_PHI_1(utilization) * cost)
        assert price >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(min_value=0.0, max_value=1.0),
        high=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weighting_monotonicity(self, low, high):
        lo, hi = sorted((low, high))
        assert PAPER_PHI_1(lo) <= PAPER_PHI_1(hi) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        excess=st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=3, max_size=3),
        prices=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=3, max_size=3),
    )
    def test_increment_is_nonnegative_capped_and_supported_on_excess(self, excess, prices):
        policy = default_increment(np.array([100.0, 1_000.0, 10_000.0]), cap_fraction=0.1)
        z = np.array(excess)
        p = np.array(prices)
        step = policy.increment(z, p)
        assert np.all(step >= 0)
        assert np.all(step <= 0.1 * np.maximum(p, 1e-6) + 1e-12)
        assert np.all(step[z <= 0] == 0.0)


# Entries at and around both zero tolerances (kinds: 1e-12, offers: 0), signed
# zeros and non-finite values, mixed with ordinary quantities.
_EDGE_ENTRIES = [0.0, -0.0, 1e-12, -1e-12, 1e-13, -1e-13, float("nan"), float("inf"), float("-inf")]
_entries = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(min_value=-1e3, max_value=1e3))
_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(_entries, min_size=len(_POOLS), max_size=len(_POOLS)), min_size=k, max_size=k
    )
)


def _set_rule(kinds):
    """The set-based aggregate-kind rule, applied to per-row kinds."""
    present = set(kinds) - {BundleKind.EMPTY}
    if not present:
        return BundleKind.EMPTY
    if present == {BundleKind.BUY}:
        return BundleKind.BUY
    if present == {BundleKind.SELL}:
        return BundleKind.SELL
    return BundleKind.TRADE


class TestBundleSetSignStructureProperties:
    @settings(max_examples=300, deadline=None)
    @given(rows=_matrices)
    def test_cached_sign_structure_matches_row_by_row_classification(self, rows):
        matrix = np.array(rows, dtype=float)
        for bundle_set in (BundleSet(_POOLS, matrix), BundleSet(_POOLS, list(matrix))):
            kinds = [bundle_kind(row) for row in matrix]
            assert bundle_set.kinds() == kinds
            assert bundle_set.aggregate_kind() is _set_rule(kinds)
            np.testing.assert_array_equal(bundle_set.max_offer(), np.clip(-matrix, 0.0, None).max(axis=0))
            np.testing.assert_array_equal(bundle_set.max_demand(), np.clip(matrix, 0.0, None).max(axis=0))
            assert bundle_set.offers_any() == bool(np.any(matrix < 0))
            finite = bool(np.all(np.isfinite(matrix)))
            assert bundle_set.all_finite() == finite
            problems = validate_bid(Bid("b", bundle_set, limit=0.0))
            assert ("bundle quantities contain non-finite values" in problems) == (not finite)


_CATALOG = default_catalog()


def _per_request_covering(profile, catalog, cluster):
    """Reference: re-home each request, cover it on its own, add in request order."""
    target = cluster or profile.home_cluster
    bundle: dict[str, float] = {}
    for req in profile.requests:
        rehomed = ServiceRequest(service=req.service, cluster=target, quantity=req.quantity)
        amount = catalog.spec(rehomed.service).covering_amount(rehomed.quantity)
        for rtype in ResourceType:
            qty = amount.get(rtype)
            if qty > 0:
                name = f"{rehomed.cluster}/{rtype.value}"
                bundle[name] = bundle.get(name, 0.0) + qty
    return bundle


@st.composite
def demand_profiles(draw):
    requests = [
        ServiceRequest(
            service=draw(st.sampled_from(_CATALOG.names())),
            cluster=draw(st.sampled_from(_POOLS.clusters())),
            quantity=draw(st.floats(min_value=1e-6, max_value=1e6)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    return DemandProfile(home_cluster=draw(st.sampled_from(_POOLS.clusters())), requests=requests)


class TestCoveringBundleProperties:
    @settings(max_examples=200, deadline=None)
    @given(profile=demand_profiles())
    def test_covering_bundle_matches_per_request_loop(self, profile):
        for cluster in [None, *_POOLS.clusters()]:
            got = profile.covering_bundle(_CATALOG, _POOLS, cluster)
            expected = _per_request_covering(profile, _CATALOG, cluster)
            assert list(got) == list(expected)
            assert [(type(v), v.hex()) for v in got.values()] == [
                (type(v), v.hex()) for v in expected.values()
            ]

    @settings(max_examples=50, deadline=None)
    @given(profile=demand_profiles())
    def test_unknown_cluster_raises_unless_nothing_is_requested(self, profile):
        if not profile.requests:
            assert profile.covering_bundle(_CATALOG, _POOLS, "nowhere") == {}
            return
        with pytest.raises(KeyError, match="unknown cluster 'nowhere'"):
            profile.covering_bundle(_CATALOG, _POOLS, "nowhere")
