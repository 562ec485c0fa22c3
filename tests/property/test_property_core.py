"""Property-based tests (hypothesis) for the core market mechanism.

These pin down the invariants the paper's SYSTEM formulation demands, over
randomly generated bid populations rather than hand-picked examples:

* the clock auction's prices never decrease and never fall below the reserve;
* a converged auction has no positive excess demand;
* settlements always satisfy the six SYSTEM constraints;
* winners never pay more than their limit and always get their cheapest bundle;
* the premium gamma_u is non-negative whenever defined;
* a bundle set's cached sign structure matches classifying each row on its
  own, a set built from ``(column, amount)`` pairs has the array path's bytes
  and facts, and a team's covering bundle matches covering each request in
  turn;
* the rows strategies write at pool columns, and the costs they sum by
  position, equal the name-keyed covering bundle's vector and cost bit for
  bit, and placing amounts keeps the name-keyed path's errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.base import DemandProfile, MarketView, TeamAgent
from repro.agents.learning import AdaptiveMarginModel
from repro.agents.relocation import RelocationCostModel
from repro.agents.strategies import (
    ArbitrageurStrategy,
    FixedPriceAnchorStrategy,
    LowballStrategy,
    MarketTrackerStrategy,
    PremiumPayerStrategy,
    RelocatorStrategy,
    SellerStrategy,
    _bundle_cost,
    _buy_bid,
    _home_bundle,
)
from repro.cluster.pools import PoolIndex, ResourcePool, demo_pool_index
from repro.cluster.resources import RESOURCE_TYPES, ResourceType, cpu_ram_disk
from repro.core.bids import Bid, validate_bid
from repro.core.bundles import BundleKind, BundleSet, bundle_kind
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig
from repro.core.increment import default_increment
from repro.core.reserve import PAPER_PHI_1, ReservePricer
from repro.core.settlement import settle, verify_system_constraints
from repro.market.services import ServiceCatalog, ServiceRequest, ServiceSpec, default_catalog

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
            assert bundle_set.offers_any() == bool(np.any(matrix < 0))
            finite = bool(np.all(np.isfinite(matrix)))
            assert bundle_set.all_finite() == finite
            problems = validate_bid(Bid("b", bundle_set, limit=0.0))
            assert ("bundle quantities contain non-finite values" in problems) == (not finite)

    @settings(max_examples=300, deadline=None)
    @given(rows=_matrices)
    def test_sets_built_from_columns_match_the_array_path(self, rows):
        matrix = np.array(rows, dtype=float)
        reference = BundleSet(_POOLS, matrix)
        every = [list(enumerate(row)) for row in rows]
        nonzero = [[(j, x) for j, x in enumerate(row) if x != 0] for row in rows]
        # Left out, a signed zero is stored as the +0.0 the row starts with.
        for bundles, stored in ((every, matrix), (nonzero, np.where(matrix == 0, 0.0, matrix))):
            bundle_set = BundleSet.from_columns(_POOLS, bundles)
            assert bundle_set.matrix.tobytes() == stored.tobytes()
            assert bundle_set.kinds() == reference.kinds()
            assert bundle_set.aggregate_kind() is reference.aggregate_kind()
            assert bundle_set.offers_any() is reference.offers_any()
            assert bundle_set.all_finite() is reference.all_finite()
            assert validate_bid(Bid("b", bundle_set, limit=0.0)) == validate_bid(Bid("b", reference, limit=0.0))


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
def demand_profiles(draw, catalog=_CATALOG):
    requests = [
        ServiceRequest(
            service=draw(st.sampled_from(catalog.names())),
            cluster=draw(st.sampled_from(_POOLS.clusters())),
            quantity=draw(st.floats(min_value=1e-6, max_value=1e6)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    return DemandProfile(home_cluster=draw(st.sampled_from(_POOLS.clusters())), requests=requests)


# Both clusters hold all three pools; c1 lists them disk, ram, cpu, so a
# resource's position and its pool's column differ.
_POOLS_3 = PoolIndex(
    [
        ResourcePool(cluster="c0", rtype=rtype, capacity=1_000.0, unit_cost=1.0, utilization=0.6)
        for rtype in (ResourceType.CPU, ResourceType.RAM, ResourceType.DISK)
    ]
    + [
        ResourcePool(cluster="c1", rtype=rtype, capacity=1_000.0, unit_cost=1.0, utilization=0.3)
        for rtype in (ResourceType.DISK, ResourceType.RAM, ResourceType.CPU)
    ]
)

# Services that skip CPU or disk: a team whose first request is "ram_disk"
# covers ram, disk and only then cpu, not in RESOURCE_TYPES order.
_SKIPPING_CATALOG = ServiceCatalog()
for _name, _coverage in (
    ("ram_only", cpu_ram_disk(0.0, 2.5, 0.0)),
    ("ram_disk", cpu_ram_disk(0.0, 1.5, 300.0)),
    ("cpu_ram", cpu_ram_disk(3.0, 5.0, 0.0)),
    ("disk_cpu", cpu_ram_disk(0.7, 0.0, 50.0)),
):
    _SKIPPING_CATALOG.register(ServiceSpec(_name, "unit", _coverage))

_CATALOGS = [pytest.param(_CATALOG, id="default"), pytest.param(_SKIPPING_CATALOG, id="skipping")]

_prices = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=len(_POOLS_3), max_size=len(_POOLS_3))


def _reference_cost(bundle, prices):
    """The name-keyed cost: Python's sum over the bundle's pools in its order."""
    return float(sum(qty * prices[name] for name, qty in bundle.items()))


def _view(displayed, fixed):
    return MarketView(
        index=_POOLS_3,
        displayed_prices=dict(zip(_POOLS_3.names, displayed)),
        fixed_prices=dict(zip(_POOLS_3.names, fixed)),
        auction_number=1,
    )


def _zero_margin():
    return AdaptiveMarginModel(initial_margin=0.0, floor=0.0)


def _hex(value):
    return float(value).hex()


def _buy_strategies():
    return [
        FixedPriceAnchorStrategy(),
        LowballStrategy(),
        PremiumPayerStrategy(),
        MarketTrackerStrategy(alternatives=1),
        RelocatorStrategy(),
        ArbitrageurStrategy(),
    ]


def _rng_state(strategy):
    rng = getattr(strategy, "rng", None)
    return None if rng is None else rng.bit_generator.state


def _demo_view(index):
    prices = {name: pool.unit_cost for name, pool in zip(index.names, index.pools)}
    return MarketView(index=index, displayed_prices=prices, fixed_prices=dict(prices), auction_number=1)


class TestCoveringBundleProperties:
    @settings(max_examples=200, deadline=None)
    @given(profile=demand_profiles())
    def test_covering_bundle_matches_per_request_loop(self, profile):
        for cluster in [None, *_POOLS_3.clusters()]:
            got = profile.covering_bundle(_CATALOG, _POOLS_3, cluster)
            expected = _per_request_covering(profile, _CATALOG, cluster)
            assert list(got) == list(expected)
            assert [(type(v), v.hex()) for v in got.values()] == [
                (type(v), v.hex()) for v in expected.values()
            ]
        # _POOLS holds no disk pool, and every default service covers disk.
        for cluster in _POOLS.clusters():
            if not profile.requests:
                assert profile.covering_bundle(_CATALOG, _POOLS, cluster) == {}
                continue
            with pytest.raises(KeyError, match=f"unknown pool '{cluster}/disk'"):
                profile.covering_bundle(_CATALOG, _POOLS, cluster)

    @settings(max_examples=50, deadline=None)
    @given(profile=demand_profiles())
    def test_unknown_cluster_raises_unless_nothing_is_requested(self, profile):
        if not profile.requests:
            assert profile.covering_bundle(_CATALOG, _POOLS, "nowhere") == {}
            return
        with pytest.raises(KeyError, match="unknown cluster 'nowhere'"):
            profile.covering_bundle(_CATALOG, _POOLS, "nowhere")

    # Strategies place covering amounts at pool columns and price them by
    # position: each row and each cost must equal the name-keyed reference
    # (``_per_request_covering``, ``index.vector`` and a sum over the dict)
    # bit for bit, whatever order the resources first appear in.
    @pytest.mark.parametrize("catalog", _CATALOGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_and_costs_in_every_cluster(self, catalog, data):
        profile = data.draw(demand_profiles(catalog))
        displayed, fixed = data.draw(_prices), data.draw(_prices)
        view = _view(displayed, fixed)
        agent = TeamAgent("t", demand=profile, strategy=None, catalog=catalog)
        amounts = catalog.covering_amounts(profile.requests)
        assert [(RESOURCE_TYPES[position].value, _hex(amount)) for position, amount in amounts] == [
            (name.split("/")[1], _hex(qty)) for name, qty in _per_request_covering(profile, catalog, "c0").items()
        ]
        for cluster in _POOLS_3.clusters():
            reference = _per_request_covering(profile, catalog, cluster)
            bundle = _home_bundle(agent, view, cluster)
            if not reference:
                assert bundle == []
                continue
            row = _buy_bid(agent, view, [bundle], 0.0).bundles.matrix[0]
            assert row.tobytes() == _POOLS_3.vector(reference).tobytes()
            for prices, price_list in ((view.displayed_prices, view.displayed_price_list),
                                       (view.fixed_prices, view.fixed_price_list)):
                assert _hex(_bundle_cost(bundle, price_list)) == _hex(_reference_cost(reference, prices))

    @pytest.mark.parametrize("catalog", _CATALOGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_strategy_prices_the_reference(self, catalog, data):
        profile = data.draw(demand_profiles(catalog))
        view = _view(data.draw(_prices), data.draw(_prices))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        home = profile.home_cluster
        reference = {c: _per_request_covering(profile, catalog, c) for c in _POOLS_3.clusters()}
        cost = {c: _reference_cost(reference[c], view.displayed_prices) for c in reference}

        def bids(strategy, holdings=None):
            agent = TeamAgent("t", demand=profile, strategy=strategy, catalog=catalog)
            agent.holdings = dict(holdings or {})
            return agent.prepare_bids(view)

        def assert_rows(bid, clusters, sign=1.0):
            expected = [sign * np.abs(_POOLS_3.vector(reference[c])) for c in clusters]
            assert [row.tobytes() for row in bid.bundles.matrix] == [row.tobytes() for row in expected]

        if not profile.requests:
            for strategy in (FixedPriceAnchorStrategy(), LowballStrategy(), PremiumPayerStrategy(),
                             MarketTrackerStrategy(), RelocatorStrategy()):
                assert bids(strategy) == []
            return

        (bid,) = bids(FixedPriceAnchorStrategy(margin=0.0, jitter=0.0))
        assert_rows(bid, [home])
        assert _hex(bid.limit) == _hex(_reference_cost(reference[home], view.fixed_prices))

        (bid,) = bids(PremiumPayerStrategy(premium=0.0))
        assert _hex(bid.limit) == _hex(cost[home])

        fraction = 0.35
        (bid,) = bids(LowballStrategy(fraction=fraction, rng=np.random.default_rng(seed)))
        draw = float(np.random.default_rng(seed).uniform(0.5, 1.0))
        assert _hex(bid.limit) == _hex(cost[home] * fraction * draw)

        (bid,) = bids(MarketTrackerStrategy(margins=_zero_margin(), alternatives=1))
        clusters = [home] + [c for c in view.cheapest_clusters() if c != home]
        assert_rows(bid, clusters)
        assert _hex(bid.limit) == _hex(min(cost[c] for c in clusters))

        free_moves = RelocationCostModel(base_cost=0.0, cost_per_distance=0.0, cost_per_unit=0.0)
        (bid,) = bids(RelocatorStrategy(relocation=free_moves, margins=_zero_margin()))
        candidates = bid.metadata["candidates"]
        assert candidates == [home] + [c for c in view.cheapest_clusters() if c != home and cost[c] < cost[home]]
        assert_rows(bid, candidates)
        assert _hex(bid.limit) == _hex(min(cost[c] for c in candidates))

        holdings = reference[home]
        (bid,) = bids(SellerStrategy(offer_fraction=1.0, reserve_discount=1.0, utilization_threshold=0.0), holdings)
        assert_rows(bid, [home], sign=-1.0)
        assert _hex(bid.limit) == _hex(-_reference_cost(holdings, view.displayed_prices))

        arbitrageur = ArbitrageurStrategy(cost_basis={name: 0.0 for name in holdings})
        sell, buy = bids(arbitrageur, holdings)
        assert_rows(sell, [home], sign=-1.0)
        assert _hex(sell.limit) == _hex(-(_reference_cost(holdings, view.displayed_prices) * 0.8))
        cheapest = view.cheapest_clusters(limit=1)[0]
        assert_rows(buy, [cheapest])
        assert _hex(buy.limit) == _hex(cost[cheapest] * 1.05)

    # Placing amounts at columns keeps the errors of the name-keyed path.
    @pytest.mark.parametrize("strategy", _buy_strategies(), ids=lambda s: type(s).__name__)
    def test_a_cluster_without_a_covered_pool_names_the_pool(self, strategy):
        index = demo_pool_index()  # cpu and ram pools only
        demand = DemandProfile("a", [ServiceRequest("batch_compute", "a", 2.0)])
        agent = TeamAgent("t", demand=demand, strategy=strategy, catalog=default_catalog())
        with pytest.raises(KeyError, match="(a|b)/disk"):
            agent.prepare_bids(_demo_view(index))
        with pytest.raises(KeyError, match="a/disk"):
            _home_bundle(agent, _demo_view(index))

    @pytest.mark.parametrize("strategy", _buy_strategies()[:5], ids=lambda s: type(s).__name__)
    def test_an_unknown_cluster_raises_only_when_something_is_requested(self, strategy):
        demand = DemandProfile("nowhere", [ServiceRequest("batch_compute", "nowhere", 2.0)])
        agent = TeamAgent("t", demand=demand, strategy=strategy, catalog=default_catalog())
        with pytest.raises(KeyError, match="unknown cluster 'nowhere'"):
            agent.prepare_bids(_view([1.0] * len(_POOLS_3), [1.0] * len(_POOLS_3)))
        agent.demand = DemandProfile("nowhere", [])
        state = _rng_state(strategy)
        assert agent.prepare_bids(_view([1.0] * len(_POOLS_3), [1.0] * len(_POOLS_3))) == []
        assert _rng_state(strategy) == state  # returned before drawing

    def test_a_view_without_a_price_names_the_pool(self):
        index = demo_pool_index()
        catalog = ServiceCatalog()
        catalog.register(ServiceSpec("cache", "GiB cached", cpu_ram_disk(0.5, 1.0, 0.0)))
        agent = TeamAgent("t", demand=DemandProfile("a", [ServiceRequest("cache", "a", 8.0)]),
                          strategy=PremiumPayerStrategy(), catalog=catalog)
        view = _demo_view(index)
        del view.displayed_prices["b/ram"]
        with pytest.raises(KeyError, match="b/ram"):
            agent.prepare_bids(view)
