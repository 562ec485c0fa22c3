"""Unit and integration tests for settlement, constraint checking, the exchange, and prices."""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.exchange import BidValidationError, CombinatorialExchange
from repro.core.prices import PriceTable, price_ratios
from repro.core.reserve import PAPER_PHI_1, FlatWeight, ReservePricer
from repro.core.settlement import (
    AmbiguousBidderError,
    Settlement,
    settle,
    verify_system_constraints,
)


def flat_prices(pool_index, value=1.0):
    return np.full(len(pool_index), value)


class TestSettle:
    def test_affordable_bid_wins_cheapest_bundle(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}, {"beta/cpu": 10}], max_payment=100.0)
        prices = flat_prices(pool_index, 2.0)
        prices[pool_index.index_of("beta/cpu")] = 1.0
        settlement = settle(pool_index, [bid], prices)
        line = settlement.line_for("t")
        assert line.won
        assert line.payment == pytest.approx(10.0)
        assert settlement.allocation_map("t") == {"beta/cpu": 10.0}

    def test_unaffordable_bid_loses(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 100}], max_payment=5.0)
        settlement = settle(pool_index, [bid], flat_prices(pool_index))
        line = settlement.line_for("t")
        assert not line.won
        assert line.payment == 0.0
        assert line.premium is None

    def test_premium_formula(self, pool_index):
        bid = Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=120.0)
        settlement = settle(pool_index, [bid], flat_prices(pool_index, 10.0))
        line = settlement.line_for("t")
        # pays 100, limit 120 -> premium |120-100|/100 = 0.2
        assert line.premium == pytest.approx(0.2)

    def test_seller_payment_is_negative(self, pool_index):
        bid = Bid.sell("s", pool_index, [{"alpha/cpu": 10}], min_revenue=20.0)
        settlement = settle(pool_index, [bid], flat_prices(pool_index, 5.0))
        line = settlement.line_for("s")
        assert line.won
        assert line.payment == pytest.approx(-50.0)
        assert line.premium == pytest.approx(abs(-20.0 - (-50.0)) / 50.0)

    def test_settled_fraction_and_winner_split(self, pool_index):
        bids = [
            Bid.buy("win", pool_index, [{"alpha/cpu": 1}], max_payment=100.0),
            Bid.buy("lose", pool_index, [{"alpha/cpu": 100}], max_payment=1.0),
        ]
        settlement = settle(pool_index, bids, flat_prices(pool_index))
        assert settlement.settled_fraction() == pytest.approx(0.5)
        assert [l.bidder for l in settlement.winners] == ["win"]
        assert [l.bidder for l in settlement.lines if not l.won] == ["lose"]

    def test_total_allocated_nets_buyers_and_sellers(self, pool_index):
        bids = [
            Bid.buy("b", pool_index, [{"alpha/cpu": 10}], max_payment=1e6),
            Bid.sell("s", pool_index, [{"alpha/cpu": 4}], min_revenue=0.0),
        ]
        settlement = settle(pool_index, bids, flat_prices(pool_index))
        assert settlement.total_allocated()[pool_index.index_of("alpha/cpu")] == pytest.approx(6.0)

    def test_line_for_unknown_bidder_raises(self, pool_index):
        settlement = settle(pool_index, [], flat_prices(pool_index))
        with pytest.raises(KeyError):
            settlement.line_for("ghost")

    @pytest.mark.parametrize("lookup", ["line_for", "allocation_map"])
    def test_by_name_lookup_of_a_team_with_two_bids_raises(self, pool_index, lookup):
        bids = [
            Bid.buy("t", pool_index, [{"alpha/cpu": 10}], max_payment=1.0),
            Bid.buy("t", pool_index, [{"beta/cpu": 10}], max_payment=100.0),
        ]
        settlement = settle(pool_index, bids, flat_prices(pool_index))
        assert [line.won for line in settlement.lines] == [False, True]
        with pytest.raises(AmbiguousBidderError, match="bidder 't' has 2 settlement lines"):
            getattr(settlement, lookup)("t")

    def test_wrong_price_shape_rejected(self, pool_index):
        with pytest.raises(ValueError):
            settle(pool_index, [], np.zeros(2))

    def test_empty_settlement_statistics(self, pool_index):
        settlement = settle(pool_index, [], flat_prices(pool_index))
        assert settlement.settled_fraction() == 0.0
        assert settlement.premiums() == []
        assert settlement.total_payments() == 0.0


class TestVerifySystemConstraints:
    def test_consistent_settlement_passes(self, pool_index):
        bids = [
            Bid.buy("b1", pool_index, [{"alpha/cpu": 10}], max_payment=100.0),
            Bid.buy("b2", pool_index, [{"beta/cpu": 500}], max_payment=1.0),
        ]
        supply = np.full(len(pool_index), 1000.0)
        settlement = settle(pool_index, bids, flat_prices(pool_index), supply=supply)
        report = verify_system_constraints(settlement, bids)
        assert report.satisfied, report.violations

    def test_overallocation_detected(self, pool_index):
        bids = [Bid.buy("b", pool_index, [{"alpha/cpu": 10}], max_payment=1e6)]
        settlement = settle(pool_index, bids, flat_prices(pool_index))  # zero supply
        report = verify_system_constraints(settlement, bids)
        assert not report.satisfied
        assert any("constraint 2" in v for v in report.violations)

    def test_tampered_allocation_detected(self, pool_index):
        bids = [Bid.buy("b", pool_index, [{"alpha/cpu": 10}], max_payment=1e6)]
        supply = np.full(len(pool_index), 1000.0)
        settlement = settle(pool_index, bids, flat_prices(pool_index), supply=supply)
        # tamper: allocate a bundle that is not in Q_u
        line = settlement.lines[0]
        tampered = line.allocation.copy()
        tampered[pool_index.index_of("beta/cpu")] = 3.0
        settlement.lines[0] = type(line)(
            bidder=line.bidder,
            won=True,
            allocation=tampered,
            payment=line.payment,
            limit=line.limit,
            bundle_index=line.bundle_index,
        )
        report = verify_system_constraints(settlement, bids)
        assert any("constraint 1" in v for v in report.violations)

    def test_negative_price_detected(self, pool_index):
        settlement = Settlement(
            index=pool_index,
            prices=np.full(len(pool_index), -1.0),
            lines=[],
            supply=np.zeros(len(pool_index)),
        )
        report = verify_system_constraints(settlement, [])
        assert any("constraint 6" in v for v in report.violations)

    def test_unknown_bidder_in_settlement_detected(self, pool_index):
        bids = [Bid.buy("b", pool_index, [{"alpha/cpu": 1}], max_payment=10.0)]
        settlement = settle(pool_index, bids, flat_prices(pool_index), supply=np.full(len(pool_index), 10.0))
        report = verify_system_constraints(settlement, [])
        assert any("unknown bidder" in v for v in report.violations)


class TestCombinatorialExchange:
    def make_bids(self, pool_index, n=10, seed=0, payment_scale=3.0):
        rng = np.random.default_rng(seed)
        bids = []
        clusters = pool_index.clusters()
        for i in range(n):
            cluster = clusters[int(rng.integers(len(clusters)))]
            cpu = float(rng.uniform(5, 50))
            bundle = {f"{cluster}/cpu": cpu, f"{cluster}/ram": cpu * 4, f"{cluster}/disk": cpu * 50}
            cost = sum(q * pool_index.pool(k).unit_cost for k, q in bundle.items())
            bids.append(
                Bid.buy(f"team-{i}", pool_index, [bundle], max_payment=cost * float(rng.uniform(0.5, payment_scale)))
            )
        return bids

    def test_end_to_end_constraints_satisfied(self, pool_index):
        exchange = CombinatorialExchange(pool_index)
        result = exchange.run(self.make_bids(pool_index, 12))
        assert result.outcome.converged
        assert result.constraints.satisfied, result.constraints.violations
        assert 0.0 <= result.settlement.settled_fraction() <= 1.0

    def test_reserve_prices_reflect_congestion(self, pool_index):
        exchange = CombinatorialExchange(pool_index, weighting=PAPER_PHI_1)
        reserve = exchange.reserve_prices()
        assert reserve[pool_index.index_of("alpha/cpu")] > pool_index.pool("alpha/cpu").unit_cost
        assert reserve[pool_index.index_of("beta/cpu")] < pool_index.pool("beta/cpu").unit_cost

    def test_operator_supply_fraction(self, pool_index):
        full = CombinatorialExchange(pool_index, operator_supply_fraction=1.0)
        half = CombinatorialExchange(pool_index, operator_supply_fraction=0.5)
        none = CombinatorialExchange(pool_index, operator_supply_fraction=0.0)
        np.testing.assert_allclose(half.operator_supply(), full.operator_supply() * 0.5)
        assert not np.any(none.operator_supply())
        with pytest.raises(ValueError):
            CombinatorialExchange(pool_index, operator_supply_fraction=1.5)

    def test_invalid_bid_raises_bid_validation_error(self, pool_index):
        empty_bid = Bid(bidder="bad", bundles=BundleSet(pool_index, [np.zeros(len(pool_index))]), limit=1.0)
        exchange = CombinatorialExchange(pool_index)
        with pytest.raises(BidValidationError):
            exchange.run([empty_bid])

    def test_accepts_reserve_pricer_instance(self, pool_index):
        pricer = ReservePricer(weighting=FlatWeight(1.0))
        exchange = CombinatorialExchange(pool_index, weighting=pricer)
        np.testing.assert_allclose(exchange.reserve_prices(), pool_index.unit_costs())

    def test_summary_and_price_ratio(self, pool_index):
        exchange = CombinatorialExchange(pool_index)
        result = exchange.run(self.make_bids(pool_index, 8))
        fixed = {pool.name: pool.unit_cost for pool in pool_index}
        ratios = result.price_ratio_to(fixed)
        assert set(ratios) == set(pool_index.names)
        assert all(r >= 0 for r in ratios.values())

    def test_preliminary_prices_match_full_run(self, pool_index):
        exchange = CombinatorialExchange(pool_index)
        bids = self.make_bids(pool_index, 6)
        np.testing.assert_allclose(
            exchange.preliminary_prices(bids).prices, exchange.run(bids).final_prices.prices
        )

    def test_congested_cluster_prices_rise_more(self, pool_index):
        # Demand directed at both clusters equally: the congested cluster
        # (alpha, 90% utilized) has far less operator supply, so its price
        # ratio to cost must exceed the idle cluster's.
        bids = []
        for i in range(10):
            for cluster in ("alpha", "beta"):
                bundle = {f"{cluster}/cpu": 30.0, f"{cluster}/ram": 120.0}
                cost = sum(q * pool_index.pool(k).unit_cost for k, q in bundle.items())
                bids.append(Bid.buy(f"{cluster}-t{i}", pool_index, [bundle], max_payment=cost * 5))
        exchange = CombinatorialExchange(pool_index)
        result = exchange.run(bids)
        ratios = result.price_ratio_to({p.name: p.unit_cost for p in pool_index})
        assert ratios["alpha/cpu"] > ratios["beta/cpu"]


class TestPriceTable:
    def test_validation(self, pool_index):
        with pytest.raises(ValueError):
            PriceTable(index=pool_index, prices=np.zeros(2))
        with pytest.raises(ValueError):
            PriceTable(index=pool_index, prices=np.full(len(pool_index), -1.0))

    def test_lookups(self, pool_index):
        table = PriceTable(index=pool_index, prices=np.arange(1.0, len(pool_index) + 1.0))
        assert table.as_map()["alpha/cpu"] == 1.0
        assert table.as_map()["beta/disk"] == float(len(pool_index))

    def test_price_ratios_function(self):
        ratios = price_ratios({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 2.0})
        assert ratios == {"a": 2.0, "b": 0.5}
        assert price_ratios({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 0.0}) == {"a": float("inf"), "b": 1.0}
        with pytest.raises(KeyError):
            price_ratios({"a": 1.0}, {})
