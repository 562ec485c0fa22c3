"""Differential-equivalence harness for the two demand engines.

The repo's correctness story for every scaling change is "same bytes": the
scalar proxy loop is the reference implementation, and the batch engine
must reproduce its canonical reports and full round traces exactly.  This
module is that guarantee as a reusable, parametrised harness:

* :func:`assert_engines_equivalent` runs one catalog preset end to end on
  scalar and batch and asserts byte-identical canonical reports plus
  bitwise-identical per-auction round traces — it is applied to every
  non-stress preset below and is what ``make equivalence`` runs in CI;
* :class:`TestAuctionTraceEquivalence` is the auction-level harness (single
  auctions, hand-built populations);
* :class:`TestDemandRecordOwnership` pins the ownership contract behind the
  copy-free round recording: recorded demand arrays are caller-owned
  snapshots that later rounds never mutate;
* regression tests pin the round-0 drop-out demand recording,
  :class:`ConvergenceError` parity and evidence across engines, and the two
  retired engine labels the stress presets still carry.
"""

import json
import pickle

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.bundles import BundleSet
from repro.core.clock_auction import (
    AscendingClockAuction,
    AuctionConfig,
    ConvergenceError,
)
from repro.simulation.catalog import default_sweep_names, get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.runner import ScenarioRunResult

ENGINES = ("scalar", "batch")


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


def assert_outcomes_identical(reference, other):
    """Bitwise comparison of two :class:`AuctionOutcome` objects."""
    assert reference.round_count == other.round_count
    assert reference.converged == other.converged
    assert reference.final_prices.tobytes() == other.final_prices.tobytes()
    assert reference.excess_demand.tobytes() == other.excess_demand.tobytes()
    assert reference.final_demands.shape == other.final_demands.shape
    assert reference.final_demands.tobytes() == other.final_demands.tobytes()
    for ra, rb in zip(reference.rounds, other.rounds):
        assert ra.round_index == rb.round_index
        assert ra.prices.tobytes() == rb.prices.tobytes(), ra.round_index
        assert ra.excess_demand.tobytes() == rb.excess_demand.tobytes(), ra.round_index
        assert ra.active_bidders == rb.active_bidders, ra.round_index
        if ra.bidder_demands is None:
            assert rb.bidder_demands is None
        else:
            assert ra.bidder_demands.shape == rb.bidder_demands.shape, ra.round_index
            assert ra.bidder_demands.tobytes() == rb.bidder_demands.tobytes(), ra.round_index


def run_spec_with_traces(spec, engine):
    """Run one catalog spec on one engine, returning (canonical dict, outcomes)."""
    spec = spec.with_overrides(engine=engine)
    scenario = spec.build()
    sim = MarketEconomySimulation(
        scenario, drift_scale=spec.drift_scale, preliminary_runs=spec.preliminary_runs
    )
    history = sim.run(spec.auctions)
    result = ScenarioRunResult.from_history(spec, scenario, history)
    payload = result.to_dict()
    # The engine name is the one field that legitimately differs.
    assert payload.pop("engine") == engine
    outcomes = [period.record.result.outcome for period in history.periods]
    return payload, outcomes


def assert_engines_equivalent(spec):
    """Every engine produces byte-identical runs of ``spec``.

    Canonical reports are compared as sorted JSON bytes; the per-auction
    round traces (prices, excess demand, active-bidder counts, final
    demands) are compared bitwise.
    """
    reference_payload, reference_outcomes = run_spec_with_traces(spec, "scalar")
    payload, outcomes = run_spec_with_traces(spec, "batch")
    assert json.dumps(payload, sort_keys=True) == json.dumps(reference_payload, sort_keys=True), (
        f"{spec.name}: canonical report differs between scalar and batch"
    )
    assert len(outcomes) == len(reference_outcomes)
    for ref, got in zip(reference_outcomes, outcomes):
        assert_outcomes_identical(ref, got)


@pytest.mark.parametrize("name", default_sweep_names())
def test_preset_equivalent_across_engines(name):
    """Every non-stress catalog preset clears identically on both engines."""
    assert_engines_equivalent(get_scenario(name))


class TestAuctionTraceEquivalence:
    """Single-auction harness: hand-built populations, both engines."""

    def run_all(self, pool_index, bids, **kwargs):
        outcomes = {}
        for engine in ENGINES:
            auction = AscendingClockAuction(
                pool_index,
                bids,
                reserve_prices=kwargs.get("reserve_prices", unit_reserve(pool_index)),
                supply=kwargs.get("supply"),
                config=AuctionConfig(engine=engine, record_bidder_demands=True),
            )
            outcomes[engine] = auction.run()
        return outcomes

    def assert_identical(self, outcomes):
        assert_outcomes_identical(outcomes["scalar"], outcomes["batch"])

    def test_competing_buyers(self, pool_index):
        bids = [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 30}], max_payment=100.0 * (i + 1))
            for i in range(6)
        ]
        self.assert_identical(self.run_all(pool_index, bids))

    def test_buyers_sellers_traders(self, pool_index, rng):
        bids = mixed_bids(pool_index, rng)
        supply = np.full(len(pool_index), 25.0)
        self.assert_identical(self.run_all(pool_index, bids, supply=supply))

    def test_multi_bundle_xor_bids(self, pool_index):
        bids = [
            Bid.buy(
                f"t{i}",
                pool_index,
                [{"alpha/cpu": 20, "alpha/ram": 80}, {"beta/cpu": 20, "beta/ram": 80}],
                max_payment=400.0 + 100.0 * i,
            )
            for i in range(8)
        ]
        self.assert_identical(self.run_all(pool_index, bids))

    def test_decoupled_population(self, pool_index):
        # Bids that never couple alpha/* with beta/* pools: two clocks that
        # clear independently inside one auction.
        bids = []
        for i in range(10):
            cluster = "alpha" if i % 2 == 0 else "beta"
            bids.append(
                Bid.buy(
                    f"t{i}",
                    pool_index,
                    [{f"{cluster}/cpu": 10.0 + i, f"{cluster}/ram": 20.0}],
                    max_payment=150.0 + 40.0 * i,
                )
            )
        outcomes = self.run_all(pool_index, bids, supply=np.full(len(pool_index), 30.0))
        self.assert_identical(outcomes)


class TestDemandRecordOwnership:
    """The ownership contract behind copy-free round recording.

    ``_collect`` does not materialise the per-bid demand matrix, and ``run``
    does not defensively copy what it records: the matrix ``_last_demands``
    hands out is a caller-owned snapshot.  These tests pin that contract —
    if an engine ever starts handing out views into buffers it later
    mutates in place, the early rounds' records would silently decay into
    copies of the final round.
    """

    def competing_bids(self, pool_index):
        # Escalating budgets: bidders drop out over several rounds, so each
        # round's demand vectors genuinely differ from the final round's.
        return [
            Bid.buy(f"t{i}", pool_index, [{"alpha/cpu": 30}], max_payment=40.0 * (i + 1))
            for i in range(6)
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_recorded_rounds_survive_later_rounds(self, pool_index, engine):
        bids = self.competing_bids(pool_index)
        auction = AscendingClockAuction(
            pool_index,
            bids,
            reserve_prices=unit_reserve(pool_index),
            config=AuctionConfig(engine=engine, record_bidder_demands=True),
        )
        outcome = auction.run()
        assert outcome.round_count >= 2, "population must drop out over several rounds"
        # Re-announce each recorded round's prices on a fresh batch engine:
        # the recorded demands must still hold those rounds' values, not the
        # final round's (which they would if records aliased a live buffer).
        from repro.core.batch import BatchDemandEngine

        fresh = BatchDemandEngine(pool_index, bids)
        for round_state in outcome.rounds:
            expected = fresh.respond_all(round_state.prices).quantities
            assert round_state.bidder_demands.tobytes() == expected.tobytes(), (
                engine,
                round_state.round_index,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_final_demands_are_stable_snapshots(self, pool_index, engine):
        bids = self.competing_bids(pool_index)
        auction = AscendingClockAuction(
            pool_index,
            bids,
            reserve_prices=unit_reserve(pool_index),
            config=AuctionConfig(engine=engine),
        )
        outcome = auction.run()
        snapshot = outcome.final_demands.copy()
        # A later run on the same auction object must not corrupt the
        # previously returned outcome's demands.
        auction.run()
        assert outcome.final_demands.tobytes() == snapshot.tobytes(), engine


class TestRoundZeroDropoutDemands:
    """Regression: bidders that exit in round 0 must still be recorded.

    ``AuctionRound.bidder_demands`` (under ``record_bidder_demands``) must
    hold a row for *every* bid in every round — including bids whose proxy
    drops out at the reserve prices, whose recorded row is the zero vector
    — identically on both engines.
    """

    def test_round_zero_exit_recorded_by_every_engine(self, pool_index):
        bids = [
            Bid.buy("rich", pool_index, [{"alpha/cpu": 20}], max_payment=1e6),
            # Drops out immediately: the bundle costs 10 at the reserve
            # prices, far above the 0.5 limit.
            Bid.buy("out", pool_index, [{"alpha/cpu": 10}], max_payment=0.5),
            Bid.buy("rich2", pool_index, [{"alpha/ram": 30}], max_payment=1e6),
        ]
        outcomes = {}
        for engine in ENGINES:
            auction = AscendingClockAuction(
                pool_index,
                bids,
                reserve_prices=unit_reserve(pool_index),
                supply=np.full(len(pool_index), 15.0),
                config=AuctionConfig(engine=engine, record_bidder_demands=True),
            )
            outcomes[engine] = auction.run()
        for engine, outcome in outcomes.items():
            first = outcome.rounds[0]
            assert not first.bidder_demands[1].any(), engine
            for round_state in outcome.rounds:
                assert round_state.bidder_demands.shape == (len(bids), len(pool_index)), engine
        assert_outcomes_identical(outcomes["scalar"], outcomes["batch"])


class TestConvergenceErrorParity:
    """The failure modes raise the same error with the same message everywhere."""

    def circular_traders(self, pool_index):
        # Two traders passing quantity back and forth with limits that never
        # bind: excess demand persists on pools whose prices stop moving.
        return [
            Bid(
                bidder="ping",
                bundles=BundleSet(pool_index, [{"alpha/cpu": 10, "beta/cpu": -10}]),
                limit=1e9,
            ),
            Bid(
                bidder="pong",
                bundles=BundleSet(pool_index, [{"beta/cpu": 10, "alpha/cpu": -10}]),
                limit=1e9,
            ),
            Bid.buy("load", pool_index, [{"alpha/cpu": 50}], max_payment=1e9),
        ]

    def test_max_rounds_parity(self, pool_index):
        messages = {}
        for engine in ENGINES:
            auction = AscendingClockAuction(
                pool_index,
                self.circular_traders(pool_index),
                reserve_prices=unit_reserve(pool_index),
                config=AuctionConfig(engine=engine, max_rounds=5, stall_rounds=1000),
            )
            with pytest.raises(ConvergenceError) as excinfo:
                auction.run()
            messages[engine] = str(excinfo.value)
        assert len(set(messages.values())) == 1, messages
        assert "did not clear within 5 rounds" in messages["scalar"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_error_names_the_over_demanded_pools(self, pool_index, engine):
        auction = AscendingClockAuction(
            pool_index,
            self.circular_traders(pool_index),
            reserve_prices=unit_reserve(pool_index),
            config=AuctionConfig(engine=engine, max_rounds=5, stall_rounds=1000),
        )
        with pytest.raises(ConvergenceError) as excinfo:
            auction.run()
        error = excinfo.value
        # ping and pong cancel out; the load's 50 units of alpha/cpu remain.
        assert error.over_demanded == ("alpha/cpu",)
        assert error.excess_demand[pool_index.index_of("alpha/cpu")] == 50.0
        assert str(error).splitlines()[1] == "over-demanded pools: alpha/cpu"
        # The process and remote backends ship exceptions pickled, and
        # unpickling calls cls(*args).
        assert str(ConvergenceError(*error.args)) == str(error)
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.over_demanded == error.over_demanded
        assert clone.excess_demand.tobytes() == error.excess_demand.tobytes()

    def test_max_rounds_parity_decoupled(self, pool_index):
        # Insatiable buyers on two clusters no bid couples.
        bids = [
            Bid.buy("alpha-hog", pool_index, [{"alpha/cpu": 50}], max_payment=1e12),
            Bid.buy("beta-hog", pool_index, [{"beta/cpu": 50}], max_payment=1e12),
        ]
        messages = {}
        for engine in ENGINES:
            auction = AscendingClockAuction(
                pool_index,
                bids,
                reserve_prices=unit_reserve(pool_index),
                config=AuctionConfig(engine=engine, max_rounds=5, stall_rounds=1000),
            )
            with pytest.raises(ConvergenceError) as excinfo:
                auction.run()
            messages[engine] = str(excinfo.value)
        assert len(set(messages.values())) == 1, messages
        assert "did not clear within 5 rounds" in messages["scalar"]

    def test_stall_parity_decoupled(self, pool_index):
        class FrozenIncrement:
            """A pathological policy whose prices never move."""

            def increment(self, excess_demand, prices):
                return np.zeros_like(prices)

            def describe(self):
                return "frozen"

        bids = [
            Bid.buy("alpha-hog", pool_index, [{"alpha/cpu": 50}], max_payment=1e12),
            Bid.buy("beta-hog", pool_index, [{"beta/cpu": 50}], max_payment=1e12),
        ]
        messages = {}
        for engine in ENGINES:
            auction = AscendingClockAuction(
                pool_index,
                bids,
                reserve_prices=unit_reserve(pool_index),
                increment=FrozenIncrement(),
                config=AuctionConfig(engine=engine, stall_rounds=3),
            )
            with pytest.raises(ConvergenceError) as excinfo:
                auction.run()
            messages[engine] = str(excinfo.value)
            assert excinfo.value.over_demanded == ("alpha/cpu", "beta/cpu"), engine
        assert len(set(messages.values())) == 1, messages
        assert "stalled" in messages["scalar"]


@pytest.mark.parametrize("label", ["incremental", "sharded"])
def test_retired_engine_label_reports_match_batch(label):
    """The stress presets' retired engine labels run the batch engine.

    ``run_spec_with_traces`` drops the ``engine`` field after checking it,
    so the rest of the canonical report must be byte-identical to batch's.
    """
    spec = get_scenario("smoke")
    batch_payload, batch_outcomes = run_spec_with_traces(spec, "batch")
    retired_payload, retired_outcomes = run_spec_with_traces(spec, label)
    assert json.dumps(retired_payload, sort_keys=True) == json.dumps(batch_payload, sort_keys=True)
    assert len(retired_outcomes) == len(batch_outcomes)
    for ref, got in zip(batch_outcomes, retired_outcomes):
        assert_outcomes_identical(ref, got)
