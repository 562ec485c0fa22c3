"""The quota matrix, the coverage kernel and the lazy epoch views against their references.

``QuotaRegistry`` keeps one ``(teams, R)`` matrix, the market's coverage is
read from two holdings matrices one block of teams at a time, every outcome
goes through one metrics kernel, and an epoch derives its Figure 6/7 views on
first read.  The references below are the earlier code: a registry of one
vector per team in a dict, a market outcome rebuilt from two name-keyed
snapshots (its unrequested teams taken in registration order), the
dict-walking metrics loop, and views computed eagerly at the end of each
epoch.  Every value must match bit for bit, error text included.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.allocation import (
    AllocationOutcome,
    QuotaRequest,
    allocation_metrics,
    market_outcome_from_quota_delta,
)
from repro.analysis.price_ratio import price_ratio_table
from repro.analysis.utilization_stats import migration_summary, settled_trades
from repro.cluster.pools import PoolIndex
from repro.cluster.utilization import utilization_spread
from repro.market.quotas import QuotaError, QuotaRegistry
from repro.simulation.catalog import get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.runner import ScenarioRunResult
from repro.simulation.workload import demands_from_agents
from tests.conftest import build_pool_index

INDEX = build_pool_index({"alpha": 0.9, "beta": 0.3, "gamma": 0.5}, capacity_scale=50.0)
NAMES = INDEX.names
R = len(INDEX)


# -- references: the earlier code ------------------------------------------------------------


@dataclass
class DictQuotaRegistry:
    """Per-team quota holdings, one vector per team in a dict."""

    index: PoolIndex
    holdings: dict[str, np.ndarray] = field(default_factory=dict)

    def ensure_team(self, team):
        if team not in self.holdings:
            self.holdings[team] = np.zeros(len(self.index), dtype=float)
        return self.holdings[team]

    def teams(self):
        return list(self.holdings)

    def quota(self, team, pool_name):
        if team not in self.holdings:
            return 0.0
        return float(self.holdings[team][self.index.index_of(pool_name)])

    def holdings_map(self, team):
        return self.index.describe(self.ensure_team(team))

    def grant(self, team, quantities):
        vec = (
            quantities
            if isinstance(quantities, np.ndarray)
            else self.index.vector(dict(quantities))
        )
        if np.any(vec < 0):
            raise QuotaError("grants must be non-negative; use apply_delta for trades")
        self.ensure_team(team)
        self.holdings[team] = self.holdings[team] + vec

    def apply_delta(self, team, delta, *, allow_negative=False):
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (len(self.index),):
            raise ValueError("delta has the wrong length")
        holding = self.ensure_team(team)
        updated = holding + delta
        if not allow_negative and np.any(updated < -1e-9):
            short = self.index.pools[int(np.argmin(updated))].name
            raise QuotaError(
                f"{team} would hold negative quota in {short}: {float(updated.min()):.3f}"
            )
        self.holdings[team] = updated

    def can_offer(self, team, quantities):
        holding = self.ensure_team(team)
        for name, qty in quantities.items():
            if qty < 0:
                qty = -qty
            if holding[self.index.index_of(name)] < qty - 1e-9:
                return False
        return True

    def total_provisioned(self):
        total = np.zeros(len(self.index), dtype=float)
        for vec in self.holdings.values():
            total = total + vec
        return total

    def snapshot(self):
        return {team: self.index.describe(vec) for team, vec in self.holdings.items()}


def reference_cost_weighted(index, quantities):
    return float(np.dot(np.clip(quantities, 0.0, None), index.unit_costs()))


def reference_metrics(index, policy, requested, granted):
    """The metrics loop over ``{team: vector}`` dicts, teams in ``requested`` order."""
    total = np.zeros(len(index))
    for vec in granted.values():
        total += vec
    surplus = np.clip(index.available() - total, 0.0, None)
    shortage_cost = 0.0
    satisfied = 0
    requested_cost_total = 0.0
    granted_cost_total = 0.0
    teams = list(requested)
    for team in teams:
        requested_cost = reference_cost_weighted(index, requested[team])
        granted_cost = reference_cost_weighted(index, granted.get(team, np.zeros(len(index))))
        requested_cost_total += requested_cost
        granted_cost_total += granted_cost
        shortage_cost += max(0.0, requested_cost - granted_cost)
        if granted_cost >= requested_cost * (1.0 - 1e-6):
            satisfied += 1
    capacities = np.maximum(index.capacities(), 1e-9)
    used = index.utilizations() * capacities + np.clip(total, 0.0, None)
    return (
        policy,
        shortage_cost,
        reference_cost_weighted(index, surplus),
        utilization_spread(np.clip(used / capacities, 0.0, 1.0)),
        satisfied / len(teams) if teams else 1.0,
        (granted_cost_total / requested_cost_total) if requested_cost_total > 0 else 1.0,
    )


def reference_market_metrics(index, demands, initial_holdings, final_holdings):
    """QuotaRequests from the demands, grants from two snapshots, then the metrics loop."""
    requests = [
        QuotaRequest(team=team, quantities=dict(quantities))
        for team, quantities in demands.items()
        if quantities
    ]
    requested: dict[str, np.ndarray] = {}
    granted: dict[str, np.ndarray] = {}

    def record(team, wanted, got):
        requested[team] = requested.setdefault(team, np.zeros(len(index))) + wanted
        granted[team] = granted.setdefault(team, np.zeros(len(index))) + got

    granted_by_team: dict[str, np.ndarray] = {}
    # Registration order: the initial snapshot's teams are a prefix of the final's.
    for team in dict.fromkeys([*initial_holdings, *final_holdings]):
        initial = index.vector(dict(initial_holdings.get(team, {})))
        final = index.vector(dict(final_holdings.get(team, {})))
        granted_by_team[team] = np.clip(final - initial, 0.0, None)
    for request in requests:
        wanted = index.vector(dict(request.quantities))
        record(request.team, wanted, granted_by_team.pop(request.team, np.zeros(len(index))))
    for team, got in granted_by_team.items():
        if np.any(got > 0):
            record(team, np.zeros(len(index)), got)
    return reference_metrics(index, "market", requested, granted)


def metrics_tuple(metrics):
    return (
        metrics.policy,
        metrics.shortage_cost,
        metrics.surplus_cost,
        metrics.utilization_spread,
        metrics.satisfied_fraction,
        metrics.grant_rate,
    )


# -- strategies -----------------------------------------------------------------------------

#: Quantities that probe the zero tolerance (1e-12), the offer slack (1e-9) and signs.
quantities = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, 1e-9, -2e-9, 1.0, -1.0]),
    st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
)
pool_maps = st.dictionaries(st.sampled_from(NAMES), quantities, max_size=4)
vectors = st.lists(quantities, min_size=R, max_size=R).map(lambda v: np.array(v, dtype=float))


@st.composite
def op_sequences(draw, *, min_teams=1, max_teams=300):
    """A team count, a registration order over all teams, then a list of operations."""
    team_count = draw(st.integers(min_teams, max_teams))
    order = draw(st.permutations(range(team_count)))
    team = st.integers(0, team_count - 1)
    op = st.one_of(
        st.tuples(st.just("register"), team),
        st.tuples(st.just("grant_map"), team, pool_maps),
        st.tuples(st.just("grant_vector"), team, vectors),
        st.tuples(st.just("delta"), team, vectors, st.booleans()),
        st.tuples(st.just("can_offer"), team, pool_maps),
        st.tuples(st.just("quota"), team, st.sampled_from(NAMES)),
    )
    registered = draw(st.integers(0, team_count))
    return team_count, list(order[:registered]), draw(st.lists(op, max_size=40))


def run_op(registry, op):
    """Apply one operation; returns its result, or the raised error's type and text."""
    kind, team, *args = op
    name = f"team-{team}"
    try:
        if kind == "register":
            return registry.ensure_team(name).tolist()
        if kind in ("grant_map", "grant_vector"):
            return registry.grant(name, args[0])
        if kind == "delta":
            return registry.apply_delta(name, args[0], allow_negative=args[1])
        if kind == "can_offer":
            return registry.can_offer(name, args[0])
        return registry.quota(name, args[0])
    except (QuotaError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def both_registries(order, ops):
    matrix, reference = QuotaRegistry(INDEX), DictQuotaRegistry(INDEX)
    for team in order:
        assert run_op(matrix, ("register", team)) == run_op(reference, ("register", team))
    for op in ops:
        assert run_op(matrix, op) == run_op(reference, op), op
    return matrix, reference


# -- the registry -----------------------------------------------------------------------------


class TestQuotaMatrixMatchesDictRegistry:
    @settings(max_examples=80, deadline=None)
    @given(sequence=op_sequences())
    def test_every_view_matches(self, sequence):
        team_count, order, ops = sequence
        matrix, reference = both_registries(order, ops)
        assert matrix.teams() == reference.teams()
        snapshot, expected = matrix.snapshot(), reference.snapshot()
        assert list(snapshot) == list(expected)
        for team in expected:
            assert list(snapshot[team].items()) == list(expected[team].items())
        assert np.array_equal(matrix.total_provisioned(), reference.total_provisioned())
        for pool in NAMES:
            for team in range(team_count):
                name = f"team-{team}"
                assert matrix.quota(name, pool) == reference.quota(name, pool)
        # holdings_maps registers missing teams in the order given, as one
        # holdings_map call per team does.
        teams = [f"team-{t}" for t in range(team_count)]
        maps = matrix.holdings_maps(teams)
        for name, held in zip(teams, maps):
            assert list(held.items()) == list(reference.holdings_map(name).items())
            assert list(matrix.holdings_map(name).items()) == list(held.items())
        assert matrix.teams() == reference.teams()

    def test_growth_keeps_every_row(self):
        matrix = QuotaRegistry(INDEX)
        for team in range(600):
            matrix.grant(f"t{team}", np.full(R, float(team)))
        assert matrix.teams() == [f"t{team}" for team in range(600)]
        assert np.array_equal(
            matrix.matrix(), np.repeat(np.arange(600.0), R).reshape(600, R)
        )

    def test_holdings_of_rejects_rows_outside_the_registry(self):
        matrix = QuotaRegistry(INDEX)
        matrix.ensure_team("a")
        with pytest.raises(IndexError):
            matrix.holdings_of(np.array([1]))


# -- the coverage kernel ----------------------------------------------------------------------

demand_maps = st.dictionaries(
    st.sampled_from(NAMES),
    st.one_of(st.sampled_from([0.0, 1e-13, 1.0]), st.floats(0.0, 200.0)),
    max_size=4,
)


@st.composite
def coverage_cases(draw, *, min_teams=1, max_teams=300):
    """Registry ops before and after the market's start, and the epoch's demands."""
    team_count, order, before = draw(op_sequences(min_teams=min_teams, max_teams=max_teams))
    after = draw(st.lists(
        st.one_of(
            st.tuples(st.just("grant_vector"), st.integers(0, team_count - 1), vectors),
            st.tuples(st.just("delta"), st.integers(0, team_count - 1), vectors, st.just(True)),
            st.tuples(st.just("register"), st.integers(0, team_count + 20)),
        ),
        max_size=40,
    ))
    # Some demanding teams are unregistered, some demands are empty.
    demanders = draw(st.lists(st.integers(0, team_count + 20), unique=True, max_size=team_count + 5))
    demands = {f"team-{team}": draw(demand_maps) for team in demanders}
    return order, before, after, demands


def both_metrics(case):
    order, before, after, demands = case
    matrix, reference = both_registries(order, before)
    initial_matrix, initial_snapshot = matrix.matrix(), reference.snapshot()
    for op in after:
        assert run_op(matrix, op) == run_op(reference, op)
    actual = metrics_tuple(
        allocation_metrics(market_outcome_from_quota_delta(INDEX, demands, initial_matrix, matrix))
    )
    return actual, reference_market_metrics(INDEX, demands, initial_snapshot, reference.snapshot())


class TestCoverageKernelMatchesSnapshotPath:
    @settings(max_examples=80, deadline=None)
    @given(case=coverage_cases())
    def test_all_five_fields_match(self, case):
        actual, expected = both_metrics(case)
        assert actual == expected

    @settings(max_examples=10, deadline=None)
    @given(case=coverage_cases(min_teams=257, max_teams=300))
    def test_more_than_one_block(self, case):
        actual, expected = both_metrics(case)
        assert actual == expected

    def test_many_grants_over_several_blocks(self):
        # 300 teams with a demand and about 300 acquirers without one, each
        # spanning two blocks; the amounts differ in magnitude from team to
        # team and stay below the pools' free capacity, where surplus clips.
        rng = np.random.default_rng(3)
        matrix, reference = QuotaRegistry(INDEX), DictQuotaRegistry(INDEX)
        teams = [f"team-{t}" for t in range(600)]
        for registry in (matrix, reference):
            for team in teams:
                registry.ensure_team(team)
        initial_matrix, initial_snapshot = matrix.matrix(), reference.snapshot()
        deltas = rng.normal(0.0, 0.01, size=(600, R)) * 10.0 ** rng.integers(-4, 1, size=(600, R))
        for registry in (matrix, reference):
            for team, delta in zip(teams, deltas):
                registry.apply_delta(team, delta, allow_negative=True)
        demands = {team: dict(zip(NAMES, rng.random(R) * 100.0)) for team in teams[::2]}
        outcome = market_outcome_from_quota_delta(INDEX, demands, initial_matrix, matrix)
        assert len(outcome.teams()) > 2 * 256
        assert metrics_tuple(allocation_metrics(outcome)) == reference_market_metrics(
            INDEX, demands, initial_snapshot, reference.snapshot()
        )

    def test_residues_and_unrequested_acquirers(self):
        matrix, reference = QuotaRegistry(INDEX), DictQuotaRegistry(INDEX)
        for registry in (matrix, reference):
            registry.grant("held", INDEX.vector({"alpha/cpu": 5.0}))
            registry.ensure_team("residue")
        initial_matrix, initial_snapshot = matrix.matrix(), reference.snapshot()
        residue = INDEX.vector({"beta/cpu": 1e-13, "beta/ram": -1e-13})
        for registry in (matrix, reference):
            registry.apply_delta("residue", residue, allow_negative=True)
            registry.apply_delta("held", INDEX.vector({"alpha/cpu": -9.0}), allow_negative=True)
            registry.grant("late", INDEX.vector({"gamma/cpu": 2.0}))
            registry.grant("quiet", INDEX.vector({"alpha/ram": 1.0}))
        demands = {"held": {"alpha/cpu": 4.0}, "quiet": {}, "nobody": {"beta/cpu": 1.0}}
        outcome = market_outcome_from_quota_delta(INDEX, demands, initial_matrix, matrix)
        # "residue" gained only sub-tolerance entries, so it is not an acquirer.
        assert outcome.teams() == ["held", "nobody", "late", "quiet"]
        assert metrics_tuple(allocation_metrics(outcome)) == reference_market_metrics(
            INDEX, demands, initial_snapshot, reference.snapshot()
        )

    def test_demand_checks_keep_quota_request_messages(self):
        matrix = QuotaRegistry(INDEX)
        initial = matrix.matrix()
        for demands in (
            {"": {"alpha/cpu": 1.0}},
            {"t": {"alpha/cpu": 1.0, "beta/cpu": -2.0}},
            {"t": {"alpha/cpu": math.inf}},
            {"t": {"alpha/cpu": math.nan}},
        ):
            (team, quantities), = demands.items()
            with pytest.raises(ValueError) as expected:
                QuotaRequest(team=team, quantities=quantities)
            with pytest.raises(ValueError) as actual:
                allocation_metrics(market_outcome_from_quota_delta(INDEX, demands, initial, matrix))
            assert str(actual.value) == str(expected.value)


# -- baseline outcomes ------------------------------------------------------------------------


@st.composite
def baseline_outcomes(draw):
    team_count = draw(st.integers(0, 300))
    records = draw(st.lists(
        st.tuples(st.integers(0, max(team_count - 1, 0)), vectors, vectors),
        max_size=team_count + 20,
    ))
    return [] if team_count == 0 else records


class TestBaselineOutcomesKeepTheirBits:
    @settings(max_examples=60, deadline=None)
    @given(records=baseline_outcomes())
    def test_metrics_match_the_dict_loop(self, records):
        outcome = AllocationOutcome(index=INDEX, policy="fixed-price")
        for team, wanted, got in records:
            outcome.record(f"team-{team}", wanted, got)
        expected = reference_metrics(INDEX, "fixed-price", outcome.requested, outcome.granted)
        assert metrics_tuple(allocation_metrics(outcome)) == expected

    def test_satisfaction_slack_is_one_in_a_million(self):
        outcome = AllocationOutcome(index=INDEX, policy="priority")
        wanted = INDEX.vector({"alpha/cpu": 100.0})
        outcome.record("within", wanted, wanted * (1.0 - 5e-7))
        outcome.record("short", wanted, wanted * (1.0 - 5e-6))
        metrics = allocation_metrics(outcome)
        assert metrics.satisfied_fraction == 0.5
        assert metrics_tuple(metrics) == reference_metrics(
            INDEX, "priority", outcome.requested, outcome.granted
        )


# -- lazy epoch views -------------------------------------------------------------------------


def same(a, b) -> bool:
    """Equality that reads NaN as equal to NaN, through tuples, lists and dicts."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and same(astuple(a), astuple(b))
    return a == b


@pytest.mark.parametrize(
    ("preset", "seed", "auctions"),
    # flash-crowd seed 0 settles no offers, so its migration summary holds NaN.
    [("smoke", 0, 3), ("paper-reference", 7, 2), ("trader-heavy", 1, 2), ("flash-crowd", 0, 2)],
)
def test_lazy_views_equal_the_eager_ones(preset: str, seed: int, auctions: int):
    spec = get_scenario(preset).with_overrides(seed=seed, auctions=auctions)
    scenario = spec.build()
    sim = MarketEconomySimulation.from_spec(scenario, spec)
    platform = scenario.platform
    initial_snapshot = platform.quotas.snapshot()
    run_one = sim.run_one_auction
    eager: list[tuple] = []

    def epoch():
        demands = demands_from_agents(scenario.agents, platform.index)
        period = run_one()
        settlement = period.settlement
        trades = settled_trades(settlement)
        eager.append((
            trades,
            price_ratio_table(settlement.index, period.record.prices, platform.fixed_prices),
            migration_summary(trades),
            reference_market_metrics(
                sim._initial_index, demands, initial_snapshot, platform.quotas.snapshot()
            ),
        ))
        return period

    sim.run_one_auction = epoch
    history = sim.run(spec.auctions)
    for period, (trades, ratios, migration, metrics) in zip(history.periods, eager, strict=True):
        assert "trades" not in vars(period)  # nothing derived the views during the run
        assert same(period.trades, trades)
        assert same(period.price_ratios, ratios)
        assert same(period.migration, migration)
        assert period.trade_count == len(trades)
        assert metrics_tuple(period.allocation) == metrics
    result = ScenarioRunResult.from_history(spec, scenario, history)
    assert result.trade_count == len(history.all_trades())

