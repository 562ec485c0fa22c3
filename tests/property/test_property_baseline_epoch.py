"""A baseline epoch over ``(teams, R)`` matrices against the per-team request loop.

``BaselineEconomySimulation`` holds one team tuple with aligned arrays and
matrices, and each policy turns a residual-request matrix into a granted
matrix.  The reference below is the earlier code: one ``QuotaRequest`` per
team with a dict of quantities, policies that yield one grant per request,
an ``AllocationOutcome`` dict of vectors, and the simulation's per-team dict
loop.  Every field of every epoch, and every metric of the one-shot
comparison, must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import allocation
from repro.analysis.allocation import allocation_metrics, row_blocks, utilization_imbalance
from repro.cluster.pools import PoolIndex
from repro.mechanisms.baseline import (
    BASELINE_MECHANISMS,
    BaselineEconomySimulation,
    BaselinePeriodResult,
    one_shot_outcomes,
)
from repro.simulation.workload import (
    apply_settlement_to_utilization,
    demands_from_agents,
    organic_drift,
    priorities_from_agents,
)
from tests.conftest import build_pool_index

INDEX = build_pool_index({"alpha": 0.9, "beta": 0.3, "gamma": 0.6}, capacity_scale=50.0)
NAMES = INDEX.names


# -- the reference: one request object per team -----------------------------------------------


@dataclass(frozen=True)
class QuotaRequest:
    team: str
    quantities: Mapping[str, float]
    priority: int = 0
    weight: float = 1.0

    def vector(self, index: PoolIndex) -> np.ndarray:
        return index.vector(dict(self.quantities))


@dataclass
class AllocationOutcome:
    index: PoolIndex
    policy: str
    granted: dict[str, np.ndarray] = field(default_factory=dict)
    requested: dict[str, np.ndarray] = field(default_factory=dict)

    def record(self, team, requested, granted):
        req = self.requested.setdefault(team, np.zeros(len(self.index)))
        grant = self.granted.setdefault(team, np.zeros(len(self.index)))
        self.requested[team] = req + requested
        self.granted[team] = grant + granted

    def total_granted(self):
        total = np.zeros(len(self.index))
        for vec in self.granted.values():
            total += vec
        return total

    def blocks(self):
        teams = list(self.requested)
        zeros = np.zeros(len(self.index))
        for start in range(0, len(teams), allocation.BLOCK_TEAMS):
            chunk = teams[start : start + allocation.BLOCK_TEAMS]
            yield (
                np.array([self.requested[team] for team in chunk]),
                np.array([self.granted.get(team, zeros) for team in chunk]),
            )

    def metrics(self):
        return allocation_metrics(self.index, self.policy, self.blocks())


def reference_grants(policy, index, requests, rng):
    """Each request with what it wanted and was granted, in service order."""
    if policy == "proportional":
        vectors = [request.vector(index) for request in requests]
        total_demand = np.zeros(len(index))
        for vec in vectors:
            total_demand += vec
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = np.where(
                total_demand > 0, np.minimum(1.0, index.available() / total_demand), 1.0
            )
        for request, wanted in zip(requests, vectors):
            yield request, wanted, wanted * scale
        return
    if policy == "fixed-price":
        order = range(len(requests))
    elif policy == "priority":
        order = sorted(range(len(requests)), key=lambda i: (-requests[i].priority, i))
    elif not requests:
        order = []
    else:
        weights = np.array([request.weight for request in requests], dtype=float)
        draws = rng.random(len(requests))
        with np.errstate(divide="ignore"):
            keys = np.where(weights > 0.0, draws ** (1.0 / weights), -1.0)
        order = np.argsort(-keys, kind="stable")
    remaining = index.available().copy()
    for i in order:
        request = requests[i]
        wanted = request.vector(index)
        granted = np.minimum(wanted, remaining)
        remaining = remaining - granted
        yield request, wanted, granted


def reference_allocate(policy, index, requests, rng):
    outcome = AllocationOutcome(index=index, policy=policy)
    for request, wanted, granted in reference_grants(policy, index, requests, rng):
        outcome.record(request.team, wanted, granted)
    return outcome


class ReferenceBaseline:
    """The simulation's per-team dict loop."""

    def __init__(self, scenario, mechanism, *, drift_scale=0.015):
        self.scenario = scenario
        self.mechanism = mechanism
        self.drift_scale = drift_scale
        self.periods = []
        self._initial_index = scenario.pool_index
        self._holdings = {}
        self._budgets = {agent.name: float(agent.budget) for agent in scenario.agents}
        self._priorities = priorities_from_agents(scenario.agents, seed=scenario.rng)
        self._rng = (
            np.random.default_rng(int(scenario.rng.integers(2**63))) if mechanism.draws else None
        )
        self._base_demand = {
            agent.name: self._initial_index.vector(agent.demand.bundle)
            for agent in scenario.agents
            if agent.demand.bundle
        }
        self._growth = {agent.name: float(agent.demand.growth_rate) for agent in scenario.agents}
        self._fixed_prices = self._initial_index.vector(scenario.platform.fixed_prices)

    def _held(self, team):
        return self._holdings.get(team, np.zeros(len(self._initial_index)))

    def _residual_requests(self, demands, fixed_prices):
        names = self.scenario.pool_index.names
        requests = []
        for team, demand in demands.items():
            residual = np.clip(demand - self._held(team), 0.0, None)
            cost = float(np.dot(residual, fixed_prices))
            budget = self._budgets.get(team, 0.0)
            if cost > budget:
                residual = residual * (budget / cost if cost > 0 else 0.0)
            quantities = {names[i]: float(residual[i]) for i in np.flatnonzero(residual > 1e-12)}
            if quantities:
                requests.append(
                    QuotaRequest(
                        team=team,
                        quantities=quantities,
                        priority=self._priorities.get(team, 0),
                        weight=budget,
                    )
                )
        return requests

    def _cumulative_outcome(self, demands):
        outcome = AllocationOutcome(index=self._initial_index, policy=self.mechanism.name)
        for team, demand in demands.items():
            outcome.record(team, demand, self._held(team))
        for team, held in self._holdings.items():
            if team not in outcome.requested and np.any(held > 0):
                outcome.record(team, np.zeros(len(self._initial_index)), held)
        return outcome

    def run_one_epoch(self):
        scenario = self.scenario
        index = scenario.pool_index
        epoch = len(self.periods) + 1
        demands = {
            team: base * (1.0 + self._growth.get(team, 0.0)) ** (epoch - 1)
            for team, base in self._base_demand.items()
        }
        fixed_prices = self._fixed_prices
        epoch_outcome = reference_allocate(
            self.mechanism.name, index, self._residual_requests(demands, fixed_prices), self._rng
        )
        epoch_granted = epoch_outcome.total_granted()
        grant_count = 0
        for team, granted in epoch_outcome.granted.items():
            grant_count += int(np.count_nonzero(granted > 1e-9))
            self._holdings[team] = self._held(team) + granted
            spend = float(np.dot(granted, fixed_prices))
            self._budgets[team] = max(0.0, self._budgets.get(team, 0.0) - spend)
        revenue = float(np.dot(epoch_granted, fixed_prices))
        metrics = self._cumulative_outcome(demands).metrics()
        updated = apply_settlement_to_utilization(index, epoch_granted)
        updated = organic_drift(updated, rng=scenario.rng, drift_scale=self.drift_scale)
        scenario.platform.update_pool_index(updated)
        shortage, surplus = utilization_imbalance(self._initial_index, updated.utilizations())
        period = BaselinePeriodResult(
            epoch=epoch,
            revenue=revenue,
            grant_count=grant_count,
            utilization_after=updated.utilizations().copy(),
            shortage_cost=shortage,
            surplus_cost=surplus,
            allocation=metrics,
        )
        self.periods.append(period)
        return period

    def run(self, epochs):
        for _ in range(epochs):
            self.run_one_epoch()
        return self.periods


# -- a scenario the baselines can run: teams, a platform and an RNG ----------------------------


@dataclass
class Demand:
    """A demand whose covering bundle is given: it may span several clusters."""

    bundle: dict[str, float]
    growth_rate: float

    def covering_columns(self, catalog, index):
        return [(index.index_of(name), qty) for name, qty in self.bundle.items()]

    def total_quantity(self):
        return float(sum(self.bundle.values()))


@dataclass
class Team:
    name: str
    budget: float
    demand: Demand
    catalog: None = None


@dataclass
class Platform:
    index: PoolIndex
    fixed_prices: dict[str, float]

    def update_pool_index(self, index):
        self.index = index


@dataclass
class FakeScenario:
    agents: list[Team]
    platform: Platform
    rng: np.random.Generator

    @property
    def pool_index(self):
        return self.platform.index


#: Quantities that probe the request threshold (1e-12) and contention for 50 CPUs.
quantities = st.one_of(
    st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 0.5, 10.0, 40.0]),
    st.floats(min_value=0.0, max_value=300.0),
)
#: Budgets that cap every request, some, or none.
budgets = st.one_of(
    st.sampled_from([0.0, 1e-9, 5.0, 1e3, 1e12]),
    st.floats(min_value=0.0, max_value=5e4),
)
#: A team's demand, budget, and whether its demand grows.
teams = st.tuples(
    st.dictionaries(st.sampled_from(NAMES), quantities, max_size=5), budgets, st.booleans()
)


@st.composite
def cases(draw, *, min_teams=0, max_teams=40):
    """Teams, fixed prices, a seed and an epoch count.

    Past 40 teams the drawn teams repeat in turn, which keeps the
    examples small enough to generate.  Growth rates are drawn from
    U(0, 0.1) with the seed: an array power of such rates rounds a few
    percent of the factors differently from a Python float power.
    """
    count = draw(st.integers(min_teams, max_teams))
    drawn = draw(st.lists(teams, min_size=min(count, 1), max_size=min(count, 40)))
    rows = [drawn[i % len(drawn)] for i in range(count)]
    prices = draw(st.lists(st.floats(0.01, 20.0), min_size=len(NAMES), max_size=len(NAMES)))
    return rows, dict(zip(NAMES, prices)), draw(st.integers(0, 2**32)), draw(st.integers(1, 5))


def build(case) -> FakeScenario:
    rows, fixed_prices, seed, _ = case
    rng = np.random.default_rng(seed)
    growth = rng.uniform(0.0, 0.1, size=len(rows))
    agents = [
        Team(f"team-{i}", budget, Demand(bundle, float(growth[i]) if grows else 0.0))
        for i, (bundle, budget, grows) in enumerate(rows)
    ]
    return FakeScenario(agents, Platform(INDEX, fixed_prices), rng)


def assert_same_period(actual: BaselinePeriodResult, expected: BaselinePeriodResult):
    for name in (f.name for f in fields(BaselinePeriodResult)):
        a, b = getattr(actual, name), getattr(expected, name)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def check_epochs(case):
    epochs = case[-1]
    for mechanism in BASELINE_MECHANISMS:
        sim = BaselineEconomySimulation(build(case), mechanism)
        reference = ReferenceBaseline(build(case), mechanism)
        actual, expected = sim.run(epochs), reference.run(epochs)
        assert len(actual) == len(expected) == epochs
        for a, b in zip(actual, expected):
            assert_same_period(a, b)
        # The state carried into the next epoch: holdings and budgets.
        for row, team in enumerate(sim._teams):
            assert sim._holdings[row].tobytes() == reference._held(team).tobytes()
            assert sim._budgets[row] == reference._budgets[team]


def check_one_shot(case):
    scenario = build(case)
    index = scenario.pool_index
    teams, demand = demands_from_agents(scenario.agents, index)
    priorities = priorities_from_agents(scenario.agents, seed=scenario.rng)
    requests = [
        QuotaRequest(
            team=agent.name, quantities=dict(agent.demand.bundle), priority=priorities.get(agent.name, 0)
        )
        for agent in scenario.agents
        if agent.demand.bundle
    ]
    assert teams == tuple(request.team for request in requests)
    outcomes = one_shot_outcomes(
        scenario, demand, np.array([priorities.get(team, 0) for team in teams], dtype=int)
    )
    assert [policy for policy, _, _ in outcomes] == [m.name for m in BASELINE_MECHANISMS]
    for policy, requested, granted in outcomes:
        expected = reference_allocate(policy, index, requests, np.random.default_rng(0))
        assert allocation_metrics(index, policy, row_blocks(requested, granted)) == (
            expected.metrics()
        )
        # Rows in service order, as the outcome recorded its teams.
        assert [row.tobytes() for row in requested] == [
            vec.tobytes() for vec in expected.requested.values()
        ]
        assert [row.tobytes() for row in granted] == [
            vec.tobytes() for vec in expected.granted.values()
        ]


class TestBaselineEpochMatchesThePerTeamLoop:
    @settings(max_examples=40, deadline=None)
    @given(case=cases())
    def test_every_field_of_every_epoch(self, case):
        check_epochs(case)

    @settings(max_examples=6, deadline=None)
    @given(case=cases(min_teams=257, max_teams=300))
    def test_more_than_one_block(self, case):
        check_epochs(case)

    @settings(max_examples=40, deadline=None)
    @given(case=cases())
    def test_one_shot_metrics(self, case):
        check_one_shot(case)

    @settings(max_examples=4, deadline=None)
    @given(case=cases(min_teams=257, max_teams=300))
    def test_one_shot_metrics_over_more_than_one_block(self, case):
        check_one_shot(case)
