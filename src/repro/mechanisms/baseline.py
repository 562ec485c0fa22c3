"""Traditional allocation policies as first-class mechanisms.

The paper motivates the market by contrast with manual quota setting (Section
I): "The operator either grants each user an equal share of the system or,
more likely, decides that certain jobs / users are 'more important' than
others ... These inefficiencies are manifested through uneven utilization,
significant shortages and surpluses in certain resource pools."  Each such
policy is one row of :data:`BASELINE_MECHANISMS` — its registry name, its
description and its allocation rule:

* ``fixed-price`` — first-come-first-served grants at the posted fixed price
  until each pool runs out.  No price signal steers anyone away from
  congested pools, so popular clusters run out while unpopular ones sit idle;
* ``priority`` — requests served in operator-assigned priority order, arrival
  order breaking ties.  Low priorities in congested pools get nothing;
* ``proportional`` — every request on an oversubscribed pool is scaled by the
  pool's supply/demand ratio.  Nobody is turned away, but nobody in a
  congested pool gets what it needs;
* ``lottery`` — a budget-weighted lottery decides the service order
  (Waldspurger-style lottery scheduling, tickets = budget dollars).  Nobody
  is *systematically* starved, but there is still no price signal.

Fixed-price, priority and lottery share one grant loop
(:func:`serve_in_order`) and differ only in the order they serve requests.

A :class:`BaselineEconomySimulation` drives a policy through the same
longitudinal structure as the market economy, so every catalog scenario can
run under either kind of mechanism and produce directly comparable
trajectories.  Per epoch it:

1. re-reads every team's current demand (profiles grow between epochs exactly
   as they do for market agents);
2. asks the policy to grant each team's *residual* need — what it demands
   beyond the quota it already holds — against the fleet's **current, drifted**
   available capacity (a team keeps the quota it was granted in earlier
   epochs; traditional quotas are sticky).  Requests are capped by budget at
   the operator's **posted fixed prices**: quota was never free, teams buy it
   at ``c(r)``-anchored fixed rates whatever the pool's congestion — which is
   precisely the inefficiency the market removes, since clearing prices in
   idle clusters fall *below* the fixed price and stretch the same budget
   over more resources (Figure 6);
3. projects the new grants onto pool utilizations and applies the same organic
   drift model the market simulation uses;
4. records both measurement families of :mod:`repro.analysis.allocation`:
   the cumulative team-level coverage (everything granted so far against the
   epoch's demand, via :func:`~repro.analysis.allocation.allocation_metrics`
   — the same measurement applied to the market's cumulative quota delta) and
   the pool-level imbalance (capacity overcommitted past safe headroom /
   stranded idle, via
   :func:`~repro.analysis.allocation.utilization_imbalance`).

What baselines *cannot* do is exactly what the trajectories expose: there is
no price signal steering demand out of congested home clusters, so grants
pile onto the hot pools teams already live in (shortage: hot pools run out
of headroom) while idle clusters stay untouched (surplus: cold capacity
stays stranded).  The market's congestion-weighted reserve prices repel
demand from hot pools and invite it into cold ones, shrinking both numbers.

Premium and clearing-round series are degenerate by construction — every grant
happens at the posted fixed price (premium 1.0) with no price discovery
(0 clock rounds) — which is also why baseline runs are far cheaper than
market runs (see ``benchmarks/test_bench_mechanisms.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.analysis.allocation import (
    AllocationMetrics,
    AllocationOutcome,
    QuotaRequest,
    allocation_metrics,
    utilization_imbalance,
)
from repro.cluster.pools import PoolIndex
from repro.simulation.scenario import Scenario
from repro.simulation.workload import (
    apply_settlement_to_utilization,
    demands_from_agents,
    organic_drift,
    priorities_from_agents,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec
    from repro.simulation.runner import ScenarioRunResult

#: Allocation smaller than this does not count as a settled trade.
_TRADE_TOL = 1e-9

#: One grant: the request served, what it wanted and what it was granted.
Grant = tuple[QuotaRequest, np.ndarray, np.ndarray]


# -- the policies ------------------------------------------------------------------------


def serve_in_order(
    index: PoolIndex,
    requests: Sequence[QuotaRequest],
    rng: np.random.Generator | None,
    *,
    order: Callable[[Sequence[QuotaRequest], np.random.Generator | None], Iterable[int]],
) -> Iterator[Grant]:
    """Serve ``requests`` one at a time, in the order ``order(requests, rng)``.

    Each request is granted what it wants of what its pools still have, so
    the requests served late in a congested pool get the leftovers or nothing.
    """
    remaining = index.available().copy()
    for i in order(requests, rng):
        request = requests[i]
        wanted = request.vector(index)
        granted = np.minimum(wanted, remaining)
        remaining = remaining - granted
        yield request, wanted, granted


def arrival_order(requests: Sequence[QuotaRequest], rng) -> Iterable[int]:
    """First come, first served."""
    return range(len(requests))


def priority_order(requests: Sequence[QuotaRequest], rng) -> Iterable[int]:
    """Highest operator priority first; arrival order breaks ties."""
    return sorted(range(len(requests)), key=lambda i: (-requests[i].priority, i))


def lottery_order(requests: Sequence[QuotaRequest], rng: np.random.Generator) -> Iterable[int]:
    """A budget-weighted random order: the lottery's draw.

    Efraimidis–Spirakis weighted sampling without replacement: each request
    gets the key ``u ** (1 / weight)`` for one uniform draw ``u``, and
    requests are served by descending key.  A request's ``weight`` is its
    team's remaining budget (tickets); zero-weight requests always sort last.
    An empty request list draws nothing.

    >>> rich = QuotaRequest(team="rich", quantities={"a/cpu": 15.0}, weight=1e9)
    >>> poor = QuotaRequest(team="poor", quantities={"a/cpu": 15.0}, weight=1e-9)
    >>> [int(i) for i in lottery_order([poor, rich], np.random.default_rng(1))]
    [1, 0]
    """
    if not requests:
        return []
    weights = np.array([request.weight for request in requests], dtype=float)
    draws = rng.random(len(requests))
    with np.errstate(divide="ignore"):
        keys = np.where(weights > 0.0, draws ** (1.0 / weights), -1.0)
    return np.argsort(-keys, kind="stable")


def proportional_grants(
    index: PoolIndex, requests: Sequence[QuotaRequest], rng
) -> Iterator[Grant]:
    """Grant each team ``min(1, available/demand)`` of its request per pool."""
    vectors = [request.vector(index) for request in requests]
    total_demand = np.zeros(len(index))
    for vec in vectors:
        total_demand += vec
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(total_demand > 0, np.minimum(1.0, index.available() / total_demand), 1.0)
    for request, wanted in zip(requests, vectors):
        yield request, wanted, wanted * scale


# -- the mechanism shell -----------------------------------------------------------------


def zero_migration_summary() -> dict[str, float]:
    """The migration block of a mechanism that never moves load.

    Key-compatible with :func:`repro.analysis.utilization_stats.migration_summary`
    but all-zero (and NaN-free, so canonical reports stay JSON-round-trippable).
    """
    return {
        "median_bid_percentile": 0.0,
        "median_offer_percentile": 0.0,
        "bid_quantity_share_in_underutilized": 0.0,
        "bid_count": 0.0,
        "offer_count": 0.0,
    }


@dataclass
class BaselinePeriodResult:
    """Everything recorded about one baseline allocation epoch."""

    epoch: int
    #: Cost-weighted value of this epoch's *new* grants at fixed prices.
    revenue: float
    #: Number of (team, pool) grants made this epoch.
    grant_count: int
    #: Pool utilizations after grants and organic drift were applied.
    utilization_after: np.ndarray
    #: Cost-weighted capacity overcommitted / stranded after this epoch (the
    #: paper's pool-level "shortages and surpluses"; see
    #: :func:`repro.analysis.allocation.utilization_imbalance`).
    shortage_cost: float
    surplus_cost: float
    #: Cumulative team-level coverage vs this epoch's demand.
    allocation: AllocationMetrics


class BaselineEconomySimulation:
    """Drive a baseline policy through periodic epochs.

    The longitudinal shell mirrors :class:`~repro.simulation.economy.MarketEconomySimulation`:
    demand grows, utilization drifts, and each epoch re-evaluates the policy
    against the fleet as it currently stands — but grants are sticky and there
    is no bidding, no price discovery, and no migration.
    """

    def __init__(
        self,
        scenario: Scenario,
        mechanism: BaselineMechanism,
        *,
        drift_scale: float = 0.015,
    ):
        if drift_scale < 0:
            raise ValueError("drift_scale must be non-negative")
        self.scenario = scenario
        self.mechanism = mechanism
        self.drift_scale = drift_scale
        self.periods: list[BaselinePeriodResult] = []
        self._initial_index = scenario.pool_index
        #: Cumulative granted quota per team (vectors over the pool index).
        self._holdings: dict[str, np.ndarray] = {}
        #: Budget each team has left to buy quota at the posted fixed prices.
        self._budgets: dict[str, float] = {
            agent.name: float(agent.budget) for agent in scenario.agents
        }
        # Operator priorities are assigned once, up front: the operator ranks
        # teams by perceived importance, not per epoch.  Uses the scenario RNG
        # so a fixed seed fixes the whole run.
        self._priorities = priorities_from_agents(scenario.agents, seed=scenario.rng)
        # A policy that draws (the lottery) takes its own stream from the
        # scenario RNG, so a fixed seed fixes every draw.  The others take
        # nothing from it, and the drift model draws next.
        self._rng = (
            np.random.default_rng(int(scenario.rng.integers(2**63))) if mechanism.draws else None
        )
        # Demand is re-derived analytically each epoch instead of re-running
        # the covering-bundle translation: covering bundles are linear in the
        # requested quantity and a profile's growth is one multiplicative
        # factor per epoch, so epoch t's demand vector is exactly
        # ``base * (1 + growth) ** (t - 1)``.  This is what keeps a baseline
        # epoch allocator-bound instead of bid-entry-bound (see
        # ``benchmarks/test_bench_mechanisms.py``).
        self._base_demand: dict[str, np.ndarray] = {
            team: self._initial_index.vector(bundle)
            for team, bundle in demands_from_agents(
                scenario.agents, self._initial_index
            ).items()
        }
        self._growth: dict[str, float] = {
            agent.name: float(agent.demand.growth_rate) for agent in scenario.agents
        }
        #: Posted fixed prices as a vector (constant for the whole run).
        self._fixed_prices = self._initial_index.vector(scenario.platform.fixed_prices)

    def _held(self, team: str) -> np.ndarray:
        return self._holdings.get(team, np.zeros(len(self._initial_index)))

    def _epoch_demands(self, epoch: int) -> dict[str, np.ndarray]:
        """Demand vector per team at ``epoch`` (1-based), grown analytically."""
        return {
            team: base * (1.0 + self._growth.get(team, 0.0)) ** (epoch - 1)
            for team, base in self._base_demand.items()
        }

    def _residual_requests(
        self, demands: dict[str, np.ndarray], fixed_prices: np.ndarray
    ) -> list[QuotaRequest]:
        """What each team still needs beyond the quota it already holds.

        Quota is bought, not gifted: a residual request costing more than the
        team's remaining budget at the posted fixed prices is scaled down to
        what the team can afford.  This is the flip side of the market's
        advantage — a market bidder whose home cluster is congested chases
        clearing prices *below* the fixed rate in idle clusters, so the same
        budget provisions more resources there.
        """
        index = self.scenario.pool_index
        names = index.names
        requests: list[QuotaRequest] = []
        for team, demand in demands.items():
            residual = np.clip(demand - self._held(team), 0.0, None)
            cost = float(np.dot(residual, fixed_prices))
            budget = self._budgets.get(team, 0.0)
            if cost > budget:
                residual = residual * (budget / cost if cost > 0 else 0.0)
            quantities = {
                names[i]: float(residual[i]) for i in np.flatnonzero(residual > 1e-12)
            }
            if quantities:
                requests.append(
                    QuotaRequest(
                        team=team,
                        quantities=quantities,
                        priority=self._priorities.get(team, 0),
                        # Lottery tickets: what the team can still spend.
                        weight=budget,
                    )
                )
        return requests

    def _cumulative_outcome(self, demands: dict[str, np.ndarray]) -> AllocationOutcome:
        """Everything granted so far, judged against the current demand.

        The outcome is anchored to the *initial* pool index: shortage and
        satisfaction only need unit costs (constant), and surplus then reads
        as "capacity that was free before the first epoch and that the
        mechanism has still never put to use" — the same yardstick the market
        simulation applies to its cumulative quota delta.
        """
        outcome = AllocationOutcome(index=self._initial_index, policy=self.mechanism.name)
        for team, demand in demands.items():
            outcome.record(team, demand, self._held(team))
        for team, held in self._holdings.items():
            if team not in outcome.requested and np.any(held > 0):
                outcome.record(team, np.zeros(len(self._initial_index)), held)
        return outcome

    def run_one_epoch(self) -> BaselinePeriodResult:
        """Run a single allocation epoch and record its statistics."""
        scenario = self.scenario
        index = scenario.pool_index
        demands = self._epoch_demands(len(self.periods) + 1)
        fixed_prices = self._fixed_prices

        epoch_outcome = self.mechanism.allocate(
            index, self._residual_requests(demands, fixed_prices), self._rng
        )
        epoch_granted = epoch_outcome.total_granted()
        grant_count = 0
        for team, granted in epoch_outcome.granted.items():
            grant_count += int(np.count_nonzero(granted > _TRADE_TOL))
            self._holdings[team] = self._held(team) + granted
            spend = float(np.dot(granted, fixed_prices))
            self._budgets[team] = max(0.0, self._budgets.get(team, 0.0) - spend)

        revenue = float(np.dot(epoch_granted, fixed_prices))

        metrics = allocation_metrics(self._cumulative_outcome(demands))

        # Project grants onto utilization and drift, exactly as the market
        # simulation projects its settlements between auctions.
        updated = apply_settlement_to_utilization(index, epoch_granted)
        updated = organic_drift(updated, rng=scenario.rng, drift_scale=self.drift_scale)
        scenario.platform.update_pool_index(updated)

        shortage, surplus = utilization_imbalance(self._initial_index, updated.utilizations())
        period = BaselinePeriodResult(
            epoch=len(self.periods) + 1,
            revenue=revenue,
            grant_count=grant_count,
            utilization_after=updated.utilizations().copy(),
            shortage_cost=shortage,
            surplus_cost=surplus,
            allocation=metrics,
        )
        self.periods.append(period)
        return period

    def run(self, epochs: int) -> list[BaselinePeriodResult]:
        """Run ``epochs`` allocation epochs; returns every period so far."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        for _ in range(epochs):
            self.run_one_epoch()
        return self.periods


@dataclass(frozen=True)
class BaselineMechanism:
    """One traditional policy behind the mechanism contract (a :data:`BASELINE_MECHANISMS` row)."""

    #: Registry name; also the ``policy`` label of every outcome it produces.
    name: str
    description: str
    #: ``grants(index, requests, rng)``: the policy's grants in service order.
    grants: Callable[
        [PoolIndex, Sequence[QuotaRequest], np.random.Generator | None], Iterable[Grant]
    ]
    #: Whether ``grants`` draws from ``rng``.  Only such a policy takes a
    #: stream from the scenario RNG (see :class:`BaselineEconomySimulation`).
    draws: bool = False

    def allocate(
        self,
        index: PoolIndex,
        requests: Sequence[QuotaRequest],
        rng: np.random.Generator | None = None,
    ) -> AllocationOutcome:
        """Run the policy once against ``index``'s available capacity.

        ``rng`` feeds a policy that draws (the lottery); the others ignore it.
        """
        outcome = AllocationOutcome(index=index, policy=self.name)
        for request, wanted, granted in self.grants(index, requests, rng):
            outcome.record(request.team, wanted, granted)
        return outcome

    def run(self, spec: "ScenarioSpec") -> "ScenarioRunResult":
        return self.simulate(spec.build(), spec)

    def simulate(self, scenario: Scenario, spec: "ScenarioSpec") -> "ScenarioRunResult":
        """Run the policy against an already-built scenario (consumes it).

        Split from :meth:`run` for the same reason as
        :meth:`repro.mechanisms.market.MarketMechanism.simulate`: the
        mechanism benchmark compares allocation work, not fleet generation.
        """
        from repro.simulation.runner import ScenarioRunResult, _round, _round_list

        periods = BaselineEconomySimulation(
            scenario, self, drift_scale=spec.drift_scale
        ).run(spec.auctions)
        mean_fixed_price = float(np.mean(list(scenario.platform.fixed_prices.values())))
        return ScenarioRunResult(
            scenario=spec.name,
            seed=spec.config.seed,
            engine=spec.config.auction_engine,
            auctions=len(periods),
            clusters=len(scenario.fleet.clusters),
            pools=len(scenario.pool_index),
            teams=len(scenario.agents),
            # Every grant happens at the posted fixed price: premium == 1.0.
            median_premium=[1.0] * len(periods),
            mean_premium=[1.0] * len(periods),
            settled_fraction=_round_list(p.allocation.grant_rate for p in periods),
            # No price discovery: zero clock rounds per epoch.
            clearing_rounds=[0] * len(periods),
            mean_clearing_price=[_round(mean_fixed_price)] * len(periods),
            revenue=_round_list(p.revenue for p in periods),
            mean_utilization=_round_list(
                float(np.mean(p.utilization_after)) for p in periods
            ),
            utilization_spread=_round_list(
                float(np.std(p.utilization_after)) for p in periods
            ),
            migration=zero_migration_summary(),
            trade_count=sum(p.grant_count for p in periods),
            mechanism=self.name,
            shortage_cost=_round_list(p.shortage_cost for p in periods),
            surplus_cost=_round_list(p.surplus_cost for p in periods),
            satisfied_fraction=_round_list(
                p.allocation.satisfied_fraction for p in periods
            ),
        )


#: The baseline policies, one row each; :mod:`repro.mechanisms` registers them.
BASELINE_MECHANISMS: tuple[BaselineMechanism, ...] = (
    BaselineMechanism(
        "fixed-price",
        "first-come-first-served grants at posted fixed prices",
        partial(serve_in_order, order=arrival_order),
    ),
    BaselineMechanism(
        "priority",
        "operator-assigned priorities served highest first",
        partial(serve_in_order, order=priority_order),
    ),
    BaselineMechanism(
        "proportional",
        "equal fractional shares of oversubscribed pools",
        proportional_grants,
    ),
    BaselineMechanism(
        "lottery",
        "budget-weighted random service order (lottery scheduling)",
        partial(serve_in_order, order=lottery_order),
        draws=True,
    ),
)


def one_shot_outcomes(
    scenario: Scenario, requests: Sequence[QuotaRequest]
) -> list[AllocationOutcome]:
    """Run every baseline policy once against a scenario's current fleet.

    The single-epoch view used by ``experiments/baseline_comparison.py``.  It
    is *not* a mechanism's first epoch: ``requests`` carry no budget cap and
    usually equal lottery weights, and the lottery draws from
    ``default_rng(0)`` instead of a stream taken from the scenario RNG.
    """
    index = scenario.pool_index
    return [
        mechanism.allocate(index, requests, np.random.default_rng(0))
        for mechanism in BASELINE_MECHANISMS
    ]
