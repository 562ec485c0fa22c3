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

A policy turns a ``(requests, R)`` matrix of residual requests into a
granted matrix of the same shape, row-aligned with it.  Fixed-price, priority
and lottery share one grant loop (:func:`serve_in_order`) and differ only in
the order they serve the rows; proportional scales every row.

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
(0 clock rounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.allocation import (
    AllocationMetrics,
    allocation_metrics,
    row_blocks,
    row_costs,
    running_sum,
    utilization_imbalance,
)
from repro.analysis.utilization_stats import migration_summary
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


# -- the policies ------------------------------------------------------------------------


def serve_in_order(
    available: np.ndarray,
    requested: np.ndarray,
    priorities: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator | None,
    *,
    order: Callable[[np.ndarray, np.ndarray, np.random.Generator | None], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Serve the rows of ``requested`` one at a time, in ``order(priorities, weights, rng)``.

    Each row is granted what it asks for of what its pools still have, so
    the rows served late in a congested pool get the leftovers or nothing.
    Returns the service order and the granted matrix, row-aligned with
    ``requested``.
    """
    served = order(priorities, weights, rng)
    granted = np.zeros_like(requested)
    remaining = available
    for i in served:
        granted[i] = np.minimum(requested[i], remaining)
        remaining = remaining - granted[i]
    return served, granted


def arrival_order(priorities: np.ndarray, weights: np.ndarray, rng) -> np.ndarray:
    """First come, first served."""
    return np.arange(len(priorities))


def priority_order(priorities: np.ndarray, weights: np.ndarray, rng) -> np.ndarray:
    """Highest operator priority first; arrival order breaks ties."""
    return np.argsort(-priorities, kind="stable")


def lottery_order(
    priorities: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """A budget-weighted random order: the lottery's draw.

    Efraimidis–Spirakis weighted sampling without replacement: each request
    gets the key ``u ** (1 / weight)`` for one uniform draw ``u``, and
    requests are served by descending key.  A request's weight is its team's
    remaining budget (tickets); zero-weight requests always sort last.  No
    requests draw nothing.

    >>> weights = np.array([1e-9, 1e9])  # a poor team, then a rich one
    >>> lottery_order(np.zeros(2), weights, np.random.default_rng(1)).tolist()
    [1, 0]
    """
    if not len(weights):
        return np.zeros(0, dtype=np.intp)
    draws = rng.random(len(weights))
    with np.errstate(divide="ignore"):
        keys = np.where(weights > 0.0, draws ** (1.0 / weights), -1.0)
    return np.argsort(-keys, kind="stable")


def proportional_grants(
    available: np.ndarray, requested: np.ndarray, priorities: np.ndarray, weights: np.ndarray, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Grant each row ``min(1, available/demand)`` of what it asks for in each pool."""
    total_demand = running_sum(np.zeros(len(available)), requested)
    # A subnormal demand overflows the ratio to inf, and min(1, inf) is 1.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(total_demand > 0, np.minimum(1.0, available / total_demand), 1.0)
    return np.arange(len(requested)), requested * scale


# -- the mechanism shell -----------------------------------------------------------------


def zero_migration_summary() -> dict[str, float]:
    """The migration block of a mechanism that never moves load.

    The keys of :func:`repro.analysis.utilization_stats.migration_summary`,
    all zero (and NaN-free, so canonical reports stay JSON-round-trippable).
    """
    return {key: 0.0 for key in migration_summary(())}


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
        # Operator priorities are assigned once, up front: the operator ranks
        # teams by perceived importance, not per epoch.  Uses the scenario RNG
        # so a fixed seed fixes the whole run.
        priorities = priorities_from_agents(scenario.agents, seed=scenario.rng)
        # A policy that draws (the lottery) takes its own stream from the
        # scenario RNG, so a fixed seed fixes every draw.  The others take
        # nothing from it, and the drift model draws next.
        self._rng = (
            np.random.default_rng(int(scenario.rng.integers(2**63))) if mechanism.draws else None
        )
        # Demand is re-derived analytically each epoch instead of re-running
        # the covering-bundle translation: covering bundles are linear in the
        # requested quantity and a profile's growth is one multiplicative
        # factor per epoch, so epoch t's demand row is exactly
        # ``base * (1 + growth) ** (t - 1)``.  This is what keeps a baseline
        # epoch allocator-bound instead of bid-entry-bound.  ``_teams`` holds
        # the teams with a demand, in agent order; every per-team array and
        # the rows of every ``(teams, R)`` matrix below follow it.
        self._teams, self._base_demand = demands_from_agents(scenario.agents, self._initial_index)
        agents = {agent.name: agent for agent in scenario.agents}
        self._growth = [float(agents[team].demand.growth_rate) for team in self._teams]
        self._priorities = np.array([priorities.get(team, 0) for team in self._teams], dtype=int)
        #: Budget each team has left to buy quota at the posted fixed prices.
        self._budgets = np.array([float(agents[team].budget) for team in self._teams])
        if not np.isfinite(self._budgets).all():
            team = self._teams[int(np.flatnonzero(~np.isfinite(self._budgets))[0])]
            raise ValueError(f"budget of team {team!r} must be finite")
        #: Cumulative granted quota per team.
        self._holdings = np.zeros_like(self._base_demand)
        #: Posted fixed prices as a vector (constant for the whole run).
        self._fixed_prices = self._initial_index.vector(scenario.platform.fixed_prices)

    def _epoch_demands(self, epoch: int) -> np.ndarray:
        """The ``(teams, R)`` demand at ``epoch`` (1-based), grown analytically.

        Each team's factor is a Python float power: NumPy's array power
        rounds some entries differently.
        """
        factors = np.array([(1.0 + growth) ** (epoch - 1) for growth in self._growth])
        return self._base_demand * factors[:, np.newaxis]

    def _residual_requests(self, demands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What each team still needs beyond the quota it already holds.

        Quota is bought, not gifted: a residual request costing more than the
        team's remaining budget at the posted fixed prices is scaled down to
        what the team can afford.  This is the flip side of the market's
        advantage — a market bidder whose home cluster is congested chases
        clearing prices *below* the fixed rate in idle clusters, so the same
        budget provisions more resources there.

        Returns the requesting teams' rows, in team order, and their
        requests: the residual entries above 1e-12.  A team with no such
        entry files no request.
        """
        residual = np.clip(demands - self._holdings, 0.0, None)
        costs = row_costs(residual, self._fixed_prices)
        capped = costs > self._budgets
        afford = np.divide(
            self._budgets, costs, out=np.zeros_like(costs), where=capped & (costs > 0)
        )
        residual[capped] *= afford[capped, np.newaxis]
        asked = residual > 1e-12
        rows = np.flatnonzero(asked.any(axis=1))
        return rows, np.where(asked[rows], residual[rows], 0.0)

    def run_one_epoch(self) -> BaselinePeriodResult:
        """Run a single allocation epoch and record its statistics."""
        scenario = self.scenario
        index = scenario.pool_index
        demands = self._epoch_demands(len(self.periods) + 1)
        fixed_prices = self._fixed_prices

        rows, requested = self._residual_requests(demands)
        served, granted = self.mechanism.grants(
            index.available(),
            requested,
            self._priorities[rows],
            # Lottery tickets: what each team can still spend.
            self._budgets[rows],
            self._rng,
        )
        # The epoch's total adds the grants in service order.
        epoch_granted = running_sum(np.zeros(len(index)), granted[served])
        grant_count = int(np.count_nonzero(granted > _TRADE_TOL))
        self._holdings[rows] += granted
        self._budgets[rows] = np.maximum(
            0.0, self._budgets[rows] - row_costs(granted, fixed_prices)
        )

        revenue = float(np.dot(epoch_granted, fixed_prices))

        # Everything granted so far, judged against the current demand.  The
        # measure is anchored to the *initial* pool index: shortage and
        # satisfaction only need unit costs (constant), and surplus then reads
        # as "capacity that was free before the first epoch and that the
        # mechanism has still never put to use" — the same yardstick the market
        # simulation applies to its cumulative quota delta.
        metrics = allocation_metrics(
            self._initial_index, self.mechanism.name, row_blocks(demands, self._holdings)
        )

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

    #: Registry name; also the ``policy`` label of the metrics it produces.
    name: str
    description: str
    #: ``grants(available, requested, priorities, weights, rng)``: the
    #: policy's service order over the rows of ``requested`` and what it
    #: granted each row against the ``available`` capacity.
    grants: Callable[
        [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.random.Generator | None],
        tuple[np.ndarray, np.ndarray],
    ]
    #: Whether ``grants`` draws from ``rng``.  Only such a policy takes a
    #: stream from the scenario RNG (see :class:`BaselineEconomySimulation`).
    draws: bool = False

    def run(self, spec: "ScenarioSpec") -> "ScenarioRunResult":
        from repro.simulation.runner import ScenarioRunResult, _round, _round_list

        scenario = spec.build()
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
    scenario: Scenario, requested: np.ndarray, priorities: np.ndarray
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Run every baseline policy once against a scenario's current fleet.

    Each policy gets the same ``requested`` rows and ``priorities``; the
    result is one ``(policy, requested, granted)`` per policy, rows in the
    policy's service order.  This is the single-epoch view used by
    ``experiments/baseline_comparison.py``.  It is *not* a mechanism's first
    epoch: the requests carry no budget cap and equal lottery weights, and
    the lottery draws from ``default_rng(0)`` instead of a stream taken from
    the scenario RNG.
    """
    available = scenario.pool_index.available()
    weights = np.ones(len(requested))
    outcomes = []
    for mechanism in BASELINE_MECHANISMS:
        served, granted = mechanism.grants(
            available, requested, priorities, weights, np.random.default_rng(0)
        )
        outcomes.append((mechanism.name, requested[served], granted[served]))
    return outcomes
