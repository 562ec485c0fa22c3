"""Allocation outcomes and how they are measured: shortage, surplus, balance.

The paper's headline qualitative claim is that the market reduces "the
excessive shortages and surpluses of more traditional allocation methods" and
evens out utilization across pools.  This module holds what the baseline
policies (:mod:`repro.mechanisms.baseline`) and the market economy
(:mod:`repro.simulation.economy`) share: the :class:`QuotaRequest` a team
files, the :class:`AllocationOutcome` a policy produces, and the metrics
behind the claim, so both mechanisms are measured by the same code.

Two complementary families of measures live here:

* **Team-level coverage** (:func:`allocation_metrics`): how much of each
  team's cost-weighted request was granted, anywhere in the fleet — the
  fairness/satisfaction view.
* **Pool-level imbalance** (:func:`utilization_imbalance`): the paper's
  literal complaint — "uneven utilization, significant shortages and
  surpluses in *certain resource pools*" — measured as capacity overcommitted
  beyond safe headroom (shortage) and capacity stranded idle (surplus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.cluster.utilization import utilization_spread

#: Utilization above which a pool counts as *short*: allocation policies that
#: keep piling load onto an already-hot pool leave it without headroom for
#: spikes or failover.  At 0.90 the paper's phi_1 reserve weighting prices the
#: pool at e^{2(0.9-0.5)} ~ 2.2x cost — deep in the "expensive" zone the
#: market uses to repel exactly this overcommitment.
SHORTAGE_UTILIZATION = 0.90

#: Utilization below which a pool counts as *surplus*: capacity bought and
#: racked but left stranded because no allocation steers demand there.  At
#: 0.30 the phi_1 weighting prices the pool *below* cost (e^{-0.4} ~ 0.67x) —
#: the market's explicit invitation to migrate in.
SURPLUS_UTILIZATION = 0.30


@dataclass(frozen=True)
class QuotaRequest:
    """One team's quota request under a traditional allocation policy.

    Unlike a market bid there is no limit price and no indifference set: the
    team names exactly what it wants (usually in its home cluster) and the
    operator decides.  ``priority`` is the operator-assigned importance used
    by the priority policy.
    """

    team: str
    quantities: Mapping[str, float]
    priority: int = 0
    #: Lottery tickets (normally the team's remaining budget); only the
    #: lottery policy reads it.  Defaults to an equal single ticket.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.team:
            raise ValueError("team must be non-empty")
        if not self.quantities:
            raise ValueError("request must name at least one pool")
        for pool, qty in self.quantities.items():
            if not (math.isfinite(qty) and qty >= 0):
                raise ValueError(
                    f"requested quantity of {pool!r} must be finite and non-negative, got {qty!r}"
                )
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"weight must be finite and non-negative, got {self.weight!r}")

    def vector(self, index: PoolIndex) -> np.ndarray:
        """The request as a vector over ``index``."""
        return index.vector(dict(self.quantities))


@dataclass
class AllocationOutcome:
    """What an allocator granted, per team, plus derived shortage/surplus views."""

    index: PoolIndex
    policy: str
    granted: dict[str, np.ndarray] = field(default_factory=dict)
    requested: dict[str, np.ndarray] = field(default_factory=dict)

    def record(self, team: str, requested: np.ndarray, granted: np.ndarray) -> None:
        """Accumulate one team's requested and granted vectors."""
        req = self.requested.setdefault(team, np.zeros(len(self.index)))
        grant = self.granted.setdefault(team, np.zeros(len(self.index)))
        self.requested[team] = req + requested
        self.granted[team] = grant + granted

    # -- per-pool aggregates -----------------------------------------------------------
    def total_requested(self) -> np.ndarray:
        """Total requested per pool."""
        total = np.zeros(len(self.index))
        for vec in self.requested.values():
            total += vec
        return total

    def total_granted(self) -> np.ndarray:
        """Total granted per pool."""
        total = np.zeros(len(self.index))
        for vec in self.granted.values():
            total += vec
        return total

    def shortage(self) -> np.ndarray:
        """Requested minus granted, clipped at zero (unmet demand per pool)."""
        return np.clip(self.total_requested() - self.total_granted(), 0.0, None)

    def surplus(self) -> np.ndarray:
        """Capacity left unallocated per pool (relative to the *available* capacity)."""
        return np.clip(self.index.available() - self.total_granted(), 0.0, None)

    def grant_fraction(self, team: str) -> float:
        """Fraction of a team's requested units that were granted (1.0 if it asked for nothing)."""
        requested = self.requested.get(team)
        if requested is None or requested.sum() <= 0:
            return 1.0
        granted = self.granted.get(team, np.zeros(len(self.index)))
        return float(granted.sum() / requested.sum())

    def fully_satisfied_teams(self, *, tol: float = 1e-9) -> list[str]:
        """Teams whose entire request was granted."""
        return [
            team
            for team in self.requested
            if np.all(self.granted.get(team, np.zeros(len(self.index))) >= self.requested[team] - tol)
        ]

    def teams(self) -> list[str]:
        """All teams that submitted requests."""
        return list(self.requested)


def utilization_imbalance(
    index: PoolIndex,
    utilizations: np.ndarray | None = None,
    *,
    shortage_threshold: float = SHORTAGE_UTILIZATION,
    surplus_threshold: float = SURPLUS_UTILIZATION,
) -> tuple[float, float]:
    """Cost-weighted (shortage, surplus) capacity of a fleet state.

    Shortage is the capacity committed beyond ``shortage_threshold`` across
    pools (hot pools running without headroom); surplus is the capacity idle
    below ``surplus_threshold`` (cold pools nobody steers demand to).  Both
    are weighted by unit cost so a congested CPU pool is not drowned out by
    disk's larger raw numbers.  ``utilizations`` overrides the index's own
    utilization vector (useful for replaying recorded trajectories).

    A mechanism that relocates demand from hot to cold pools — the market's
    defining behaviour (Figure 7) — shrinks *both* numbers; a policy that
    grants demand wherever it happens to land (FCFS, priority, proportional
    share) piles load onto hot pools while cold ones stay stranded.
    """
    utils = index.utilizations() if utilizations is None else np.asarray(utilizations, dtype=float)
    weighted_caps = index.capacities() * index.unit_costs()
    shortage = float(np.dot(np.clip(utils - shortage_threshold, 0.0, None), weighted_caps))
    surplus = float(np.dot(np.clip(surplus_threshold - utils, 0.0, None), weighted_caps))
    return shortage, surplus


@dataclass(frozen=True)
class AllocationMetrics:
    """Headline metrics of one allocation policy run."""

    policy: str
    #: Total unmet demand across pools, in cost-weighted units (so CPU shortage
    #: is not drowned out by disk's larger raw numbers).
    shortage_cost: float
    #: Total unallocated available capacity, cost-weighted.
    surplus_cost: float
    #: Standard deviation of post-allocation utilization across pools.
    utilization_spread: float
    #: Fraction of teams whose request was fully satisfied.
    satisfied_fraction: float
    #: Fraction of all requested (cost-weighted) units that were granted.
    grant_rate: float


def _cost_weighted(index: PoolIndex, quantities: np.ndarray) -> float:
    return float(np.dot(np.clip(quantities, 0.0, None), index.unit_costs()))


def _post_allocation_utilization(index: PoolIndex, granted: np.ndarray) -> np.ndarray:
    capacities = np.maximum(index.capacities(), 1e-9)
    used = index.utilizations() * capacities + np.clip(granted, 0.0, None)
    return np.clip(used / capacities, 0.0, 1.0)


def allocation_metrics(outcome: AllocationOutcome) -> AllocationMetrics:
    """Metrics for an allocation outcome (baseline policy or market).

    Shortage and satisfaction are measured *per team and cost-weighted*, not
    per pool: a team that asked for resources in its congested home cluster
    but was provisioned an equivalent bundle in an idle cluster is satisfied —
    that relocation is precisely the market behaviour the paper wants — while
    a team granted only half of what it needs contributes the missing half to
    the shortage regardless of which pool it is missing from.  Surplus stays
    a per-pool quantity (capacity left idle).
    """
    index = outcome.index
    surplus = outcome.surplus()
    granted = outcome.total_granted()
    shortage_cost = 0.0
    satisfied = 0
    requested_cost_total = 0.0
    granted_cost_total = 0.0
    teams = outcome.teams()
    for team in teams:
        requested_cost = _cost_weighted(index, outcome.requested[team])
        granted_cost = _cost_weighted(index, outcome.granted.get(team, np.zeros(len(index))))
        requested_cost_total += requested_cost
        granted_cost_total += granted_cost
        shortage_cost += max(0.0, requested_cost - granted_cost)
        if granted_cost >= requested_cost * (1.0 - 1e-6):
            satisfied += 1
    return AllocationMetrics(
        policy=outcome.policy,
        shortage_cost=shortage_cost,
        surplus_cost=_cost_weighted(index, surplus),
        utilization_spread=utilization_spread(_post_allocation_utilization(index, granted)),
        satisfied_fraction=satisfied / len(teams) if teams else 1.0,
        grant_rate=(granted_cost_total / requested_cost_total) if requested_cost_total > 0 else 1.0,
    )


def market_outcome_from_quota_delta(
    index: PoolIndex,
    requests: Sequence[QuotaRequest],
    initial_holdings: Mapping[str, Mapping[str, float]],
    final_holdings: Mapping[str, Mapping[str, float]],
) -> AllocationOutcome:
    """Express the market's multi-auction provisioning as an :class:`AllocationOutcome`.

    The market provisions over several periodic auctions (teams that lose one
    auction raise their bids in the next), so the fair comparison against a
    one-shot baseline policy is the *cumulative* quota each team acquired:
    its final holdings minus its initial holdings, clipped to acquisitions.
    """
    outcome = AllocationOutcome(index=index, policy="market")
    granted_by_team: dict[str, np.ndarray] = {}
    teams = set(initial_holdings) | set(final_holdings)
    for team in teams:
        initial = index.vector(dict(initial_holdings.get(team, {})))
        final = index.vector(dict(final_holdings.get(team, {})))
        granted_by_team[team] = np.clip(final - initial, 0.0, None)
    for request in requests:
        wanted = request.vector(index)
        granted = granted_by_team.pop(request.team, np.zeros(len(index)))
        outcome.record(request.team, wanted, granted)
    # teams that acquired quota without appearing in the baseline request set
    for team, granted in granted_by_team.items():
        if np.any(granted > 0):
            outcome.record(team, np.zeros(len(index)), granted)
    return outcome


def requests_from_demands(
    index: PoolIndex,
    demands: Mapping[str, Mapping[str, float]],
    *,
    priorities: Mapping[str, int] | None = None,
) -> list[QuotaRequest]:
    """Build baseline quota requests from per-team demand bundles.

    ``demands`` maps team -> {pool name: quantity}; ``priorities`` optionally
    assigns operator priorities (default 0).
    """
    priorities = priorities or {}
    return [
        QuotaRequest(team=team, quantities=dict(quantities), priority=priorities.get(team, 0))
        for team, quantities in demands.items()
        if quantities
    ]
