"""Allocation outcomes and how they are measured: shortage, surplus, balance.

The paper's headline qualitative claim is that the market reduces "the
excessive shortages and surpluses of more traditional allocation methods" and
evens out utilization across pools.  This module holds what the baseline
policies (:mod:`repro.mechanisms.baseline`) and the market economy
(:mod:`repro.simulation.economy`) share: the :class:`QuotaRequest` a team
files, the :class:`AllocationOutcome` a policy produces (the market's is a
:class:`MarketOutcome`, read from two holdings matrices), and the metrics
behind the claim: :func:`allocation_metrics` is one kernel over row blocks of
either outcome, so both mechanisms are measured by the same code.

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
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.cluster.utilization import utilization_spread
from repro.market.quotas import BLOCK_TEAMS, ZERO_HOLDING, QuotaRegistry

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

    def teams(self) -> list[str]:
        """All teams that submitted requests."""
        return list(self.requested)

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(requested, granted)`` row blocks of at most :data:`BLOCK_TEAMS` teams, in :meth:`teams` order."""
        teams = self.teams()
        zeros = np.zeros(len(self.index))
        for start in range(0, len(teams), BLOCK_TEAMS):
            chunk = teams[start : start + BLOCK_TEAMS]
            yield (
                np.array([self.requested[team] for team in chunk]),
                np.array([self.granted.get(team, zeros) for team in chunk]),
            )


@dataclass(eq=False)
class MarketOutcome:
    """The market's cumulative provisioning, read from two holdings matrices.

    A team was granted what it acquired since the market started:
    ``clip(final - initial, 0)`` per pool, where ``final`` is its row of the
    registry now and ``initial`` its row of ``initial``, a
    :meth:`~repro.market.quotas.QuotaRegistry.matrix` copy taken at the start
    (a team registered since then started with nothing).  Entries of
    magnitude at most :data:`~repro.market.quotas.ZERO_HOLDING` read as zero
    in both, as in the registry's name-keyed views.

    Teams are measured in ``demands`` order, skipping empty demands, and then
    every other registered team that acquired quota, in registration order.
    The registry is read when the outcome is, one block of teams at a time.
    """

    index: PoolIndex
    demands: Mapping[str, Mapping[str, float]]
    initial: np.ndarray
    quotas: QuotaRegistry
    policy: str = "market"

    def __post_init__(self) -> None:
        self._requested = [(team, bundle) for team, bundle in self.demands.items() if bundle]
        unrequested = np.array(
            [row for team, row in self.quotas.rows().items() if not self.demands.get(team)],
            dtype=np.intp,
        )
        self._acquirers = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [
                block[(self._grants(block) > 0).any(axis=1)]
                for block in _row_blocks(unrequested)
            ]
        )

    def _grants(self, rows: np.ndarray) -> np.ndarray:
        """What the teams at registry rows ``rows`` acquired (row -1: never registered)."""
        known = rows >= 0
        final = np.zeros((len(rows), len(self.index)))
        final[known] = self.quotas.holdings_of(rows[known])
        initial = np.zeros_like(final)
        started = known & (rows < len(self.initial))
        initial[started] = self.initial[rows[started]]
        for holdings in (final, initial):
            holdings[~(np.abs(holdings) > ZERO_HOLDING)] = 0.0
        return np.clip(final - initial, 0.0, None)

    def teams(self) -> list[str]:
        """The measured teams, in the order :meth:`blocks` yields them."""
        registered = self.quotas.teams()
        return [team for team, _ in self._requested] + [
            registered[row] for row in self._acquirers.tolist()
        ]

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(requested, granted)`` row blocks of at most :data:`BLOCK_TEAMS` teams, in :meth:`teams` order.

        Demand rows get :class:`QuotaRequest`'s checks: a named team, and
        finite, non-negative quantities.
        """
        rows = self.quotas.rows()
        for start in range(0, len(self._requested), BLOCK_TEAMS):
            chunk = self._requested[start : start + BLOCK_TEAMS]
            demand = self.index.matrix([bundle for _, bundle in chunk])
            _check_demand(chunk, demand)
            yield demand, self._grants(
                np.array([rows.get(team, -1) for team, _ in chunk], dtype=np.intp)
            )
        for block in _row_blocks(self._acquirers):
            yield np.zeros((len(block), len(self.index))), self._grants(block)

    @property
    def granted(self) -> dict[str, np.ndarray]:
        """Each measured team's acquired quota, in :meth:`teams` order."""
        return dict(zip(self.teams(), (row for _, block in self.blocks() for row in block)))


def _row_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
    for start in range(0, len(rows), BLOCK_TEAMS):
        yield rows[start : start + BLOCK_TEAMS]


def _check_demand(chunk: Sequence[tuple[str, Mapping[str, float]]], demand: np.ndarray) -> None:
    """:class:`QuotaRequest`'s checks over a block of demand rows, with its messages."""
    if not all(team for team, _ in chunk):
        raise ValueError("team must be non-empty")
    valid = np.isfinite(demand) & (demand >= 0)
    if not valid.all():
        _, bundle = chunk[int(np.flatnonzero(~valid.all(axis=1))[0])]
        for pool, qty in bundle.items():
            if not (math.isfinite(qty) and qty >= 0):
                raise ValueError(
                    f"requested quantity of {pool!r} must be finite and non-negative, got {qty!r}"
                )


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


def _row_costs(rows: np.ndarray, unit_costs: np.ndarray) -> np.ndarray:
    """:func:`_cost_weighted` of each row, one dot product per row.

    A matrix product over the block rounds some rows differently.
    """
    return np.array([np.dot(row, unit_costs) for row in np.clip(rows, 0.0, None)], dtype=float)


def _running_sum(start, values: np.ndarray):
    """``start`` plus each of ``values`` in turn, as a loop adding them one by one.

    ``np.add.accumulate`` adds in order along the first axis; ``np.sum``
    adds pairwise and would round differently.
    """
    return np.add.accumulate(np.concatenate((np.asarray(start)[np.newaxis], values)))[-1]


def _post_allocation_utilization(index: PoolIndex, granted: np.ndarray) -> np.ndarray:
    capacities = np.maximum(index.capacities(), 1e-9)
    used = index.utilizations() * capacities + np.clip(granted, 0.0, None)
    return np.clip(used / capacities, 0.0, 1.0)


def allocation_metrics(outcome: AllocationOutcome | MarketOutcome) -> AllocationMetrics:
    """Metrics for an allocation outcome (baseline policy or market).

    Shortage and satisfaction are measured *per team and cost-weighted*, not
    per pool: a team that asked for resources in its congested home cluster
    but was provisioned an equivalent bundle in an idle cluster is satisfied —
    that relocation is precisely the market behaviour the paper wants — while
    a team granted only half of what it needs contributes the missing half to
    the shortage regardless of which pool it is missing from.  Surplus stays
    a per-pool quantity (capacity left idle).

    One kernel for every mechanism: it reads the outcome's
    :meth:`~AllocationOutcome.blocks` and adds each team's costs and grant
    in team order, so the sums round as a loop over the teams would.
    """
    index = outcome.index
    unit_costs = index.unit_costs()
    granted_total = np.zeros(len(index))
    shortage_cost = 0.0
    satisfied = 0
    teams = 0
    requested_cost_total = 0.0
    granted_cost_total = 0.0
    for requested, granted in outcome.blocks():
        requested_costs = _row_costs(requested, unit_costs)
        granted_costs = _row_costs(granted, unit_costs)
        requested_cost_total = _running_sum(requested_cost_total, requested_costs)
        granted_cost_total = _running_sum(granted_cost_total, granted_costs)
        # fmax, like max(0.0, x), reads a NaN shortfall as 0.0.
        shortage_cost = _running_sum(shortage_cost, np.fmax(0.0, requested_costs - granted_costs))
        satisfied += int(np.count_nonzero(granted_costs >= requested_costs * (1.0 - 1e-6)))
        granted_total = _running_sum(granted_total, granted)
        teams += len(requested)
    surplus = np.clip(index.available() - granted_total, 0.0, None)
    return AllocationMetrics(
        policy=outcome.policy,
        shortage_cost=float(shortage_cost),
        surplus_cost=_cost_weighted(index, surplus),
        utilization_spread=utilization_spread(_post_allocation_utilization(index, granted_total)),
        satisfied_fraction=satisfied / teams if teams else 1.0,
        grant_rate=(
            float(granted_cost_total / requested_cost_total) if requested_cost_total > 0 else 1.0
        ),
    )


def market_outcome_from_quota_delta(
    index: PoolIndex,
    demands: Mapping[str, Mapping[str, float]],
    initial: np.ndarray,
    quotas: QuotaRegistry,
) -> MarketOutcome:
    """Express the market's multi-auction provisioning as a :class:`MarketOutcome`.

    The market provisions over several periodic auctions (teams that lose one
    auction raise their bids in the next), so the fair comparison against a
    one-shot baseline policy is the *cumulative* quota each team acquired:
    its holdings in ``quotas`` now minus its row of ``initial`` (the
    registry's :meth:`~repro.market.quotas.QuotaRegistry.matrix` when the
    market started), clipped to acquisitions.  ``demands`` maps team ->
    {pool name: quantity}, as :func:`requests_from_demands` takes it.
    """
    return MarketOutcome(index=index, demands=demands, initial=initial, quotas=quotas)


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
