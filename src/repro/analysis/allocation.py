"""Allocation outcomes and how they are measured: shortage, surplus, balance.

The paper's headline qualitative claim is that the market reduces "the
excessive shortages and surpluses of more traditional allocation methods" and
evens out utilization across pools.  This module holds what the baseline
policies (:mod:`repro.mechanisms.baseline`) and the market economy
(:mod:`repro.simulation.economy`) share: the checked ``(teams, R)`` demand
matrix (:func:`demand_matrix`), the market's cumulative grants (a
:class:`MarketOutcome`, read from two holdings matrices), and the metrics
behind the claim: :func:`allocation_metrics` is one kernel over
``(requested, granted)`` row blocks, so both mechanisms are measured by the
same code.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
                for (block,) in row_blocks(unrequested)
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

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(requested, granted)`` row blocks of at most :data:`BLOCK_TEAMS` teams.

        Demand rows are checked as :func:`demand_matrix` checks them.
        """
        rows = self.quotas.rows()
        for start in range(0, len(self._requested), BLOCK_TEAMS):
            chunk = self._requested[start : start + BLOCK_TEAMS]
            yield demand_matrix(self.index, chunk), self._grants(
                np.array([rows.get(team, -1) for team, _ in chunk], dtype=np.intp)
            )
        for (block,) in row_blocks(self._acquirers):
            yield np.zeros((len(block), len(self.index))), self._grants(block)


def row_blocks(*arrays: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Blocks of at most :data:`BLOCK_TEAMS` aligned rows of each of ``arrays``."""
    for start in range(0, len(arrays[0]), BLOCK_TEAMS):
        yield tuple(array[start : start + BLOCK_TEAMS] for array in arrays)


def demand_matrix(
    index: PoolIndex, demands: Sequence[tuple[str, Mapping[str, float]]]
) -> np.ndarray:
    """Each ``(team, {pool name: quantity})`` demand as a row over ``index``.

    Every team must be named and every quantity finite and non-negative.
    """
    matrix = index.matrix([bundle for _, bundle in demands])
    if not all(team for team, _ in demands):
        raise ValueError("team must be non-empty")
    valid = np.isfinite(matrix) & (matrix >= 0)
    if not valid.all():
        _, bundle = demands[int(np.flatnonzero(~valid.all(axis=1))[0])]
        for pool, qty in bundle.items():
            if not (math.isfinite(qty) and qty >= 0):
                raise ValueError(
                    f"requested quantity of {pool!r} must be finite and non-negative, got {qty!r}"
                )
    return matrix


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


def row_costs(rows: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each row's non-negative part priced at ``prices``, one dot product per row.

    With the unit costs this is :func:`_cost_weighted` of each row.  A
    matrix product over the block rounds some rows differently.
    """
    return np.array([np.dot(row, prices) for row in np.clip(rows, 0.0, None)], dtype=float)


def running_sum(start, values: np.ndarray):
    """``start`` plus each of ``values`` in turn, as a loop adding them one by one.

    ``np.add.accumulate`` adds in order along the first axis; ``np.sum``
    adds pairwise and would round differently.
    """
    return np.add.accumulate(np.concatenate((np.asarray(start)[np.newaxis], values)))[-1]


def _post_allocation_utilization(index: PoolIndex, granted: np.ndarray) -> np.ndarray:
    capacities = np.maximum(index.capacities(), 1e-9)
    used = index.utilizations() * capacities + np.clip(granted, 0.0, None)
    return np.clip(used / capacities, 0.0, 1.0)


def allocation_metrics(
    index: PoolIndex, policy: str, blocks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> AllocationMetrics:
    """Metrics of ``policy``'s ``(requested, granted)`` row blocks over ``index``.

    Shortage and satisfaction are measured *per team and cost-weighted*, not
    per pool: a team that asked for resources in its congested home cluster
    but was provisioned an equivalent bundle in an idle cluster is satisfied —
    that relocation is precisely the market behaviour the paper wants — while
    a team granted only half of what it needs contributes the missing half to
    the shortage regardless of which pool it is missing from.  Surplus stays
    a per-pool quantity (capacity left idle).

    One kernel for every mechanism: the blocks are row-aligned
    ``(teams, R)`` matrices of what each team asked for and was granted (a
    baseline's demand and holdings, or a :class:`MarketOutcome`'s
    :meth:`~MarketOutcome.blocks`).  It adds each team's costs and grant in
    row order, so the sums round as a loop over the teams would.
    """
    unit_costs = index.unit_costs()
    granted_total = np.zeros(len(index))
    shortage_cost = 0.0
    satisfied = 0
    teams = 0
    requested_cost_total = 0.0
    granted_cost_total = 0.0
    for requested, granted in blocks:
        requested_costs = row_costs(requested, unit_costs)
        granted_costs = row_costs(granted, unit_costs)
        requested_cost_total = running_sum(requested_cost_total, requested_costs)
        granted_cost_total = running_sum(granted_cost_total, granted_costs)
        # fmax, like max(0.0, x), reads a NaN shortfall as 0.0.
        shortage_cost = running_sum(shortage_cost, np.fmax(0.0, requested_costs - granted_costs))
        satisfied += int(np.count_nonzero(granted_costs >= requested_costs * (1.0 - 1e-6)))
        granted_total = running_sum(granted_total, granted)
        teams += len(requested)
    surplus = np.clip(index.available() - granted_total, 0.0, None)
    return AllocationMetrics(
        policy=policy,
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
    {pool name: quantity}.
    """
    return MarketOutcome(index=index, demands=demands, initial=initial, quotas=quotas)

