"""Ablation: price-increment policies (Section III-C-2).

The paper notes the naive ``alpha * z+`` update "often causes the prices to
move too quickly in the early rounds of the auction and then too slowly in the
later ones", recommends capping the per-round change (Eq. 3), and suggests
normalizing increments for the base price differences between resources.
This ablation runs the same reference auction under each policy and compares
rounds-to-convergence, final price dispersion, and whether the cheap resource
(disk) ends up with prices out of proportion to its cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agents.population import PopulationSpec
from repro.cluster.resources import ResourceType
from repro.core.clock_auction import AscendingClockAuction, AuctionConfig, ConvergenceError
from repro.core.increment import (
    AdditiveIncrement,
    CappedIncrement,
    IncrementPolicy,
    NormalizedIncrement,
    default_increment,
)
from repro.core.reserve import PAPER_PHI_1, ReservePricer
from repro.experiments import first_auction_bids


@dataclass(frozen=True)
class IncrementAblationRow:
    """Outcome of one increment policy on the reference auction."""

    policy: str
    converged: bool
    rounds: int
    settled_like_fraction: float
    #: Mean final-price / unit-cost ratio for disk vs CPU: values far from each
    #: other indicate the "out of proportion" problem the paper warns about.
    disk_to_cpu_ratio_skew: float


@dataclass(frozen=True)
class IncrementAblationResult:
    rows: tuple[IncrementAblationRow, ...]

    def row(self, policy_prefix: str) -> IncrementAblationRow:
        for row in self.rows:
            if row.policy.startswith(policy_prefix):
                return row
        raise KeyError(policy_prefix)


def run_ablation_increment(
    *,
    cluster_count: int = 12,
    team_count: int = 40,
    seed: int = 0,
    max_rounds: int = 3000,
) -> IncrementAblationResult:
    """Run the reference auction under each increment policy."""
    index, bids = first_auction_bids(cluster_count, PopulationSpec(team_count=team_count), seed=seed)
    reserve = ReservePricer(weighting=PAPER_PHI_1).reserve_prices(index)
    supply = index.available() * 0.9
    capacities = index.capacities()
    policies: list[IncrementPolicy] = [
        AdditiveIncrement(alpha=0.001),
        CappedIncrement(alpha=0.001, cap_fraction=0.10),
        NormalizedIncrement(base_prices=index.unit_costs(), alpha=0.001, cap_fraction=0.10),
        default_increment(capacities),
    ]
    rows: list[IncrementAblationRow] = []
    cpu_idx = [index.index_of(p.name) for p in index.pools_of_type(ResourceType.CPU)]
    disk_idx = [index.index_of(p.name) for p in index.pools_of_type(ResourceType.DISK)]
    costs = index.unit_costs()

    for policy in policies:
        auction = AscendingClockAuction(
            index,
            bids,
            reserve_prices=reserve,
            supply=supply,
            increment=policy,
            config=AuctionConfig(max_rounds=max_rounds),
        )
        try:
            outcome = auction.run()
            converged = True
            rounds = outcome.round_count
            final = outcome.final_prices
            active = int(np.count_nonzero(np.any(np.abs(outcome.final_demands) > 0, axis=1)))
            settled = active / max(len(bids), 1)
        except ConvergenceError:
            converged = False
            rounds = max_rounds
            final = reserve
            settled = 0.0
        cpu_ratio = float(np.mean(final[cpu_idx] / costs[cpu_idx]))
        disk_ratio = float(np.mean(final[disk_idx] / costs[disk_idx]))
        skew = abs(disk_ratio - cpu_ratio)
        rows.append(
            IncrementAblationRow(
                policy=policy.describe(),
                converged=converged,
                rounds=rounds,
                settled_like_fraction=settled,
                disk_to_cpu_ratio_skew=skew,
            )
        )
    return IncrementAblationResult(rows=tuple(rows))


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_ablation_increment()
    print("Increment-policy ablation (Section III-C-2)")
    print(f"{'policy':<45} {'converged':>10} {'rounds':>7} {'active':>7} {'ratio skew':>11}")
    for row in result.rows:
        print(
            f"{row.policy:<45} {str(row.converged):>10} {row.rounds:>7d} "
            f"{row.settled_like_fraction:>6.1%} {row.disk_to_cpu_ratio_skew:>11.3f}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
