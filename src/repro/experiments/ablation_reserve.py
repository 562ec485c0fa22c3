"""Ablation: congestion-weighted vs flat reserve pricing (Section IV).

The reserve prices are the operator's steering wheel: priced off utilization
they "guide the users as they set their bids towards under-utilized
resources".  This ablation runs the same agent population under flat-cost
reserves and under each of the paper's three weighting curves, and compares
how much bid-side demand lands in under-utilized pools, the premium paid for
congested pools, and the post-auction utilization balance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.utilization_stats import migration_summary
from repro.core.reserve import (
    PAPER_PHI_1,
    PAPER_PHI_2,
    PAPER_PHI_3,
    FlatWeight,
    WeightingFunction,
)
from repro.simulation.catalog import ScenarioSpec, get_scenario
from repro.simulation.economy import MarketEconomySimulation


@dataclass(frozen=True)
class ReserveAblationRow:
    """Outcome of one reserve-pricing choice."""

    weighting: str
    median_bid_percentile: float
    median_offer_percentile: float
    bid_share_in_underutilized: float
    settled_fraction: float
    utilization_spread_after: float
    congested_premium: float


@dataclass(frozen=True)
class ReserveAblationResult:
    rows: tuple[ReserveAblationRow, ...]

    def row(self, weighting_prefix: str) -> ReserveAblationRow:
        for row in self.rows:
            if row.weighting.startswith(weighting_prefix):
                return row
        raise KeyError(weighting_prefix)


def _run_once(spec: ScenarioSpec, weighting: WeightingFunction, label: str) -> ReserveAblationRow:
    spec = replace(spec, config=replace(spec.config, weighting=weighting))
    period = MarketEconomySimulation.from_spec(spec.build(), spec).run_one_auction()
    migration = migration_summary(period.trades)
    ratios = period.price_ratios
    congested = [row.max_ratio() for row in ratios if row.mean_utilization > 0.75]
    idle = [row.max_ratio() for row in ratios if row.mean_utilization < 0.4]
    congested_premium = (
        (sum(congested) / len(congested)) / (sum(idle) / len(idle))
        if congested and idle and sum(idle) > 0
        else 1.0
    )
    import numpy as np

    return ReserveAblationRow(
        weighting=label,
        median_bid_percentile=migration["median_bid_percentile"],
        median_offer_percentile=migration["median_offer_percentile"],
        bid_share_in_underutilized=migration["bid_quantity_share_in_underutilized"],
        settled_fraction=period.settled_fraction,
        utilization_spread_after=float(np.std(period.utilization_after)),
        congested_premium=congested_premium,
    )


def run_ablation_reserve(spec: ScenarioSpec = get_scenario("paper-reference")) -> ReserveAblationResult:
    """Run one auction under flat reserves and under each Figure 2 curve."""
    rows = [
        _run_once(spec, FlatWeight(1.0), "flat(cost only)"),
        _run_once(spec, PAPER_PHI_1, "phi1 exp(2(x-0.5))"),
        _run_once(spec, PAPER_PHI_2, "phi2 exp(x-0.5)"),
        _run_once(spec, PAPER_PHI_3, "phi3 1/(1.5-x)"),
    ]
    return ReserveAblationResult(rows=tuple(rows))


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_ablation_reserve()
    print("Reserve-pricing ablation (Section IV)")
    header = (
        f"{'weighting':<22} {'bid pct':>8} {'offer pct':>10} {'bid@idle':>9} "
        f"{'settled':>8} {'spread':>7} {'congested premium':>18}"
    )
    print(header)
    for row in result.rows:
        print(
            f"{row.weighting:<22} {row.median_bid_percentile:>8.1f} {row.median_offer_percentile:>10.1f} "
            f"{row.bid_share_in_underutilized:>8.1%} {row.settled_fraction:>7.1%} "
            f"{row.utilization_spread_after:>7.3f} {row.congested_premium:>18.2f}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()
