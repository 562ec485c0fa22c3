"""Figure 7: utilization percentiles of resources in settled transactions.

The paper's boxplots show that most settled *bids* (purchases) were for
resources in under-utilized clusters and most settled *offers* (sales) were in
over-utilized clusters — the behaviour the utilization-weighted reserve prices
encourage — with a significant number of high-utilization bid outliers from
teams paying a premium to stay in congested clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.boxplot import BoxplotStats
from repro.analysis.utilization_stats import (
    SettledTrade,
    figure7_boxplots,
    migration_summary,
)
from repro.simulation.catalog import ScenarioSpec, get_scenario
from repro.simulation.economy import MarketEconomySimulation


@dataclass(frozen=True)
class Figure7Result:
    """The regenerated Figure 7 data."""

    boxplots: dict[str, BoxplotStats]
    trades: tuple[SettledTrade, ...]
    migration: dict[str, float]


def run_figure7(
    spec: ScenarioSpec = get_scenario("paper-reference"), *, auctions: int = 1
) -> Figure7Result:
    """Run ``auctions`` auction periods and pool the settled trades."""
    history = MarketEconomySimulation.from_spec(spec.build(), spec).run(auctions)
    trades = history.all_trades()
    return Figure7Result(
        boxplots=figure7_boxplots(history.settlements()),
        trades=tuple(trades),
        migration=migration_summary(trades),
    )


def main() -> None:  # pragma: no cover - CLI entry point
    from repro.analysis.reports import render_boxplots

    result = run_figure7()
    print(render_boxplots(result.boxplots))
    print()
    for key, value in result.migration.items():
        print(f"{key}: {value:.2f}")


if __name__ == "__main__":  # pragma: no cover
    main()
