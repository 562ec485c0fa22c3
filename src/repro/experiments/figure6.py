"""Figure 6: change in resource prices after the auction.

The paper plots, per cluster and per resource dimension, the settled market
price divided by the former fixed price.  The expected shape: congested
clusters settle above 1x (demand exceeded the congestion-weighted reserve and
pushed prices up) while idle clusters settle below 1x (the reserve prices
discount them and supply is ample), and price ratios correlate strongly with
utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.price_ratio import (
    PriceRatioRow,
    ratio_utilization_correlation,
    sort_rows_for_figure6,
)
from repro.simulation.catalog import ScenarioSpec, get_scenario
from repro.simulation.economy import MarketEconomySimulation


@dataclass(frozen=True)
class Figure6Result:
    """The regenerated Figure 6 data."""

    rows: tuple[PriceRatioRow, ...]
    correlation_with_utilization: float
    settled_fraction: float
    rounds: int

    def congested_rows(self, threshold: float = 0.75) -> list[PriceRatioRow]:
        """Rows of clusters whose mean utilization exceeds ``threshold``."""
        return [row for row in self.rows if row.mean_utilization > threshold]

    def idle_rows(self, threshold: float = 0.4) -> list[PriceRatioRow]:
        """Rows of clusters whose mean utilization is below ``threshold``."""
        return [row for row in self.rows if row.mean_utilization < threshold]


def run_figure6(spec: ScenarioSpec = get_scenario("paper-reference")) -> Figure6Result:
    """Run one full auction over a synthetic fleet and compute the price ratios."""
    period = MarketEconomySimulation.from_spec(spec.build(), spec).run_one_auction()
    rows = sort_rows_for_figure6(period.price_ratios)
    return Figure6Result(
        rows=tuple(rows),
        correlation_with_utilization=ratio_utilization_correlation(rows),
        settled_fraction=period.settled_fraction,
        rounds=period.record.rounds,
    )


def main() -> None:  # pragma: no cover - CLI entry point
    from repro.analysis.reports import render_figure6_rows

    result = run_figure6()
    print(render_figure6_rows(result.rows))
    print()
    print(f"correlation(price ratio, utilization) = {result.correlation_with_utilization:.3f}")
    print(f"settled fraction = {result.settled_fraction:.1%}, clock rounds = {result.rounds}")


if __name__ == "__main__":  # pragma: no cover
    main()
