"""Table I: bid premium statistics across consecutive auctions.

The paper reports, for its last three auctions, the median and mean of the bid
premium ``gamma_u`` (Eq. 5) and the percentage of trades settled.  The
headline finding is that the *median* premium decreased sharply over time as
bidders learned to track the market prices, while the mean stayed noisy
(sellers entering token reserve prices, low-ballers, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.premium import PremiumStats, premium_trend
from repro.simulation.catalog import ScenarioSpec, get_scenario
from repro.simulation.economy import EconomyHistory, MarketEconomySimulation


@dataclass(frozen=True)
class Table1Result:
    """The regenerated Table I."""

    rows: tuple[PremiumStats, ...]
    trend: dict[str, float]
    history: EconomyHistory

    def last_rows(self, count: int = 3) -> tuple[PremiumStats, ...]:
        """The last ``count`` auctions (the paper tabulates its final three)."""
        return self.rows[-count:]


def run_table1(
    spec: ScenarioSpec = get_scenario("paper-reference"), *, auctions: int | None = None
) -> Table1Result:
    """Run a multi-auction economy and compute the premium statistics per auction."""
    scenario = spec.build()
    history = MarketEconomySimulation.from_spec(scenario, spec).run(
        auctions if auctions is not None else spec.auctions
    )
    rows = tuple(history.premium_rows())
    return Table1Result(rows=rows, trend=premium_trend(list(rows)), history=history)


def main() -> None:  # pragma: no cover - CLI entry point
    from repro.analysis.reports import render_premium_table

    result = run_table1()
    print(render_premium_table(result.rows))
    print()
    print("trend:", {k: round(v, 4) for k, v in result.trend.items()})


if __name__ == "__main__":  # pragma: no cover
    main()
