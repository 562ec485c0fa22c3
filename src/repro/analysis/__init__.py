"""Analysis: the metrics behind every table and figure in the paper's evaluation.

* :mod:`repro.analysis.boxplot` — five-number summaries + outliers (Figure 7's boxplots);
* :mod:`repro.analysis.premium` — bid-premium statistics per auction (Table I);
* :mod:`repro.analysis.price_ratio` — market/fixed price ratios per cluster (Figure 6);
* :mod:`repro.analysis.utilization_stats` — utilization percentiles of settled
  trades split by side and resource dimension (Figure 7);
* :mod:`repro.analysis.settlement_stats` — projected utilization and its
  balance after a settlement;
* :mod:`repro.analysis.allocation` — quota requests, allocation outcomes, and
  the shortage/surplus metrics shared by the market and the baseline policies;
* :mod:`repro.analysis.reports` — plain-text rendering of the above.
"""

from repro.analysis.boxplot import BoxplotStats, boxplot_stats
from repro.analysis.premium import PremiumStats, premium_stats
from repro.analysis.price_ratio import PriceRatioRow, price_ratio_table, sort_rows_for_figure6
from repro.analysis.utilization_stats import (
    SettledTrade,
    settled_trades,
    utilization_percentile_groups,
    figure7_boxplots,
)
from repro.analysis.settlement_stats import (
    utilization_after_settlement,
    utilization_balance_improvement,
)
from repro.analysis.reports import render_table, render_premium_table, render_figure6_rows

__all__ = [
    "BoxplotStats",
    "boxplot_stats",
    "PremiumStats",
    "premium_stats",
    "PriceRatioRow",
    "price_ratio_table",
    "sort_rows_for_figure6",
    "SettledTrade",
    "settled_trades",
    "utilization_percentile_groups",
    "figure7_boxplots",
    "utilization_after_settlement",
    "utilization_balance_improvement",
    "render_table",
    "render_premium_table",
    "render_figure6_rows",
]
