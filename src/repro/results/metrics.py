"""The scalar metrics every scenario run is reduced to for persistence.

A :class:`~repro.simulation.runner.ScenarioRunResult` carries full per-auction
trajectories; the result store persists those verbatim, but statistics and
regression checks need one scalar per metric per run.  This module is the
single registry of those scalars: what they are called, how they are computed
from a run, and in which direction each is allowed to move before a change
counts as a *regression* rather than an improvement.

Directions:

``higher``
    Bigger is better (settled fraction, revenue, utilization) — a significant
    drop is a regression.
``lower``
    Smaller is better (premiums, clearing effort, utilization spread) — a
    significant rise is a regression.
``neutral``
    No preferred direction (price levels, trade counts) — *any* significant
    change is flagged, because an unexplained move in either direction means
    the market behaves differently than it used to.

>>> sorted(METRICS) == sorted(METRIC_DIRECTIONS)
True
>>> METRIC_DIRECTIONS["total_revenue"]
'higher'
>>> METRIC_DIRECTIONS["mean_clearing_rounds"]
'lower'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner stores results)
    from repro.simulation.runner import ScenarioRunResult


@dataclass(frozen=True)
class MetricDef:
    """One persisted scalar metric: name, regression direction, extractor."""

    name: str
    #: ``higher`` / ``lower`` / ``neutral`` — see the module docstring.
    direction: str
    description: str
    extract: Callable[["ScenarioRunResult"], float]

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "neutral"):
            raise ValueError(f"metric {self.name!r}: unknown direction {self.direction!r}")


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values))


def _final(values, series: str) -> float:
    """Last entry of a per-epoch series, with a readable error when absent.

    The allocation-comparison series (``shortage_cost`` & co.) default to
    empty lists on :class:`ScenarioRunResult` for constructor compatibility;
    a result built without them cannot be reduced to metrics, and that must
    surface as a clear message rather than a bare ``IndexError`` from deep
    inside ``store.record``.
    """
    values = list(values)
    if not values:
        raise ValueError(
            f"run has no {series!r} trajectory; every mechanism run must fill "
            "the allocation-comparison series (see ScenarioRunResult)"
        )
    return float(values[-1])


#: The registry, in display order.  Every metric maps a finished run to one
#: float; the store persists exactly this set for every recorded run.
METRICS: dict[str, MetricDef] = {
    m.name: m
    for m in (
        MetricDef(
            "final_median_premium",
            "lower",
            "Median bid premium gamma_u of the last auction (Table 1)",
            lambda r: float(r.median_premium[-1]),
        ),
        MetricDef(
            "premium_drop",
            "lower",
            "First-to-last change in median premium (negative = premiums fell)",
            lambda r: float(r.premium_drop),
        ),
        MetricDef(
            "mean_settled_fraction",
            "higher",
            "Mean fraction of orders settled per auction",
            lambda r: _mean(r.settled_fraction),
        ),
        MetricDef(
            "mean_clearing_rounds",
            "lower",
            "Mean clock rounds per binding auction",
            lambda r: _mean(r.clearing_rounds),
        ),
        MetricDef(
            "mean_clearing_price",
            "neutral",
            "Mean settled unit price across pools and auctions",
            lambda r: _mean(r.mean_clearing_price),
        ),
        MetricDef(
            "total_revenue",
            "higher",
            "Net payments collected from winners, summed across auctions",
            lambda r: float(sum(r.revenue)),
        ),
        MetricDef(
            "final_utilization",
            "higher",
            "Mean pool utilization after the last auction",
            lambda r: float(r.mean_utilization[-1]),
        ),
        MetricDef(
            "utilization_spread_change",
            "lower",
            "First-to-last change in utilization spread (negative = flattening)",
            lambda r: float(r.utilization_spread_change),
        ),
        MetricDef(
            "trade_count",
            "neutral",
            "Settled (bidder, pool) trades pooled across auctions",
            lambda r: float(r.trade_count),
        ),
        # The market-vs-baseline comparison scalars (measured by
        # ``analysis/allocation.py``): cumulative provisioning after the last
        # epoch, judged against that epoch's demand.  These are what
        # ``results compare --across mechanisms`` reproduces the paper's
        # Table-1-style shortage/surplus claim from.
        MetricDef(
            "shortage_cost",
            "lower",
            "Cost-weighted capacity overcommitted past safe headroom, final epoch",
            lambda r: _final(r.shortage_cost, "shortage_cost"),
        ),
        MetricDef(
            "surplus_cost",
            "lower",
            "Cost-weighted capacity stranded idle, final epoch",
            lambda r: _final(r.surplus_cost, "surplus_cost"),
        ),
        MetricDef(
            "utilization_spread",
            "lower",
            "Std-dev of pool utilization after the final epoch",
            lambda r: _final(r.utilization_spread, "utilization_spread"),
        ),
        MetricDef(
            "satisfied_fraction",
            "higher",
            "Fraction of teams fully provisioned after the final epoch",
            lambda r: _final(r.satisfied_fraction, "satisfied_fraction"),
        ),
    )
}

#: Metric name -> direction, the view the comparison layer consumes.
METRIC_DIRECTIONS: dict[str, str] = {name: m.direction for name, m in METRICS.items()}


def run_metrics(result: "ScenarioRunResult") -> dict[str, float]:
    """Reduce one finished run to its persisted scalar metrics.

    >>> from repro.simulation.runner import ScenarioRunResult
    >>> result = ScenarioRunResult(
    ...     scenario="tiny", seed=0, engine="auto", auctions=2,
    ...     clusters=1, pools=3, teams=2,
    ...     median_premium=[1.4, 1.1], mean_premium=[1.5, 1.2],
    ...     settled_fraction=[0.5, 0.7], clearing_rounds=[4, 2],
    ...     mean_clearing_price=[2.0, 3.0], revenue=[100.0, 140.0],
    ...     mean_utilization=[0.5, 0.6], utilization_spread=[0.2, 0.1],
    ...     migration={}, trade_count=5, mechanism="market",
    ...     shortage_cost=[60.0, 40.0], surplus_cost=[90.0, 70.0],
    ...     satisfied_fraction=[0.5, 0.8])
    >>> metrics = run_metrics(result)
    >>> metrics["total_revenue"], metrics["final_median_premium"]
    (240.0, 1.1)
    >>> metrics["mean_clearing_rounds"]
    3.0
    >>> metrics["shortage_cost"], metrics["satisfied_fraction"]
    (40.0, 0.8)
    """
    return {name: m.extract(result) for name, m in METRICS.items()}
