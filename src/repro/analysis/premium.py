"""Bid-premium statistics (paper Eq. 5 and Table I).

For every winning user the premium is

    gamma_u = |pi_u - x_u . p| / |x_u . p|

i.e. how far the bid's limit price sat above (or below, for sellers) the
amount actually settled.  Table I reports the median and mean of gamma_u plus
the fraction of bids that settled, for three consecutive auctions; the same
statistics are computed here from any :class:`~repro.core.settlement.Settlement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.settlement import Settlement


@dataclass(frozen=True)
class PremiumStats:
    """One auction's row of Table I."""

    auction: int
    median_premium: float
    mean_premium: float
    settled_fraction: float
    winner_count: int
    bidder_count: int

    def as_row(self) -> dict[str, float]:
        """The row as a plain mapping (for tables and serialization)."""
        return {
            "auction": float(self.auction),
            "median_gamma": self.median_premium,
            "mean_gamma": self.mean_premium,
            "pct_settled": self.settled_fraction * 100.0,
        }


def premium_stats(settlement: Settlement, *, auction: int = 0) -> PremiumStats:
    """Compute Table I statistics for one settled auction."""
    premiums = settlement.premiums()
    return PremiumStats(
        auction=auction,
        median_premium=float(np.median(premiums)) if premiums else 0.0,
        mean_premium=float(np.mean(premiums)) if premiums else 0.0,
        settled_fraction=settlement.settled_fraction(),
        winner_count=len(settlement.winners),
        bidder_count=len(settlement.lines),
    )


@dataclass(frozen=True)
class GenerationPremium:
    """One tournament generation's premium level across replicate runs.

    ``mean`` averages the per-replicate run means; ``ci95`` is the 95%
    t-interval over the replicates (``None`` with a single replicate — a CI
    needs variance to estimate).  Produced by :func:`generation_premiums`
    from the tournament engine's per-generation replicate sweeps.
    """

    generation: int
    mean: float
    ci95: tuple[float, float] | None

    def as_row(self) -> dict[str, object]:
        """The row as a plain mapping (for tables and serialization)."""
        return {
            "generation": self.generation,
            "mean": self.mean,
            "ci95": list(self.ci95) if self.ci95 is not None else None,
        }


def generation_premiums(
    values_per_generation: Sequence[Sequence[float]],
) -> list[GenerationPremium]:
    """Premium trajectory across tournament generations.

    ``values_per_generation[g]`` holds generation ``g``'s per-replicate mean
    premiums (one value per replicate seed).  Each generation is summarised
    with the same mean / 95%-t-interval convention as
    :mod:`repro.results.stats`.

    >>> rows = generation_premiums([[0.8, 0.9, 1.0], [0.2, 0.25, 0.3]])
    >>> [r.generation for r in rows]
    [0, 1]
    >>> rows[0].mean
    0.9
    >>> rows[1].ci95 is not None
    True
    """
    from repro.results.stats import replicate_stats  # lazy: avoids an import cycle

    rows = []
    for generation, values in enumerate(values_per_generation):
        stats = replicate_stats(f"generation-{generation}-premium", values)
        rows.append(
            GenerationPremium(generation=generation, mean=stats.mean, ci95=stats.ci95)
        )
    return rows


def premiums_fell(rows: Sequence[GenerationPremium]) -> bool:
    """Did premiums fall CI-separated from the first to the last generation?

    True when the last generation's *upper* 95% bound sits strictly below the
    first generation's *lower* bound — the intervals are disjoint with the
    first above, the paper's live finding as a statistical claim.  False when
    either CI is undefined (single replicate): no variance estimate, no claim.

    >>> premiums_fell(generation_premiums([[0.8, 0.9, 1.0], [0.2, 0.25, 0.3]]))
    True
    >>> premiums_fell(generation_premiums([[0.8, 0.9], [0.75, 0.95]]))
    False
    >>> premiums_fell(generation_premiums([[0.9], [0.1]]))
    False
    """
    if len(rows) < 2:
        raise ValueError("premiums_fell needs at least two generations")
    first, last = rows[0], rows[-1]
    if first.ci95 is None or last.ci95 is None:
        return False
    return last.ci95[1] < first.ci95[0]


def premium_trend(rows: Sequence[PremiumStats]) -> dict[str, float]:
    """Summary of how premiums evolve across auctions.

    ``median_ratio_last_to_first`` below 1.0 reproduces the paper's finding
    that "the median has decreased significantly over time"; the mean is
    reported too but the paper notes it "has been more variable".
    """
    if not rows:
        raise ValueError("premium_trend needs at least one auction row")
    first, last = rows[0], rows[-1]
    return {
        "median_first": first.median_premium,
        "median_last": last.median_premium,
        "median_ratio_last_to_first": (
            last.median_premium / first.median_premium if first.median_premium > 0 else 0.0
        ),
        "mean_first": first.mean_premium,
        "mean_last": last.mean_premium,
        "median_monotone_decreasing": float(
            all(a.median_premium >= b.median_premium - 1e-12 for a, b in zip(rows, rows[1:]))
        ),
    }
