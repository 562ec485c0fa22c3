"""Boxplot statistics: five-number summaries with Tukey outliers.

Figure 7 of the paper is a set of boxplots; since this library produces data
rather than graphics, a boxplot is represented by its summary statistics plus
the list of outlier points, which is everything needed to redraw the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary of one boxplot plus Tukey (1.5 IQR) outliers."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q3 - self.q1


def boxplot_stats(values: Iterable[float], *, whisker: float = 1.5) -> BoxplotStats:
    """Compute boxplot statistics for a non-empty collection of values.

    ``whisker`` is the Tukey multiplier: whiskers extend to the most extreme
    data point within ``whisker * IQR`` of the quartiles, and anything beyond
    is reported as an outlier.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute boxplot statistics of an empty collection")
    if not np.all(np.isfinite(arr)):
        raise ValueError("boxplot values must be finite")
    q1, median, q3 = (float(q) for q in np.percentile(arr, [25, 50, 75]))
    iqr = q3 - q1
    low_fence = q1 - whisker * iqr
    high_fence = q3 + whisker * iqr
    within = arr[(arr >= low_fence) & (arr <= high_fence)]
    whisker_low = float(within.min()) if within.size else q1
    whisker_high = float(within.max()) if within.size else q3
    outliers = tuple(float(v) for v in np.sort(arr[(arr < low_fence) | (arr > high_fence)]))
    return BoxplotStats(
        count=int(arr.size),
        minimum=float(arr.min()),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(arr.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
    )
