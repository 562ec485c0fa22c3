"""Price tables and price-ratio utilities.

These helpers turn raw price vectors into the structures the paper reports:
Figure 6 plots each pool's settled market price as a *ratio over the former
fixed price*; the market-summary page (Figure 3) lists the current market
price of every pool alongside activity counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.cluster.pools import PoolIndex


@dataclass(frozen=True)
class PriceTable:
    """Uniform unit prices for every pool, with convenient lookups.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> table = PriceTable(demo_pool_index(), np.array([4.0, 1.0, 2.0, 0.5]))
    >>> table.price("a/cpu")
    4.0
    """

    index: PoolIndex
    prices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.prices, dtype=float)
        if arr.shape != (len(self.index),):
            raise ValueError(f"prices have shape {arr.shape}, expected ({len(self.index)},)")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("prices must be finite and non-negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "prices", arr)

    # -- lookups ---------------------------------------------------------------
    def price(self, pool_name: str) -> float:
        """Unit price of one pool."""
        return float(self.prices[self.index.index_of(pool_name)])

    def as_map(self) -> dict[str, float]:
        """Prices keyed by pool name."""
        return {pool.name: float(self.prices[i]) for i, pool in enumerate(self.index)}


def price_ratios(
    market_prices: Mapping[str, float],
    fixed_prices: Mapping[str, float],
) -> dict[str, float]:
    """Market price / former fixed price per pool (the Figure 6 quantity).

    A pool whose fixed price is zero reads ``inf`` when its market price is
    positive and ``1.0`` when both are zero.

    Examples
    --------
    >>> price_ratios({"a/cpu": 30.0}, {"a/cpu": 10.0})
    {'a/cpu': 3.0}
    """
    ratios: dict[str, float] = {}
    for name, market in market_prices.items():
        base = fixed_prices.get(name)
        if base is None:
            raise KeyError(f"no fixed price recorded for pool {name!r}")
        if base > 0:
            ratios[name] = market / base
        else:
            ratios[name] = float("inf") if market > 0 else 1.0
    return ratios
