"""Price-increment policies ``g(x, p)`` for the clock auction.

Section III-C-2 of the paper discusses how to pick the increment function:

* the simplest choice is ``g = alpha * z+`` (a small multiple of the positive
  part of excess demand), but it "often causes the prices to move too quickly
  in the early rounds of the auction and then too slowly in the later ones";
* a more effective choice caps the per-round change, Eq. (3):
  ``g = min(alpha * z+, delta * e)``;
* a further adjustment normalizes for differences in base resource prices so
  that cheap resources (disk) do not end up with prices "out of proportion
  from their expected relative sizes".

All three are implemented here, plus a proportional policy that raises each
price by a fraction of its current value scaled by relative excess demand —
the most robust default for heterogeneous pools and the one the experiment
drivers use unless told otherwise.  The increment ablation
(:mod:`repro.experiments.ablation_increment`) compares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np


class IncrementPolicy(Protocol):
    """Maps the current system state into a non-negative additive price update."""

    def increment(self, excess_demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Return ``g(x, p) >= 0``, the per-pool additive price change."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Short human-readable description (used in traces and reports)."""
        ...  # pragma: no cover - protocol


def _positive_part(excess_demand: np.ndarray) -> np.ndarray:
    """``z+ = max(z, 0)`` taken component-wise (``-0.0`` becomes ``+0.0``, NaN stays NaN)."""
    return np.maximum(np.asarray(excess_demand, dtype=float), 0.0)


@dataclass(frozen=True)
class AdditiveIncrement:
    """The naive policy ``g = alpha * z+``.

    Simple but fragile: with heterogeneous pool sizes the excess demand for a
    large disk pool (thousands of GiB) dwarfs the excess demand for CPU, so a
    single ``alpha`` either crawls on CPU or explodes on disk.

    Examples
    --------
    >>> import numpy as np
    >>> policy = AdditiveIncrement(alpha=0.1)
    >>> policy.increment(np.array([50.0, -20.0]), np.array([1.0, 1.0])).tolist()
    [5.0, 0.0]
    """

    alpha: float = 0.01

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def increment(self, excess_demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
        return self.alpha * _positive_part(excess_demand)

    def describe(self) -> str:
        return f"additive(alpha={self.alpha})"


@dataclass(frozen=True)
class CappedIncrement:
    """Paper Eq. (3): ``g = min(alpha * z+, cap)``.

    ``cap_fraction`` bounds each pool's per-round change to a fraction
    ``delta`` of its *current* price (the "no price changes by more than some
    fixed fraction, say delta" reading); set ``absolute_cap`` instead to use
    the literal ``delta * e`` form with a constant cap.

    Examples
    --------
    >>> import numpy as np
    >>> policy = CappedIncrement(alpha=0.1, cap_fraction=0.10)
    >>> # raw step would be 5.0, but the cap is 10% of the current price (1.0)
    >>> policy.increment(np.array([50.0]), np.array([1.0])).tolist()
    [0.1]
    """

    alpha: float = 0.01
    cap_fraction: float | None = 0.10
    absolute_cap: float | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cap_fraction is None and self.absolute_cap is None:
            raise ValueError("one of cap_fraction or absolute_cap must be set")
        if self.cap_fraction is not None and self.cap_fraction <= 0:
            raise ValueError("cap_fraction must be positive")
        if self.absolute_cap is not None and self.absolute_cap <= 0:
            raise ValueError("absolute_cap must be positive")

    def increment(self, excess_demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
        raw = self.alpha * _positive_part(excess_demand)
        prices = np.asarray(prices, dtype=float)
        if self.cap_fraction is not None:
            # Fractional cap relative to current price; floor the base at a
            # small constant so zero-priced pools can still move.
            cap = self.cap_fraction * np.maximum(prices, 1e-6)
        else:
            cap = np.full_like(prices, float(self.absolute_cap))
        return np.minimum(raw, cap)

    def describe(self) -> str:
        if self.cap_fraction is not None:
            return f"capped(alpha={self.alpha}, delta={self.cap_fraction} of price)"
        return f"capped(alpha={self.alpha}, cap={self.absolute_cap})"


@dataclass(frozen=True)
class NormalizedIncrement:
    """Capped increment normalized by base resource prices (Section III-C-2).

    Each pool's raw increment is scaled by ``base[r] / mean(base)`` so that a
    pool whose unit cost is 200x smaller (disk vs CPU) also rises 200x more
    slowly in absolute terms, keeping final prices "in proportion from their
    expected relative sizes".

    Examples
    --------
    >>> import numpy as np
    >>> policy = NormalizedIncrement(base_prices=np.array([10.0, 0.1]), alpha=0.01)
    >>> # same excess demand, but the cheap pool's step is scaled down ~100x
    >>> policy.increment(np.array([5.0, 5.0]), np.array([100.0, 1.0])).tolist()
    [0.09900990099009901, 0.0009900990099009901]
    """

    base_prices: np.ndarray
    alpha: float = 0.01
    cap_fraction: float = 0.10

    def __post_init__(self) -> None:
        base = np.asarray(self.base_prices, dtype=float)
        if np.any(base < 0) or not np.all(np.isfinite(base)):
            raise ValueError("base prices must be finite and non-negative")
        if self.alpha <= 0 or self.cap_fraction <= 0:
            raise ValueError("alpha and cap_fraction must be positive")
        object.__setattr__(self, "base_prices", base)

    def increment(self, excess_demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
        base = self.base_prices
        mean_base = float(base.mean()) if base.size else 1.0
        scale = base / mean_base if mean_base > 0 else np.ones_like(base)
        raw = self.alpha * _positive_part(excess_demand) * scale
        cap = self.cap_fraction * np.maximum(np.asarray(prices, dtype=float), 1e-6)
        return np.minimum(raw, cap)

    def describe(self) -> str:
        return f"normalized(alpha={self.alpha}, delta={self.cap_fraction})"


@dataclass(frozen=True)
class ProportionalIncrement:
    """Raise each price by a fraction of itself, proportional to relative excess demand.

    ``g_r = p_r * clip(alpha * z_r+ / scale_r, delta_min, delta)`` where
    ``scale_r`` is a per-pool demand scale (by default the pool's capacity).
    This makes the policy invariant to the units of each pool — a 5%
    over-demand moves CPU and disk prices by the same *relative* amount — and
    caps every step at ``delta`` of the current price, which is the property
    the paper's Eq. (3) is after.  The floor ``delta_min`` addresses the
    opposite failure the paper notes ("too slowly in the later ones"): once a
    pool is over-demanded its price rises by at least ``delta_min`` per round,
    so a trickle of residual excess demand cannot stall the auction.

    Examples
    --------
    >>> import numpy as np
    >>> policy = ProportionalIncrement(scale=np.array([1000.0]), alpha=2.0)
    >>> # 5% over-demand -> 10% relative step, capped at cap_fraction (10%)
    >>> policy.increment(np.array([50.0]), np.array([20.0])).tolist()
    [2.0]
    """

    scale: np.ndarray
    alpha: float = 2.0
    cap_fraction: float = 0.10
    min_fraction: float = 0.01
    min_step: float = 1e-9

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=float)
        if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
            raise ValueError("scale must be finite and strictly positive")
        if self.alpha <= 0 or self.cap_fraction <= 0:
            raise ValueError("alpha and cap_fraction must be positive")
        if not (0 <= self.min_fraction <= self.cap_fraction):
            raise ValueError("min_fraction must lie in [0, cap_fraction]")
        object.__setattr__(self, "scale", scale)

    def increment(self, excess_demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=float)
        positive = _positive_part(excess_demand)
        over = positive > 0
        relative = self.alpha * positive / self.scale
        # ``relative`` is +0.0 or more (or NaN), so clipping it to
        # [0, cap_fraction] is taking its minimum with the cap.
        fraction = np.minimum(relative, self.cap_fraction)
        # Floor the relative step on over-demanded pools so the clock cannot crawl.
        fraction = np.where(over, np.maximum(fraction, self.min_fraction), fraction)
        step = np.maximum(prices, 1e-6) * fraction
        # Guarantee strictly positive movement on over-demanded pools so the
        # auction cannot stall at a zero price.
        return np.where(over, np.maximum(step, self.min_step), step)

    def describe(self) -> str:
        return f"proportional(alpha={self.alpha}, delta={self.cap_fraction})"


def default_increment(capacities: np.ndarray, *, cap_fraction: float = 0.10, alpha: float = 2.0) -> ProportionalIncrement:
    """The recommended default increment policy for a set of pools.

    Uses pool capacities as the per-pool demand scale, so "excess demand equal
    to 1% of the pool" raises its price by ``alpha * 1%`` (capped at
    ``cap_fraction``) regardless of the pool's absolute size.

    Examples
    --------
    >>> import numpy as np
    >>> policy = default_increment(np.array([100.0, 400.0]))
    >>> policy.describe()
    'proportional(alpha=2.0, delta=0.1)'
    """
    capacities = np.asarray(capacities, dtype=float)
    safe = np.where(capacities > 0, capacities, 1.0)
    return ProportionalIncrement(scale=safe, alpha=alpha, cap_fraction=cap_fraction)
