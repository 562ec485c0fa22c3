"""Congestion-weighted reserve pricing (paper Section IV).

The operator seeds the clock auction with reserve prices

    p_tilde_r = phi_r(psi(r)) * c(r)                         (Eq. 4)

where ``psi(r)`` is the pre-auction utilization of pool ``r``, ``c(r)`` is the
operator's real unit cost, and ``phi_r`` is a *weighting function* satisfying
five properties (Section IV-A):

1. monotonically increasing;
2. ``> 1`` for over-utilized pools;
3. ``<= 1`` for under-utilized pools;
4. steeper at high utilization than at low utilization (a move from 80% to
   99% should cost far more than a move from 15% to 40%);
5. ``phi(100%) = k * phi(0%)`` for some constant ``k`` (bounds the impact on
   the initial budget endowment).

Figure 2 of the paper plots three example curves, reproduced here as
:data:`PAPER_PHI_1`, :data:`PAPER_PHI_2`, and :data:`PAPER_PHI_3`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.cluster.resources import ResourceType


class WeightingFunction(Protocol):
    """A utilization -> price-multiple curve ``phi(x)`` with ``x`` in [0, 1]."""

    def __call__(self, utilization: float) -> float:
        """Weight for a single utilization fraction."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Short label used in reports and figure legends."""
        ...  # pragma: no cover - protocol


def _check_unit_interval(utilization: float) -> float:
    if not (0.0 <= utilization <= 1.0) or not math.isfinite(utilization):
        raise ValueError(f"utilization must lie in [0, 1], got {utilization}")
    return float(utilization)


@dataclass(frozen=True)
class ExponentialWeight:
    """``phi(x) = exp(steepness * (x - center))``.

    With ``steepness=2, center=0.5`` this is the paper's ``phi_1``; with
    ``steepness=1`` it is ``phi_2``.  Property 5 holds with
    ``k = exp(steepness)``.

    Examples
    --------
    >>> phi = ExponentialWeight(steepness=2.0, center=0.5)
    >>> phi(0.5)
    1.0
    >>> round(phi(0.9), 4)    # congested pools cost a premium
    2.2255
    """

    steepness: float = 2.0
    center: float = 0.5

    def __post_init__(self) -> None:
        if self.steepness <= 0:
            raise ValueError("steepness must be positive")

    def __call__(self, utilization: float) -> float:
        x = _check_unit_interval(utilization)
        return math.exp(self.steepness * (x - self.center))

    def describe(self) -> str:
        return f"exp({self.steepness:g}(x-{self.center:g}))"


@dataclass(frozen=True)
class ReciprocalWeight:
    """``phi(x) = offset / (ceiling - x)``; the paper's ``phi_3`` is ``1 / (1.5 - x)``.

    The ``offset`` defaults to ``ceiling - center`` so that ``phi(center) = 1``
    (with the paper's parameters, ``phi(0.5) = 1``).

    Examples
    --------
    >>> phi = ReciprocalWeight(ceiling=1.5, center=0.5)
    >>> phi(0.5)
    1.0
    >>> phi(1.0)
    2.0
    """

    ceiling: float = 1.5
    center: float = 0.5
    offset: float | None = None

    def __post_init__(self) -> None:
        if self.ceiling <= 1.0:
            raise ValueError("ceiling must exceed 1.0 so phi is finite on [0, 1]")
        if self.offset is not None and self.offset <= 0:
            raise ValueError("offset must be positive")

    @property
    def _numerator(self) -> float:
        return self.offset if self.offset is not None else (self.ceiling - self.center)

    def __call__(self, utilization: float) -> float:
        x = _check_unit_interval(utilization)
        return self._numerator / (self.ceiling - x)

    def describe(self) -> str:
        return f"{self._numerator:g}/({self.ceiling:g}-x)"


@dataclass(frozen=True)
class LinearWeight:
    """``phi(x) = low + (high - low) * x``: a simple affine ramp.

    Does *not* satisfy property 4 (no extra steepness at high utilization);
    included as a baseline for the reserve-pricing ablation.

    Examples
    --------
    >>> LinearWeight(low=0.5, high=1.5)(0.75)
    1.25
    """

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError("high must exceed low")
        if self.low < 0:
            raise ValueError("low must be non-negative")

    def __call__(self, utilization: float) -> float:
        x = _check_unit_interval(utilization)
        return self.low + (self.high - self.low) * x

    def describe(self) -> str:
        return f"linear({self.low:g}..{self.high:g})"


@dataclass(frozen=True)
class FlatWeight:
    """``phi(x) = value``: utilization-independent pricing (the pre-market world).

    With ``value=1`` the reserve price equals the plain unit cost — exactly
    the "former fixed price" baseline the paper compares against in Figure 6.

    Examples
    --------
    >>> FlatWeight()(0.99)
    1.0
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("value must be positive")

    def __call__(self, utilization: float) -> float:
        _check_unit_interval(utilization)
        return self.value

    def describe(self) -> str:
        return f"flat({self.value:g})"


#: The three example curves plotted in Figure 2 of the paper.
PAPER_PHI_1 = ExponentialWeight(steepness=2.0, center=0.5)
PAPER_PHI_2 = ExponentialWeight(steepness=1.0, center=0.5)
PAPER_PHI_3 = ReciprocalWeight(ceiling=1.5, center=0.5)


def check_weighting_properties(
    phi: WeightingFunction,
    *,
    samples: int = 201,
    overutilized_threshold: float = 0.5,
    tolerance: float = 1e-9,
) -> dict[str, bool]:
    """Check the five Section IV-A properties of a weighting function.

    Returns a mapping from property name to a boolean.  Property 4 is checked
    as "the weight increase from 80% to 99% utilization exceeds the increase
    from 15% to 40%"; property 5 as "phi(1) is a finite multiple of phi(0)"
    (any finite k qualifies, per the paper).

    Examples
    --------
    >>> all(check_weighting_properties(PAPER_PHI_1).values())
    True
    >>> check_weighting_properties(LinearWeight())["steeper_when_congested"]
    False
    """
    xs = np.linspace(0.0, 1.0, samples)
    values = np.array([phi(float(x)) for x in xs])
    monotone = bool(np.all(np.diff(values) >= -tolerance))
    over = bool(all(phi(float(x)) > 1.0 - tolerance for x in xs[xs > overutilized_threshold + 1e-12]))
    under = bool(all(phi(float(x)) <= 1.0 + tolerance for x in xs[xs <= overutilized_threshold]))
    congested_gap = phi(0.99) - phi(0.80)
    idle_gap = phi(0.40) - phi(0.15)
    steeper_when_congested = bool(congested_gap >= idle_gap - tolerance)
    phi0, phi1 = phi(0.0), phi(1.0)
    bounded_ratio = bool(phi0 > 0 and math.isfinite(phi1 / phi0))
    return {
        "monotonically_increasing": monotone,
        "above_one_when_overutilized": over,
        "at_most_one_when_underutilized": under,
        "steeper_when_congested": steeper_when_congested,
        "bounded_ratio": bounded_ratio,
    }


@dataclass
class ReservePricer:
    """Computes utilization-weighted reserve prices for a pool index.

    Parameters
    ----------
    weighting:
        The weighting function applied to every pool, or a per-resource-type
        mapping (the paper allows ``phi_r`` to differ by pool).
    use_percentiles:
        If ``True``, feed the weighting function each pool's *fleet-relative
        utilization percentile* (paper Section IV-A: "the inputs of the
        weighting functions are utilization percentiles"); if ``False``
        (default) feed the raw utilization fraction.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> pricer = ReservePricer(weighting=FlatWeight(value=2.0))
    >>> pricer.reserve_prices(demo_pool_index()).tolist()   # 2x each unit cost
    [20.0, 4.0, 20.0, 4.0]
    """

    weighting: WeightingFunction | Mapping[ResourceType, WeightingFunction]
    use_percentiles: bool = False

    def _phi_for(self, rtype: ResourceType) -> WeightingFunction:
        if isinstance(self.weighting, Mapping):
            try:
                return self.weighting[rtype]
            except KeyError as exc:
                raise KeyError(f"no weighting function configured for {rtype}") from exc
        return self.weighting

    def utilization_inputs(self, index: PoolIndex) -> np.ndarray:
        """The x values fed to phi for each pool (fractions or percentiles/100)."""
        if not self.use_percentiles:
            return index.utilizations()
        from repro.cluster.utilization import snapshot_pools

        return snapshot_pools(index).percentile_vector(index) / 100.0

    def multipliers(self, index: PoolIndex) -> np.ndarray:
        """The weight ``phi_r(psi(r))`` per pool."""
        inputs = self.utilization_inputs(index)
        result = np.empty(len(index), dtype=float)
        for i, rtype in enumerate(index.rtypes()):
            result[i] = self._phi_for(rtype)(float(inputs[i]))
        return result

    def reserve_prices(self, index: PoolIndex) -> np.ndarray:
        """Eq. (4): ``p_tilde_r = phi_r(psi(r)) * c(r)`` for every pool."""
        prices = self.multipliers(index) * index.unit_costs()
        if np.any(prices < 0):
            raise ValueError("reserve prices must be non-negative")
        return prices

    def reserve_price_map(self, index: PoolIndex) -> dict[str, float]:
        """Reserve prices keyed by pool name."""
        prices = self.reserve_prices(index)
        return {pool.name: float(prices[i]) for i, pool in enumerate(index)}


def sweep_curve(
    phi: WeightingFunction, *, points: int = 101
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``phi`` on [0, 1]; the series behind Figure 2."""
    xs = np.linspace(0.0, 1.0, points)
    ys = np.array([phi(float(x)) for x in xs])
    return xs, ys
