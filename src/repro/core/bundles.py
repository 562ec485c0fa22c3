"""Indifference (XOR) sets of bundles.

A *bundle* is an R-component vector over resource pools where positive entries
are quantities demanded and negative entries are quantities offered (paper
Section II).  A user's bid names a set of bundles over which the user is
indifferent — the user wants exactly one of them (XOR semantics) — plus one
willingness-to-pay scalar.  :class:`BundleSet` holds such a set as one
``(k, R)`` matrix, a bundle per row; it is the only bundle format.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.pools import PoolIndex


class BundleKind(str, enum.Enum):
    """Sign structure of a bundle (drives convergence guarantees, Section III-C-3)."""

    EMPTY = "empty"
    BUY = "buy"  # all components >= 0, at least one > 0
    SELL = "sell"  # all components <= 0, at least one < 0
    TRADE = "trade"  # mixed signs


#: Magnitudes at or below this count as zero when bundles are classified.
_KIND_TOL = 1e-12


def bundle_kind(quantities: np.ndarray, *, tol: float = _KIND_TOL) -> BundleKind:
    """Classify a raw quantity vector into buy / sell / trade / empty.

    Parameters
    ----------
    quantities:
        Quantity vector; positive entries are demands, negative are offers.
    tol:
        Magnitudes at or below this count as zero.

    Examples
    --------
    >>> bundle_kind([1.0, 0.0]).value
    'buy'
    >>> bundle_kind([1.0, -2.0]).value
    'trade'
    >>> bundle_kind([0.0, 0.0]).value
    'empty'
    """
    arr = np.asarray(quantities, dtype=float)
    has_pos = bool(np.any(arr > tol))
    has_neg = bool(np.any(arr < -tol))
    if has_pos and has_neg:
        return BundleKind.TRADE
    if has_pos:
        return BundleKind.BUY
    if has_neg:
        return BundleKind.SELL
    return BundleKind.EMPTY


#: Kind from (has a demand, has an offer) flags, as in :func:`bundle_kind`; a
#: set's aggregate kind is the kind of its rows' flags or-ed together.
_KIND_OF_FLAGS: dict[tuple[bool, bool], BundleKind] = {
    (False, False): BundleKind.EMPTY,
    (True, False): BundleKind.BUY,
    (False, True): BundleKind.SELL,
    (True, True): BundleKind.TRADE,
}


class BundleSet:
    """An XOR indifference set of bundles ``q_u^1 XOR q_u^2 XOR ...``.

    Internally stores a 2-D array of shape ``(k, R)``, row ``i`` the ``i``-th
    bundle, so that evaluating the cost of every bundle at a price vector is
    a single matrix-vector product — the inner loop of the clock auction.
    ``bundles`` is either one ``(k, R)`` array or a sequence of bundles, each
    a length-``R`` array or a ``{pool name: quantity}`` mapping.

    The set is immutable, so its sign structure (each row's kind, the set's
    aggregate kind, whether anything is offered, whether every quantity is
    finite) is derived once, from one ``max`` and one ``min`` pass over the
    rows when the set is built; bid classification, validation and admission
    read those cached facts.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> qs = BundleSet(index, [{"a/cpu": 10}, {"b/cpu": 10}])
    >>> len(qs)
    2
    >>> qs.cheapest(np.array([3.0, 0.0, 1.0, 0.0]))   # (index, cost)
    (1, 10.0)
    >>> qs.aggregate_kind().value
    'buy'
    >>> BundleSet(index, np.array([[0.0, 0.0, -1.0, 0.0]])).kinds()
    [<BundleKind.SELL: 'sell'>]
    """

    def __init__(
        self,
        index: PoolIndex,
        bundles: Sequence[np.ndarray | Mapping[str, float]] | np.ndarray,
    ):
        if len(bundles) == 0:
            raise ValueError("a BundleSet needs at least one bundle")
        self.index = index
        if isinstance(bundles, np.ndarray) and bundles.ndim == 2:
            if bundles.shape[1] != len(index):
                raise ValueError(f"bundle matrix has shape {bundles.shape}, expected (k, {len(index)})")
            matrix = np.array(bundles, dtype=float)
        else:
            rows: list[np.ndarray] = []
            for item in bundles:
                if isinstance(item, Mapping):
                    rows.append(index.vector(item))
                else:
                    arr = np.asarray(item, dtype=float)
                    if arr.shape != (len(index),):
                        raise ValueError(f"bundle array has shape {arr.shape}, expected ({len(index)},)")
                    rows.append(arr)
            matrix = np.vstack(rows)
        matrix.setflags(write=False)
        self._matrix = matrix
        # The sign structure, once, from each row's max and min: every entry
        # is finite exactly when all of them are.  A set that is not finite
        # takes them again with fmax/fmin, which skip NaN as bundle_kind's
        # comparisons do (an all-NaN row reduces to NaN, which compares
        # False); infinities compare as in bundle_kind.
        row_max = matrix.max(axis=1).tolist()
        row_min = matrix.min(axis=1).tolist()
        self._finite = all(map(math.isfinite, row_max)) and all(map(math.isfinite, row_min))
        if not self._finite:
            row_max = np.fmax.reduce(matrix, axis=1).tolist()
            row_min = np.fmin.reduce(matrix, axis=1).tolist()
        has_demand = [high > _KIND_TOL for high in row_max]
        has_offer = [low < -_KIND_TOL for low in row_min]
        self._kinds = tuple(_KIND_OF_FLAGS[flags] for flags in zip(has_demand, has_offer))
        self._aggregate = _KIND_OF_FLAGS[(any(has_demand), any(has_offer))]
        self._offers = any(low < 0 for low in row_min)

    # -- accessors ----------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(k, R)`` matrix of bundle quantities."""
        return self._matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def costs(self, prices: np.ndarray) -> np.ndarray:
        """Vector of bundle costs ``Q p`` at the given prices (length k)."""
        prices = np.asarray(prices, dtype=float)
        return self._matrix @ prices

    def cheapest(self, prices: np.ndarray) -> tuple[int, float]:
        """Index and cost of the cheapest bundle at ``prices`` (argmin q.p).

        Ties are broken by the lowest index, which makes the proxy behaviour
        deterministic across runs.
        """
        costs = self.costs(prices)
        i = int(np.argmin(costs))
        return i, float(costs[i])

    def kinds(self) -> list[BundleKind]:
        """Classification of every bundle in the set."""
        return list(self._kinds)

    def aggregate_kind(self) -> BundleKind:
        """Classification of the set as a whole (used for convergence analysis).

        A set is a BUY set if every bundle is a buy (or empty), a SELL set if
        every bundle is a sell (or empty), EMPTY if all bundles are empty, and
        TRADE otherwise.
        """
        return self._aggregate

    def offers_any(self) -> bool:
        """True iff some quantity is strictly negative.

        Unlike the kinds, this applies no tolerance: a ``-1e-13`` entry leaves
        a bundle a BUY but is still an offer the seller must hold quota for.
        A set that offers nothing has no positive entry in :meth:`max_offer`.
        """
        return self._offers

    def all_finite(self) -> bool:
        """True iff every quantity is finite (no NaN or infinity)."""
        return self._finite

    def max_offer(self) -> np.ndarray:
        """Component-wise maximum offered quantity across bundles (>= 0)."""
        return np.clip(-self._matrix, 0.0, None).max(axis=0)
