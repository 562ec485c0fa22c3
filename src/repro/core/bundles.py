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

    The set is immutable, so the facts bid classification, validation and
    admission read (the set's aggregate kind, whether anything is offered,
    whether every quantity is finite) are derived once, when the set is
    built: from one ``max`` and one ``min`` over the whole matrix here, and
    from the amounts themselves in :meth:`from_columns`.  :meth:`kinds`
    classifies each row when asked.

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
        # The set's facts from one max and one min over the whole matrix:
        # every entry is finite exactly when both are.  A set that is not
        # finite takes them again with fmax/fmin, which skip NaN as
        # bundle_kind's comparisons do (an all-NaN matrix reduces to NaN,
        # which compares False); infinities compare as in bundle_kind.  Each
        # fact is the OR, over the rows, of the same fact of one row.
        high = float(np.maximum.reduce(matrix, None))
        low = float(np.minimum.reduce(matrix, None))
        self._finite = math.isfinite(high) and math.isfinite(low)
        if not self._finite:
            high = float(np.fmax.reduce(matrix, None))
            low = float(np.fmin.reduce(matrix, None))
        self._aggregate = _KIND_OF_FLAGS[(high > _KIND_TOL, low < -_KIND_TOL)]
        self._offers = low < 0

    @classmethod
    def from_columns(cls, index: PoolIndex, bundles: Sequence[Sequence[tuple[int, float]]]) -> "BundleSet":
        """The set whose row ``i`` holds the ``(column, amount)`` pairs of ``bundles[i]``.

        The pairs are those :meth:`~repro.cluster.pools.PoolIndex.place`
        returns; :meth:`~repro.cluster.pools.PoolIndex.rows` writes them, and
        the set owns that matrix without a copy.  Its facts come from the
        amounts in one pass, with no array reduction: the entries no pair
        writes are ``+0.0`` and change none of them, and ``rows`` refuses a
        column named twice, so each pair is an entry of the matrix.  The
        facts equal those the constructor derives from the same matrix.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> index = demo_pool_index()
        >>> qs = BundleSet.from_columns(index, [[(0, 10.0), (1, 4.0)], [(2, 10.0)]])
        >>> qs.matrix.tolist()
        [[10.0, 4.0, 0.0, 0.0], [0.0, 0.0, 10.0, 0.0]]
        >>> qs.aggregate_kind().value, qs.offers_any(), qs.all_finite()
        ('buy', False, True)
        >>> tiny = BundleSet.from_columns(index, [[(3, -1e-13)], []])   # an empty row
        >>> tiny.aggregate_kind().value, tiny.offers_any()
        ('empty', True)
        """
        if len(bundles) == 0:
            raise ValueError("a BundleSet needs at least one bundle")
        matrix = index.rows(bundles)
        matrix.setflags(write=False)
        demands = offers = negative = False
        finite = True
        for bundle in bundles:
            for _, amount in bundle:
                if amount > _KIND_TOL:
                    demands = True
                elif amount < 0:
                    negative = True
                    if amount < -_KIND_TOL:
                        offers = True
                if not math.isfinite(amount):
                    finite = False
        bundle_set = cls.__new__(cls)
        bundle_set.index = index
        bundle_set._matrix = matrix
        bundle_set._finite = finite
        bundle_set._aggregate = _KIND_OF_FLAGS[(demands, offers)]
        bundle_set._offers = negative
        return bundle_set

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
        """Classification of every bundle in the set, each row by :func:`bundle_kind`."""
        return [bundle_kind(row) for row in self._matrix]

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
