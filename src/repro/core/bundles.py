"""Bundles and indifference (XOR) sets of bundles.

A *bundle* is an R-component vector over resource pools where positive entries
are quantities demanded and negative entries are quantities offered (paper
Section II).  A user's bid names a set of bundles over which the user is
indifferent — the user wants exactly one of them (XOR semantics) — plus one
willingness-to-pay scalar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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


@dataclass(frozen=True)
class Bundle:
    """One R-component bundle of resource quantities.

    ``quantities`` is stored as an immutable float array of length
    ``len(index)``.  Positive entries are demands, negative entries offers.

    Examples
    --------
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> b = Bundle.from_mapping(index, {"a/cpu": 10, "a/ram": 40})
    >>> b.kind.value
    'buy'
    >>> b.cost(np.array([2.0, 0.5, 0.0, 0.0]))
    40.0
    >>> b.describe()
    {'a/cpu': 10.0, 'a/ram': 40.0}
    """

    index: PoolIndex
    quantities: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.quantities, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != len(self.index):
            raise ValueError(
                f"bundle has {arr.shape} quantities, expected ({len(self.index)},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("bundle quantities must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "quantities", arr)

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def from_mapping(index: PoolIndex, quantities: Mapping[str, float], label: str = "") -> "Bundle":
        """Build a bundle from a ``{pool name: quantity}`` mapping."""
        return Bundle(index=index, quantities=index.vector(quantities), label=label)

    @staticmethod
    def empty(index: PoolIndex, label: str = "") -> "Bundle":
        """The all-zero bundle."""
        return Bundle(index=index, quantities=np.zeros(len(index)), label=label)

    # -- properties -------------------------------------------------------------
    @property
    def kind(self) -> BundleKind:
        """Buy / sell / trade / empty classification."""
        return bundle_kind(self.quantities)

    def is_empty(self, *, tol: float = 1e-12) -> bool:
        return self.kind is BundleKind.EMPTY

    def cost(self, prices: np.ndarray) -> float:
        """Linear cost ``q . p`` of this bundle at the given unit prices.

        Positive cost means the bidder pays; negative cost means the bidder
        is paid (it is offering more value than it demands).
        """
        prices = np.asarray(prices, dtype=float)
        if prices.shape != self.quantities.shape:
            raise ValueError(f"price vector shape {prices.shape} != bundle shape {self.quantities.shape}")
        return float(self.quantities @ prices)

    def demanded(self) -> np.ndarray:
        """Positive part of the bundle (quantities demanded)."""
        return np.clip(self.quantities, 0.0, None)

    def offered(self) -> np.ndarray:
        """Magnitude of the negative part (quantities offered)."""
        return np.clip(-self.quantities, 0.0, None)

    def pools_touched(self, *, tol: float = 1e-12) -> list[str]:
        """Names of pools with non-zero quantities."""
        return [
            self.index.pools[i].name
            for i in np.flatnonzero(np.abs(self.quantities) > tol)
        ]

    def describe(self) -> dict[str, float]:
        """Human-readable ``{pool name: quantity}`` for non-zero entries."""
        return self.index.describe(self.quantities)

    def scaled(self, factor: float) -> "Bundle":
        """A new bundle with every quantity multiplied by ``factor``."""
        return Bundle(index=self.index, quantities=self.quantities * float(factor), label=self.label)

    def __add__(self, other: "Bundle") -> "Bundle":
        if other.index is not self.index and other.index.names != self.index.names:
            raise ValueError("cannot add bundles over different pool indexes")
        return Bundle(index=self.index, quantities=self.quantities + other.quantities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bundle):
            return NotImplemented
        return self.index.names == other.index.names and np.array_equal(
            self.quantities, other.quantities
        )

    def __hash__(self) -> int:
        return hash((tuple(self.index.names), self.quantities.tobytes()))


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

    Internally stores a 2-D array of shape ``(k, R)`` so that evaluating the
    cost of every bundle at a price vector is a single matrix-vector product —
    the inner loop of the clock auction.  ``bundles`` is either a sequence of
    bundles (each a :class:`Bundle`, a length-``R`` array or a ``{pool name:
    quantity}`` mapping) or one ``(k, R)`` array.

    The set is immutable, so its sign structure (each row's kind, the set's
    aggregate kind, whether anything is offered, whether every quantity is
    finite) is derived once, in one vectorised pass when the set is built;
    bid classification, validation and admission read those cached facts.

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
        bundles: Sequence[Bundle | np.ndarray | Mapping[str, float]] | np.ndarray,
    ):
        if len(bundles) == 0:
            raise ValueError("a BundleSet needs at least one bundle")
        self.index = index
        if isinstance(bundles, np.ndarray) and bundles.ndim == 2:
            if bundles.shape[1] != len(index):
                raise ValueError(f"bundle matrix has shape {bundles.shape}, expected (k, {len(index)})")
            matrix = np.array(bundles, dtype=float)
            labels = [""] * len(matrix)
        else:
            rows: list[np.ndarray] = []
            labels = []
            for item in bundles:
                if isinstance(item, Bundle):
                    if item.index.names != index.names:
                        raise ValueError("bundle defined over a different pool index")
                    rows.append(np.asarray(item.quantities, dtype=float))
                    labels.append(item.label)
                elif isinstance(item, Mapping):
                    rows.append(index.vector(item))
                    labels.append("")
                else:
                    arr = np.asarray(item, dtype=float)
                    if arr.shape != (len(index),):
                        raise ValueError(f"bundle array has shape {arr.shape}, expected ({len(index)},)")
                    rows.append(arr)
                    labels.append("")
            matrix = np.vstack(rows)
        matrix.setflags(write=False)
        self._matrix = matrix
        self._labels = labels
        # The sign structure, once.  fmax/fmin skip NaN as bundle_kind's
        # comparisons do (an all-NaN row reduces to NaN, which compares
        # False), and infinities compare as in bundle_kind.
        row_max = np.fmax.reduce(matrix, axis=1).tolist()
        row_min = np.fmin.reduce(matrix, axis=1).tolist()
        has_demand = [high > _KIND_TOL for high in row_max]
        has_offer = [low < -_KIND_TOL for low in row_min]
        self._kinds = tuple(_KIND_OF_FLAGS[flags] for flags in zip(has_demand, has_offer))
        self._aggregate = _KIND_OF_FLAGS[(any(has_demand), any(has_offer))]
        self._offers = any(low < 0 for low in row_min)
        self._finite = bool(np.isfinite(matrix).all())

    # -- accessors ----------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(k, R)`` matrix of bundle quantities."""
        return self._matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __iter__(self) -> Iterator[Bundle]:
        for i in range(len(self)):
            yield self.bundle(i)

    def bundle(self, i: int) -> Bundle:
        """The ``i``-th bundle as a :class:`Bundle`."""
        return Bundle(index=self.index, quantities=self._matrix[i], label=self._labels[i])

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

    def max_demand(self) -> np.ndarray:
        """Component-wise maximum demanded quantity across bundles (>= 0)."""
        return np.clip(self._matrix, 0.0, None).max(axis=0)

    def max_offer(self) -> np.ndarray:
        """Component-wise maximum offered quantity across bundles (>= 0)."""
        return np.clip(-self._matrix, 0.0, None).max(axis=0)


def stack_bundle_sets(sets: Iterable[BundleSet]) -> np.ndarray:
    """Stack the matrices of several bundle sets into one array (for analysis)."""
    matrices = [bundle_set.matrix for bundle_set in sets]
    if not matrices:
        raise ValueError("no bundle sets given")
    return np.vstack(matrices)
