"""Vectorized batch demand engine for the clock auction.

The scalar reference path walks a Python list of
:class:`~repro.core.proxy.BidderProxy` objects and evaluates ``G_u(p)``
(paper Section III-C, Eq. 1-2) one bidder at a time.  That loop dominates the
cost of every auction round and caps scenario scale at a few hundred bidders.

This module flattens *all* sealed bids into dense NumPy arrays once, up
front, and evaluates one full auction round — every bidder's cheapest-bundle
choice, drop-out test, demand vector, and the market-wide demand total — as a
handful of matrix operations:

1. stack every bundle of every bid into one ``(K, R)`` quantity matrix
   (``K`` = total bundle rows across all bidders, ``R`` = pools);
2. per round, one matrix-vector product gives all ``K`` bundle costs;
3. segmented ``np.minimum.reduceat`` reductions give each bidder's cheapest
   bundle (with the same lowest-index tie-break as the scalar proxy);
4. a comparison against the stacked limit vector gives the drop-out mask
   (with the same ``DROPOUT_SLACK`` tolerance the scalar proxy uses);
5. one masked gather plus a single axis-0 reduction gives the total demand.

The engine produces exactly the per-round values the scalar path produces —
the same chosen bundle indices, activity flags, demand vectors, and total
demand — so :class:`~repro.core.clock_auction.AscendingClockAuction` can swap
it in underneath the existing round-trace contract (``AuctionRound`` /
``AuctionOutcome``) without any caller noticing anything but speed.

Numerical-identity notes
------------------------

* Demand *totals* are accumulated with :func:`sum_demand_rows`
  (``np.add.reduce`` over axis 0), which is bit-identical to the scalar
  path's sequential ``total += quantities`` accumulation for IEEE floats.
* Bundle *costs* come from one stacked matrix-vector product instead of one
  small product per bidder; BLAS may order the per-row dot products'
  partial sums differently, so costs can differ from the scalar path in the
  last few ULPs.  This only matters when a bundle cost sits within ~1e-15
  (relative) of another bundle's cost or of the bidder's limit — knife-edge
  ties that the equivalence test suite shows do not occur for generic
  instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.bids import Bid
from repro.core.proxy import DROPOUT_SLACK


def sum_demand_rows(rows: np.ndarray) -> np.ndarray:
    """Sum per-bidder demand rows into the market-wide total demand.

    Uses ``np.add.reduce`` over axis 0, which accumulates rows in order and is
    bit-identical to the scalar engine's sequential ``total += quantities``
    loop — the property the scalar/batch trace-equivalence guarantee rests on.

    Parameters
    ----------
    rows:
        ``(n, R)`` array of per-bidder quantity vectors.

    Returns
    -------
    numpy.ndarray
        Length-``R`` total demand vector (zeros when ``rows`` is empty).

    Examples
    --------
    >>> import numpy as np
    >>> sum_demand_rows(np.array([[1.0, 0.0], [2.0, -1.0]]))
    array([ 3., -1.])
    >>> sum_demand_rows(np.zeros((0, 2)))
    array([0., 0.])
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] == 0:
        return np.zeros(rows.shape[1], dtype=float)
    return np.add.reduce(rows, axis=0)


def cheapest_rows(
    costs: np.ndarray, starts: np.ndarray, segment_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each bid's cheapest bundle over a flat vector of bundle-row costs.

    Row ``k`` of ``costs`` belongs to bid ``segment_ids[k]``, whose rows start
    at ``starts[segment_ids[k]]``; every bid has at least one row.  Returns
    the per-bid minimum cost (a segmented ``np.minimum.reduceat``, so NaN
    propagates as in ``np.min``) and the global row :func:`numpy.argmin`
    picks within each bid: the lowest-index minimum, or the first NaN of a
    bid whose costs hold one.  This is the tie-break
    :meth:`repro.core.bundles.BundleSet.cheapest` applies one bid at a time.

    Examples
    --------
    >>> import numpy as np
    >>> costs = np.array([3.0, 1.0, 1.0, 2.0, np.nan, 0.0])
    >>> starts = np.array([0, 3])
    >>> segment_ids = np.array([0, 0, 0, 1, 1, 1])
    >>> cheapest, rows = cheapest_rows(costs, starts, segment_ids)
    >>> cheapest.tolist(), rows.tolist()
    ([1.0, nan], [1, 4])
    """
    cheapest = np.minimum.reduceat(costs, starts)
    # Replace every row that is not its bid's argmin candidate with the
    # past-the-end sentinel K, then take the segmented minimum of row ids.
    hits = costs == cheapest[segment_ids]
    hits |= np.isnan(costs)
    k = len(costs)
    candidates = np.where(hits, np.arange(k, dtype=np.intp), k)
    return cheapest, np.minimum.reduceat(candidates, starts)


@dataclass(frozen=True)
class BatchResponse:
    """All bidders' proxy decisions for one price vector, in dense form.

    The batched analogue of a list of
    :class:`~repro.core.proxy.ProxyDecision` objects: row ``i`` of every
    array describes bidder ``bidders[i]``.

    Attributes
    ----------
    bidders:
        Bidder identifiers, in submission order.
    quantities:
        ``(n, R)`` demand matrix; row ``i`` is bidder ``i``'s demanded
        (positive) / offered (negative) quantities, all zeros on drop-out.
    total:
        Length-``R`` market-wide demand ``sum_u G_u(p)``.
    bundle_indices:
        Chosen bundle index within each bidder's own bundle set, ``-1`` for
        bidders that dropped out.
    costs:
        Chosen-bundle cost ``q.p`` per bidder (``0.0`` on drop-out).
    active:
        Boolean drop-out mask: ``True`` where the bidder is still in.
    """

    bidders: tuple[str, ...]
    quantities: np.ndarray
    total: np.ndarray
    bundle_indices: np.ndarray
    costs: np.ndarray
    active: np.ndarray

    @property
    def active_count(self) -> int:
        """Number of bidders still demanding a bundle at these prices."""
        return int(np.count_nonzero(self.active))


class BatchDemandEngine:
    """Evaluates every bidder's proxy response in one shot per round.

    Flattens a sequence of sealed bids into dense arrays at construction time
    and answers each price announcement with a :class:`BatchResponse`
    containing the same decisions the scalar proxies would have made.

    Parameters
    ----------
    index:
        The pool index all bids are expressed over.
    bids:
        Sealed bids; their XOR bundle sets are stacked row-wise into one
        matrix.  Bids over a different pool index raise ``ValueError``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.cluster.pools import demo_pool_index
    >>> from repro.core.bids import Bid
    >>> index = demo_pool_index()
    >>> bids = [
    ...     Bid.buy("team-a", index, [{"a/cpu": 10}], max_payment=100.0),
    ...     Bid.buy("team-b", index, [{"b/cpu": 5}], max_payment=1.0),
    ... ]
    >>> engine = BatchDemandEngine(index, bids)
    >>> response = engine.respond_all(np.full(len(index), 2.0))
    >>> response.active.tolist()          # team-b's bundle costs 10 > 1
    [True, False]
    >>> float(response.total[index.index_of("a/cpu")])
    10.0
    """

    def __init__(self, index: PoolIndex, bids: Sequence[Bid]):
        self.index = index
        bids = list(bids)
        for bid in bids:
            if bid.index is not index and bid.index.names != index.names:
                raise ValueError(
                    f"bid from {bid.bidder!r} is defined over a different pool index"
                )
        self.bidders: tuple[str, ...] = tuple(bid.bidder for bid in bids)
        n = len(bids)
        r = len(index)
        if n == 0:
            self._matrix = np.zeros((0, r), dtype=float)
            counts = np.zeros(0, dtype=np.intp)
        else:
            self._matrix = np.vstack([bid.bundles.matrix for bid in bids]).astype(float, copy=False)
            counts = np.array([len(bid.bundles) for bid in bids], dtype=np.intp)
        self._limits = np.array([bid.limit for bid in bids], dtype=float)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        #: First bundle row of each bidder's segment.
        self._starts = offsets[:-1]
        self._k = int(offsets[-1])
        #: Which bidder each bundle row belongs to.
        self._segment_ids = np.repeat(np.arange(n, dtype=np.intp), counts)

    def __len__(self) -> int:
        return len(self.bidders)

    @property
    def bundle_rows(self) -> int:
        """Total number of stacked bundle rows ``K`` across all bidders."""
        return self._k

    @property
    def matrix(self) -> np.ndarray:
        """The stacked ``(K, R)`` bundle-quantity matrix."""
        return self._matrix

    @property
    def limits(self) -> np.ndarray:
        """Per-bidder willingness-to-pay limits ``pi_u``."""
        return self._limits

    def respond_all(self, prices: np.ndarray) -> BatchResponse:
        """Evaluate ``G_u(p)`` for every bidder at once.

        One stacked matrix-vector product computes all bundle costs; segmented
        minimum reductions pick each bidder's cheapest bundle with the same
        lowest-index tie-break as :meth:`repro.core.proxy.BidderProxy.respond`,
        and the same ``limit + DROPOUT_SLACK`` drop-out rule is applied.
        """
        prices = np.asarray(prices, dtype=float)
        n = len(self.bidders)
        r = len(self.index)
        if n == 0:
            return BatchResponse(
                bidders=(),
                quantities=np.zeros((0, r), dtype=float),
                total=np.zeros(r, dtype=float),
                bundle_indices=np.zeros(0, dtype=np.intp),
                costs=np.zeros(0, dtype=float),
                active=np.zeros(0, dtype=bool),
            )
        costs = self._matrix @ prices
        cheapest, chosen_rows = cheapest_rows(costs, self._starts, self._segment_ids)
        active = cheapest <= self._limits + DROPOUT_SLACK
        dropped = ~active
        bundle_indices = np.where(active, chosen_rows - self._starts, -1)
        # Gather the chosen rows (a fresh copy), then zero dropped-out bidders
        # in place — far cheaper than a masked np.where over a temporary.
        quantities = self._matrix[chosen_rows]
        quantities[dropped] = 0.0
        chosen_costs = costs[chosen_rows]
        chosen_costs[dropped] = 0.0
        return BatchResponse(
            bidders=self.bidders,
            quantities=quantities,
            total=sum_demand_rows(quantities),
            bundle_indices=bundle_indices,
            costs=chosen_costs,
            active=active,
        )
