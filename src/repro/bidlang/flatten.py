"""Flattening bid trees into the XOR bundle sets the clock auction consumes.

A bid tree denotes a set of acceptable resource combinations.  Flattening
computes that set explicitly as quantity vectors:

* a leaf denotes a single combination (its own quantities);
* ``AND`` denotes the cross-product of its children's sets, summing quantities;
* ``XOR`` denotes the union of its children's sets;
* ``CHOOSE k`` denotes, for every k-subset of children, the cross-product sum.

The result is exactly the ``Q_u`` indifference set of the paper's bid model.
Because ``AND``/``CHOOSE`` can blow up combinatorially, flattening enforces a
configurable bundle-count limit and raises :class:`FlattenLimitError` when it
is exceeded.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.bidlang.ast import AndNode, BidNode, ChooseNode, ClusterLeaf, PoolLeaf, XorNode
from repro.cluster.pools import PoolIndex
from repro.core.batch import BatchDemandEngine
from repro.core.bids import Bid
from repro.core.bundles import BundleSet


class FlattenLimitError(RuntimeError):
    """The bid tree expands to more bundles than the configured limit."""


def _merge(a: dict[str, float], b: Mapping[str, float]) -> dict[str, float]:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


def _dedupe(combos: list[dict[str, float]]) -> list[dict[str, float]]:
    seen: set[tuple[tuple[str, float], ...]] = set()
    result: list[dict[str, float]] = []
    for combo in combos:
        key = tuple(sorted((k, round(v, 12)) for k, v in combo.items() if v != 0.0))
        if key not in seen:
            seen.add(key)
            result.append(combo)
    return result


def _cross_product(
    groups: Sequence[list[dict[str, float]]], *, max_bundles: int
) -> list[dict[str, float]]:
    """All ways of picking one combination per group, quantities summed."""
    acc: list[dict[str, float]] = [{}]
    for group in groups:
        new_acc: list[dict[str, float]] = []
        for base in acc:
            for option in group:
                new_acc.append(_merge(base, option))
                if len(new_acc) > max_bundles:
                    raise FlattenLimitError(
                        f"bid tree expands to more than {max_bundles} bundles"
                    )
        acc = new_acc
    return acc


def flatten(node: BidNode, *, max_bundles: int = 512) -> list[dict[str, float]]:
    """Expand a bid tree into its list of acceptable ``{pool name: quantity}`` combinations.

    Parameters
    ----------
    node:
        Root of the bid tree.
    max_bundles:
        Upper bound on the size of the expansion; exceeding it raises
        :class:`FlattenLimitError` rather than silently producing an enormous
        XOR set the auction would be slow to evaluate.

    Examples
    --------
    >>> from repro.bidlang.ast import and_, pool, xor
    >>> tree = and_(pool("a/cpu", 10), xor(pool("a/ram", 40), pool("b/ram", 40)))
    >>> flatten(tree) == [{"a/cpu": 10, "a/ram": 40}, {"a/cpu": 10, "b/ram": 40}]
    True
    """
    if isinstance(node, PoolLeaf):
        return [{node.pool_name: node.quantity}]
    if isinstance(node, ClusterLeaf):
        return [node.quantities()]
    if isinstance(node, XorNode):
        combos: list[dict[str, float]] = []
        for child in node.alternatives:
            combos.extend(flatten(child, max_bundles=max_bundles))
            if len(combos) > max_bundles:
                raise FlattenLimitError(f"bid tree expands to more than {max_bundles} bundles")
        return _dedupe(combos)
    if isinstance(node, AndNode):
        groups = [flatten(child, max_bundles=max_bundles) for child in node.parts]
        return _dedupe(_cross_product(groups, max_bundles=max_bundles))
    if isinstance(node, ChooseNode):
        combos = []
        groups = [flatten(child, max_bundles=max_bundles) for child in node.options]
        for subset in combinations(range(len(groups)), node.k):
            chosen = [groups[i] for i in subset]
            combos.extend(_cross_product(chosen, max_bundles=max_bundles))
            if len(combos) > max_bundles:
                raise FlattenLimitError(f"bid tree expands to more than {max_bundles} bundles")
        return _dedupe(combos)
    raise TypeError(f"unknown bid tree node type: {type(node).__name__}")


def to_bundle_set(node: BidNode, index: PoolIndex, *, max_bundles: int = 512) -> BundleSet:
    """Flatten a bid tree into a :class:`repro.core.bundles.BundleSet` over ``index``.

    Examples
    --------
    >>> from repro.bidlang.ast import cluster_bundle, xor
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> tree = xor(cluster_bundle("a", cpu=10), cluster_bundle("b", cpu=10))
    >>> len(to_bundle_set(tree, index))
    2
    """
    return BundleSet(index, index.matrix(flatten(node, max_bundles=max_bundles)))


def flatten_to_matrix(node: BidNode, index: PoolIndex, *, max_bundles: int = 512) -> np.ndarray:
    """Flatten a bid tree straight into a dense ``(k, R)`` quantity matrix.

    The rows are exactly the bundle vectors of :func:`to_bundle_set`, in the
    same order — this is the raw array form the batch demand engine stacks.

    Examples
    --------
    >>> from repro.bidlang.ast import cluster_bundle, xor
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> tree = xor(cluster_bundle("a", cpu=10), cluster_bundle("b", cpu=10))
    >>> flatten_to_matrix(tree, index).shape
    (2, 4)
    """
    return index.matrix(flatten(node, max_bundles=max_bundles))


def batch_engine_from_trees(
    specs: Sequence[tuple[str, BidNode, float]],
    index: PoolIndex,
    *,
    max_bundles: int = 512,
) -> BatchDemandEngine:
    """Flatten many ``(bidder, tree, limit)`` bids into one batch demand engine.

    The one-stop path from the bidding language to the vectorized auction
    core: every tree is expanded to its XOR bundle matrix, the matrices are
    stacked row-wise with per-bidder limits, and the result answers whole
    rounds of price queries at once.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.bidlang.ast import cluster_bundle
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> engine = batch_engine_from_trees(
    ...     [("team-a", cluster_bundle("a", cpu=10), 500.0),
    ...      ("team-b", cluster_bundle("b", cpu=20), 800.0)],
    ...     index,
    ... )
    >>> engine.respond_all(np.ones(len(index))).active_count
    2
    """
    bids = [
        tree_bid(bidder, node, index, limit, max_bundles=max_bundles)
        for bidder, node, limit in specs
    ]
    return BatchDemandEngine(index, bids)


def tree_bid(
    bidder: str,
    node: BidNode,
    index: PoolIndex,
    limit: float,
    *,
    max_bundles: int = 512,
    **metadata: object,
) -> Bid:
    """Build a sealed :class:`repro.core.bids.Bid` directly from a bid tree.

    ``limit`` follows the paper's convention: positive for a maximum payment,
    negative for a minimum revenue (selling).

    Examples
    --------
    >>> from repro.bidlang.ast import cluster_bundle, xor
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> bid = tree_bid("team", xor(cluster_bundle("a", cpu=10), cluster_bundle("b", cpu=10)),
    ...                index, limit=250.0)
    >>> bid.bidder, len(bid.bundles), bid.limit
    ('team', 2, 250.0)
    """
    return Bid(
        bidder=bidder,
        bundles=to_bundle_set(node, index, max_bundles=max_bundles),
        limit=float(limit),
        metadata=dict(metadata),
    )
