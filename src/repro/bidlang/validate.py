"""Validation of bid trees against a pool index and structural limits."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bidlang.ast import (
    AndNode,
    BidNode,
    ChooseNode,
    ClusterLeaf,
    PoolLeaf,
    XorNode,
)
from repro.cluster.pools import PoolIndex


class BidTreeValidationError(ValueError):
    """A bid tree references unknown pools or violates structural limits."""


@dataclass(frozen=True)
class ValidationLimits:
    """Structural limits applied during validation."""

    max_depth: int = 12
    max_leaves: int = 256
    #: Reject demands/offers larger than this multiple of the pool's capacity;
    #: a request for 10x an entire cluster is almost certainly a typo.
    max_capacity_multiple: float = 1.0


def _iter_leaves(node: BidNode):
    if isinstance(node, (PoolLeaf, ClusterLeaf)):
        yield node
        return
    for child in node.children():
        yield from _iter_leaves(child)


def validate_tree(
    node: BidNode,
    index: PoolIndex,
    *,
    limits: ValidationLimits | None = None,
) -> list[str]:
    """Validate a bid tree, returning a list of problems (empty list = valid).

    Checks:

    * structural limits (depth, leaf count);
    * every referenced pool / cluster exists in ``index``;
    * every leaf quantity is finite;
    * no single leaf demands or offers more than ``max_capacity_multiple``
      times the pool's total capacity;
    * CHOOSE counts are within range (enforced by the AST itself).

    Examples
    --------
    >>> from repro.bidlang.ast import pool
    >>> from repro.cluster.pools import demo_pool_index
    >>> index = demo_pool_index()
    >>> validate_tree(pool("a/cpu", 10), index)
    []
    >>> validate_tree(pool("mars/cpu", 10), index)
    ["unknown pool 'mars/cpu'"]
    """
    limits = limits or ValidationLimits()
    problems: list[str] = []

    if node.depth() > limits.max_depth:
        problems.append(f"bid tree depth {node.depth()} exceeds limit {limits.max_depth}")
    if node.leaf_count() > limits.max_leaves:
        problems.append(f"bid tree has {node.leaf_count()} leaves, limit is {limits.max_leaves}")

    known_clusters = set(index.clusters())
    for leaf in _iter_leaves(node):
        if isinstance(leaf, PoolLeaf):
            quantities = {leaf.pool_name: leaf.quantity}
        elif leaf.cluster in known_clusters:
            quantities = leaf.quantities()
        else:
            problems.append(f"unknown cluster {leaf.cluster!r}")
            continue
        for pool_name, quantity in quantities.items():
            if pool_name not in index:
                problems.append(f"unknown pool {pool_name!r}")
                continue
            if not math.isfinite(quantity):
                problems.append(f"leaf quantity {quantity} for {pool_name} is not finite")
                continue
            capacity = index.pool(pool_name).capacity
            if abs(quantity) > limits.max_capacity_multiple * capacity:
                problems.append(
                    f"leaf quantity {quantity:g} for {pool_name} exceeds "
                    f"{limits.max_capacity_multiple:g}x pool capacity {capacity:g}"
                )
    return problems


def require_valid(node: BidNode, index: PoolIndex, *, limits: ValidationLimits | None = None) -> None:
    """Raise :class:`BidTreeValidationError` if ``node`` does not validate."""
    problems = validate_tree(node, index, limits=limits)
    if problems:
        raise BidTreeValidationError("; ".join(problems))
