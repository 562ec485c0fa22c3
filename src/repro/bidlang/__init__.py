"""Tree-based bidding language (TBBL-like).

The paper's users "announce bids encapsulating their desired bundles and
willingness-to-pay criteria in a tree-based bidding language similar to TBBL"
(Parkes et al., ICE).  This package provides:

* an AST of bid-tree nodes (:mod:`repro.bidlang.ast`) — leaves name a quantity
  of one resource pool, internal nodes combine children with ``AND`` (take all
  children), ``XOR`` (take exactly one), or ``CHOOSE k`` (take exactly ``k``);
* a parser for a compact s-expression syntax and for JSON-style nested
  mappings (:mod:`repro.bidlang.parser`);
* validation against a pool index (:mod:`repro.bidlang.validate`);
* flattening of a bid tree into the flat XOR bundle set consumed by the clock
  auction (:mod:`repro.bidlang.flatten`).
"""

from repro.bidlang.ast import (
    BidNode,
    PoolLeaf,
    ClusterLeaf,
    AndNode,
    XorNode,
    ChooseNode,
    and_,
    xor,
    choose,
    pool,
    cluster_bundle,
)
from repro.bidlang.flatten import (
    FlattenLimitError,
    flatten,
    to_bundle_set,
    tree_bid,
)
from repro.bidlang.parser import parse_sexpr, parse_json, BidLanguageSyntaxError
from repro.bidlang.validate import validate_tree, BidTreeValidationError

__all__ = [
    "BidNode",
    "PoolLeaf",
    "ClusterLeaf",
    "AndNode",
    "XorNode",
    "ChooseNode",
    "and_",
    "xor",
    "choose",
    "pool",
    "cluster_bundle",
    "flatten",
    "FlattenLimitError",
    "to_bundle_set",
    "tree_bid",
    "parse_sexpr",
    "parse_json",
    "BidLanguageSyntaxError",
    "validate_tree",
    "BidTreeValidationError",
]
