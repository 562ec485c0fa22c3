"""Parsers for the bidding language: s-expressions and JSON-style mappings.

Two equivalent surface syntaxes are provided so bids can be written by hand
(s-expressions) or generated programmatically / stored (JSON):

S-expression form::

    (xor
      (cluster cluster-01 100 400 10000)
      (and (pool cluster-02/cpu 100) (pool cluster-02/ram 400))
      (choose 1 (cluster cluster-03 100 400 10000)
                (cluster cluster-04 100 400 10000)))

JSON form::

    {"xor": [
        {"cluster": "cluster-01", "cpu": 100, "ram": 400, "disk": 10000},
        {"and": [{"pool": "cluster-02/cpu", "quantity": 100},
                  {"pool": "cluster-02/ram", "quantity": 400}]},
        {"choose": 1, "options": [...]}
    ]}
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Sequence

from repro.bidlang.ast import (
    AndNode,
    BidNode,
    ChooseNode,
    ClusterLeaf,
    PoolLeaf,
    XorNode,
)


class BidLanguageSyntaxError(ValueError):
    """The bid text or mapping does not conform to the bidding language."""


#: Deepest nesting either parser accepts: far above the depth validation
#: admits (``ValidationLimits.max_depth``) and far below the interpreter's
#: recursion limit, so a hostile input fails as a syntax error.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# S-expression syntax
# ---------------------------------------------------------------------------
def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    current = ""
    for ch in text:
        if ch in "()":
            if current:
                tokens.append(current)
                current = ""
            tokens.append(ch)
        elif ch.isspace():
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if current:
        tokens.append(current)
    return tokens


def _parse_tokens(tokens: list[str], pos: int, depth: int = 1) -> tuple[Any, int]:
    if pos >= len(tokens):
        raise BidLanguageSyntaxError("unexpected end of input")
    token = tokens[pos]
    if token == "(":
        _check_nesting(depth)
        items: list[Any] = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_tokens(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise BidLanguageSyntaxError("missing closing parenthesis")
        return items, pos + 1
    if token == ")":
        raise BidLanguageSyntaxError("unexpected closing parenthesis")
    return token, pos + 1


def _check_nesting(depth: int) -> None:
    if depth > MAX_NESTING:
        raise BidLanguageSyntaxError(f"bid nests deeper than {MAX_NESTING} levels")


def _number(token: Any, context: str) -> float:
    try:
        value = float(token)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BidLanguageSyntaxError(f"expected a number in {context}, got {token!r}") from exc
    if not math.isfinite(value):
        raise BidLanguageSyntaxError(f"expected a finite number in {context}, got {token!r}")
    return value


def _count(token: Any) -> int:
    value = _number(token, "choose count")
    if not value.is_integer():
        raise BidLanguageSyntaxError(f"choose count must be a whole number, got {token!r}")
    return int(value)


def _name(token: Any, context: str) -> str:
    if not isinstance(token, str):
        raise BidLanguageSyntaxError(f"expected a name in {context}, got {token!r}")
    return token


def _checked(build: Callable[[Any], BidNode], item: Any) -> BidNode:
    """``build(item)``, with the AST's own checks reported as syntax errors."""
    try:
        return build(item)
    except BidLanguageSyntaxError:
        raise
    except ValueError as exc:  # a zero quantity, a CHOOSE count out of range
        raise BidLanguageSyntaxError(str(exc)) from exc


def _build_sexpr(item: Any) -> BidNode:
    if not isinstance(item, list) or not item:
        raise BidLanguageSyntaxError(f"expected a parenthesised form, got {item!r}")
    head = item[0]
    if not isinstance(head, str):
        raise BidLanguageSyntaxError(f"expected an operator name, got {head!r}")
    op = head.lower()
    args = item[1:]
    if op == "pool":
        if len(args) != 2:
            raise BidLanguageSyntaxError("(pool NAME QUANTITY) takes exactly two arguments")
        return PoolLeaf(pool_name=_name(args[0], "pool leaf"), quantity=_number(args[1], "pool leaf"))
    if op == "cluster":
        if len(args) != 4:
            raise BidLanguageSyntaxError("(cluster NAME CPU RAM DISK) takes exactly four arguments")
        return ClusterLeaf(
            cluster=_name(args[0], "cluster leaf"),
            cpu=_number(args[1], "cluster leaf"),
            ram=_number(args[2], "cluster leaf"),
            disk=_number(args[3], "cluster leaf"),
        )
    if op == "and":
        if not args:
            raise BidLanguageSyntaxError("(and ...) needs at least one child")
        return AndNode(parts=tuple(_build_sexpr(a) for a in args))
    if op == "xor":
        if not args:
            raise BidLanguageSyntaxError("(xor ...) needs at least one child")
        return XorNode(alternatives=tuple(_build_sexpr(a) for a in args))
    if op == "choose":
        if len(args) < 2:
            raise BidLanguageSyntaxError("(choose K child...) needs a count and at least one child")
        return ChooseNode(k=_count(args[0]), options=tuple(_build_sexpr(a) for a in args[1:]))
    raise BidLanguageSyntaxError(f"unknown operator {head!r}")


def parse_sexpr(text: str) -> BidNode:
    """Parse one bid tree written in the s-expression syntax.

    Examples
    --------
    >>> tree = parse_sexpr("(xor (pool a/cpu 10) (pool b/cpu 10))")
    >>> type(tree).__name__, tree.leaf_count()
    ('XorNode', 2)
    >>> tree.to_sexpr()
    '(xor (pool a/cpu 10.0) (pool b/cpu 10.0))'
    """
    tokens = _tokenize(text)
    if not tokens:
        raise BidLanguageSyntaxError("empty bid text")
    tree, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise BidLanguageSyntaxError("trailing content after the bid expression")
    return _checked(_build_sexpr, tree)


# ---------------------------------------------------------------------------
# JSON-style mapping syntax
# ---------------------------------------------------------------------------
def parse_json(data: Mapping[str, Any]) -> BidNode:
    """Parse one bid tree expressed as nested mappings (already-decoded JSON).

    Examples
    --------
    >>> tree = parse_json({"xor": [{"pool": "a/cpu", "quantity": 10},
    ...                            {"cluster": "b", "cpu": 10, "ram": 40}]})
    >>> type(tree).__name__, tree.leaf_count()
    ('XorNode', 2)
    """
    return _checked(_build_json, data)


def _build_json(data: Any, depth: int = 1) -> BidNode:
    _check_nesting(depth)
    if not isinstance(data, Mapping):
        raise BidLanguageSyntaxError(f"expected a mapping, got {type(data).__name__}")
    if "pool" in data:
        return PoolLeaf(
            pool_name=_name(data["pool"], "pool leaf"),
            quantity=_number(data.get("quantity"), "pool leaf"),
        )
    if "cluster" in data:
        return ClusterLeaf(
            cluster=_name(data["cluster"], "cluster leaf"),
            cpu=_number(data.get("cpu", 0.0), "cluster leaf"),
            ram=_number(data.get("ram", 0.0), "cluster leaf"),
            disk=_number(data.get("disk", 0.0), "cluster leaf"),
        )
    if "and" in data:
        children = data["and"]
        _require_children(children, "and")
        return AndNode(parts=tuple(_build_json(child, depth + 1) for child in children))
    if "xor" in data:
        children = data["xor"]
        _require_children(children, "xor")
        return XorNode(alternatives=tuple(_build_json(child, depth + 1) for child in children))
    if "choose" in data:
        options = data.get("options")
        _require_children(options, "choose")
        return ChooseNode(
            k=_count(data["choose"]),
            options=tuple(_build_json(child, depth + 1) for child in options),
        )
    raise BidLanguageSyntaxError(
        f"mapping does not name a known node type (keys: {sorted(data.keys())})"
    )


def _require_children(children: Any, op: str) -> None:
    if not isinstance(children, Sequence) or isinstance(children, (str, bytes)) or not children:
        raise BidLanguageSyntaxError(f"{op!r} node needs a non-empty list of children")
