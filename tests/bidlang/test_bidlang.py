"""Unit tests for the tree-based bidding language: AST, parser, flattening, validation."""

import numpy as np
import pytest

from repro.bidlang import (
    AndNode,
    BidLanguageSyntaxError,
    BidTreeValidationError,
    ChooseNode,
    ClusterLeaf,
    FlattenLimitError,
    PoolLeaf,
    XorNode,
    and_,
    choose,
    cluster_bundle,
    flatten,
    parse_json,
    parse_sexpr,
    pool,
    to_bundle_set,
    tree_bid,
    validate_tree,
    xor,
)
from repro.bidlang.parser import MAX_NESTING
from repro.bidlang.validate import ValidationLimits, require_valid
from repro.core.bids import BidderClass


class TestAst:
    def test_leaf_validation(self):
        with pytest.raises(ValueError):
            PoolLeaf(pool_name="", quantity=1)
        with pytest.raises(ValueError):
            PoolLeaf(pool_name="a/cpu", quantity=0)
        with pytest.raises(ValueError):
            ClusterLeaf(cluster="c0")

    def test_internal_node_validation(self):
        with pytest.raises(ValueError):
            AndNode(parts=())
        with pytest.raises(ValueError):
            XorNode(alternatives=())
        with pytest.raises(ValueError):
            ChooseNode(k=3, options=(pool("a/cpu", 1),))

    def test_depth_and_leaf_count(self):
        tree = xor(
            cluster_bundle("c0", cpu=1),
            and_(pool("c1/cpu", 1), pool("c1/ram", 2)),
        )
        assert tree.depth() == 3
        assert tree.leaf_count() == 3

    def test_cluster_leaf_quantities(self):
        leaf = cluster_bundle("c0", cpu=1, disk=10)
        assert leaf.quantities() == {"c0/cpu": 1, "c0/disk": 10}

    def test_sexpr_round_trip(self):
        tree = xor(
            cluster_bundle("c0", cpu=1, ram=2, disk=3),
            and_(pool("c1/cpu", 4), choose(1, pool("c2/cpu", 5), pool("c3/cpu", 6))),
        )
        parsed = parse_sexpr(tree.to_sexpr())
        assert parsed == tree


#: A well-formed JSON leaf for the hostile-input cases to wrap.
LEAF = {"pool": "a/cpu", "quantity": 1}


class TestParser:
    def test_parse_pool_leaf(self):
        node = parse_sexpr("(pool cluster-01/cpu 100)")
        assert node == PoolLeaf("cluster-01/cpu", 100.0)

    def test_parse_cluster_leaf(self):
        node = parse_sexpr("(cluster cluster-01 100 400 10000)")
        assert node == ClusterLeaf("cluster-01", 100.0, 400.0, 10000.0)

    def test_parse_nested(self):
        node = parse_sexpr("(xor (cluster a 1 2 3) (and (pool b/cpu 1) (pool b/ram 4)))")
        assert isinstance(node, XorNode)
        assert len(node.alternatives) == 2
        assert isinstance(node.alternatives[1], AndNode)

    def test_parse_choose(self):
        node = parse_sexpr("(choose 2 (pool a/cpu 1) (pool b/cpu 1) (pool c/cpu 1))")
        assert isinstance(node, ChooseNode)
        assert node.k == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(pool only-one-arg)",
            "(cluster c0 1 2)",
            "(frobnicate 1 2)",
            "(pool a/cpu 1",
            "(pool a/cpu 1)) extra",
            "(and)",
            "(xor)",
            "(choose 1)",
            "(pool a/cpu notanumber)",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(BidLanguageSyntaxError):
            parse_sexpr(text)

    @pytest.mark.parametrize(
        ("text", "problem"),
        [
            pytest.param("(" * 5000, "nests deeper than 100 levels", id="5000-open-parens"),
            pytest.param(
                "(and " * 900 + "(pool a/cpu 1)" + ")" * 900,
                "nests deeper than 100 levels",
                id="900-nested-ands",
            ),
            ("(choose nan (pool a/cpu 1))", "finite number in choose count"),
            ("(choose inf (pool a/cpu 1))", "finite number in choose count"),
            ("(choose 1.5 (pool a/cpu 1) (pool b/cpu 1))", "choose count must be a whole number"),
            ("(choose -1 (pool a/cpu 1))", "k=-1 is out of range"),
            ("(pool (x) 1)", "expected a name in pool leaf"),
            ("(cluster (x) 1 2 3)", "expected a name in cluster leaf"),
            ("(pool a/cpu nan)", "finite number in pool leaf"),
            ("(pool a/cpu 1e400)", "finite number in pool leaf"),
            ("(pool a/cpu 0)", "non-zero quantity"),
        ],
    )
    def test_hostile_input_is_a_syntax_error_naming_the_problem(self, text, problem):
        with pytest.raises(BidLanguageSyntaxError, match=problem):
            parse_sexpr(text)

    def test_nesting_up_to_the_bound_parses(self):
        text = "(and " * (MAX_NESTING - 1) + "(pool a/cpu 1)" + ")" * (MAX_NESTING - 1)
        assert parse_sexpr(text).depth() == MAX_NESTING
        with pytest.raises(BidLanguageSyntaxError, match="nests deeper"):
            parse_sexpr("(and " + text + ")")

    def test_parse_json_forms(self):
        node = parse_json(
            {
                "xor": [
                    {"cluster": "c0", "cpu": 1, "ram": 2, "disk": 3},
                    {"and": [{"pool": "c1/cpu", "quantity": 4}, {"pool": "c1/ram", "quantity": 8}]},
                    {"choose": 1, "options": [{"pool": "c2/cpu", "quantity": 1}, {"pool": "c3/cpu", "quantity": 1}]},
                ]
            }
        )
        assert isinstance(node, XorNode)
        assert node.leaf_count() == 5

    def test_parse_json_errors(self):
        with pytest.raises(BidLanguageSyntaxError):
            parse_json({"unknown": []})
        with pytest.raises(BidLanguageSyntaxError):
            parse_json({"and": []})
        with pytest.raises(BidLanguageSyntaxError):
            parse_json({"choose": 1})
        with pytest.raises(BidLanguageSyntaxError):
            parse_json([1, 2, 3])  # type: ignore[arg-type]

    def test_parse_json_deep_nesting_is_a_syntax_error(self):
        deep = {"pool": "a/cpu", "quantity": 1}
        for _ in range(3000):
            deep = {"and": [deep]}
        with pytest.raises(BidLanguageSyntaxError, match="nests deeper than 100 levels"):
            parse_json(deep)

    @pytest.mark.parametrize(
        ("data", "problem"),
        [
            ({"choose": float("nan"), "options": [LEAF]}, "finite number in choose count"),
            ({"choose": float("inf"), "options": [LEAF]}, "finite number in choose count"),
            ({"choose": 1.5, "options": [LEAF, LEAF]}, "choose count must be a whole number"),
            ({"choose": -1, "options": [LEAF]}, "k=-1 is out of range"),
            ({"pool": ["x"], "quantity": 1}, "expected a name in pool leaf"),
            ({"pool": "a/cpu", "quantity": float("nan")}, "finite number in pool leaf"),
            ({"pool": "a/cpu", "quantity": 10**400}, "expected a number in pool leaf"),
            ({"cluster": "a", "cpu": 0}, "at least one non-zero quantity"),
        ],
    )
    def test_parse_json_hostile_input_is_a_syntax_error(self, data, problem):
        with pytest.raises(BidLanguageSyntaxError, match=problem):
            parse_json(data)


class TestFlatten:
    def test_leaf_flattens_to_single_combo(self):
        assert flatten(pool("a/cpu", 5)) == [{"a/cpu": 5}]

    def test_xor_unions_alternatives(self):
        combos = flatten(xor(pool("a/cpu", 1), pool("b/cpu", 2)))
        assert combos == [{"a/cpu": 1}, {"b/cpu": 2}]

    def test_and_sums_quantities(self):
        combos = flatten(and_(pool("a/cpu", 1), pool("a/ram", 4), pool("a/cpu", 2)))
        assert combos == [{"a/cpu": 3, "a/ram": 4}]

    def test_and_of_xor_is_cross_product(self):
        tree = and_(
            xor(pool("a/cpu", 1), pool("b/cpu", 1)),
            xor(pool("a/ram", 4), pool("b/ram", 4)),
        )
        combos = flatten(tree)
        assert len(combos) == 4

    def test_choose_k_of_n(self):
        tree = choose(2, pool("a/cpu", 1), pool("b/cpu", 1), pool("c/cpu", 1))
        combos = flatten(tree)
        assert len(combos) == 3  # C(3,2)
        assert {"a/cpu": 1, "b/cpu": 1} in combos

    def test_duplicate_combos_are_deduplicated(self):
        tree = xor(pool("a/cpu", 1), pool("a/cpu", 1))
        assert flatten(tree) == [{"a/cpu": 1}]

    def test_limit_enforced(self):
        # 2^10 = 1024 combinations exceeds a limit of 100
        tree = and_(*[xor(pool(f"c{i}/cpu", 1), pool(f"d{i}/cpu", 1)) for i in range(10)])
        with pytest.raises(FlattenLimitError):
            flatten(tree, max_bundles=100)

    def test_unknown_node_type_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            flatten(Weird())  # type: ignore[arg-type]

    def test_to_bundle_set_and_tree_bid(self, pool_index):
        tree = xor(
            cluster_bundle("alpha", cpu=10, ram=40, disk=100),
            cluster_bundle("beta", cpu=10, ram=40, disk=100),
        )
        bundle_set = to_bundle_set(tree, pool_index)
        assert len(bundle_set) == 2
        bid = tree_bid("team-x", tree, pool_index, limit=500.0, service="gfs")
        assert bid.bidder == "team-x"
        assert bid.bidder_class is BidderClass.PURE_BUYER
        assert bid.metadata["service"] == "gfs"

    def test_sell_tree_bid(self, pool_index):
        tree = cluster_bundle("alpha", cpu=-10, ram=-40)
        bid = tree_bid("seller", tree, pool_index, limit=-100.0)
        assert bid.bidder_class is BidderClass.PURE_SELLER


class TestValidate:
    def test_valid_tree(self, pool_index):
        tree = xor(cluster_bundle("alpha", cpu=10), cluster_bundle("beta", cpu=10))
        assert validate_tree(tree, pool_index) == []
        require_valid(tree, pool_index)  # should not raise

    def test_unknown_pool_and_cluster_flagged(self, pool_index):
        tree = xor(pool("nowhere/cpu", 1), cluster_bundle("missing", cpu=1))
        problems = validate_tree(tree, pool_index)
        assert any("unknown pool" in p for p in problems)
        assert any("unknown cluster" in p for p in problems)

    def test_oversized_leaf_flagged(self, pool_index):
        capacity = pool_index.pool("alpha/cpu").capacity
        tree = pool("alpha/cpu", capacity * 10)
        problems = validate_tree(tree, pool_index)
        assert any("exceeds" in p for p in problems)

    def test_depth_and_leaf_limits(self, pool_index):
        deep = pool("alpha/cpu", 1)
        for _ in range(5):
            deep = and_(deep)
        problems = validate_tree(deep, pool_index, limits=ValidationLimits(max_depth=3))
        assert any("depth" in p for p in problems)

        wide = xor(*[cluster_bundle("alpha", cpu=1) for _ in range(10)])
        problems = validate_tree(wide, pool_index, limits=ValidationLimits(max_leaves=5))
        assert any("leaves" in p for p in problems)

    @pytest.mark.parametrize("quantity", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_leaf_flagged(self, pool_index, quantity):
        tree = xor(pool("alpha/cpu", quantity), cluster_bundle("beta", cpu=1, ram=quantity))
        problems = validate_tree(tree, pool_index)
        assert [p for p in problems if "not finite" in p] == [
            f"leaf quantity {quantity} for alpha/cpu is not finite",
            f"leaf quantity {quantity} for beta/ram is not finite",
        ]

    def test_require_valid_raises(self, pool_index):
        with pytest.raises(BidTreeValidationError):
            require_valid(pool("nowhere/cpu", 1), pool_index)
