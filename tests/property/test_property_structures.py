"""Property-based tests for supporting data structures: bundles, bid trees, boxplots, percentiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.boxplot import boxplot_stats
from repro.bidlang.ast import AndNode, BidNode, PoolLeaf, XorNode
from repro.bidlang.flatten import flatten
from repro.bidlang.parser import BidLanguageSyntaxError, parse_sexpr
from repro.cluster.resources import ResourceVector, cpu_ram_disk
from repro.cluster.utilization import percentile_ranks

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive_floats = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


class TestResourceVectorProperties:
    @settings(max_examples=100, deadline=None)
    @given(a=st.tuples(finite_floats, finite_floats, finite_floats), b=st.tuples(finite_floats, finite_floats, finite_floats))
    def test_addition_commutes_and_subtraction_inverts(self, a, b):
        va, vb = cpu_ram_disk(*a), cpu_ram_disk(*b)
        assert va + vb == vb + va
        round_trip = (va + vb) - vb
        assert round_trip.cpu == pytest.approx(va.cpu, abs=1e-6)
        assert round_trip.ram == pytest.approx(va.ram, abs=1e-6)
        assert round_trip.disk == pytest.approx(va.disk, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(a=st.tuples(positive_floats, positive_floats, positive_floats), scale=st.floats(min_value=0.0, max_value=100.0))
    def test_scaling_preserves_nonnegativity_and_fit(self, a, scale):
        vec = cpu_ram_disk(*a)
        scaled = vec * scale
        assert scaled.is_nonnegative()
        if scale <= 1.0:
            assert all(part <= whole for part, whole in zip(scaled, vec))


class TestPercentileRankProperties:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    def test_ranks_are_bounded_and_order_preserving(self, values):
        ranks = percentile_ranks(values)
        assert np.all(ranks >= 0.0) and np.all(ranks <= 100.0)
        order = np.argsort(values, kind="stable")
        sorted_ranks = ranks[order]
        assert np.all(np.diff(sorted_ranks) >= -1e-9)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=50, unique=True))
    def test_distinct_values_span_zero_to_hundred(self, values):
        ranks = percentile_ranks(values)
        assert ranks.min() == 0.0
        assert ranks.max() == 100.0


class TestBoxplotProperties:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=200))
    def test_summary_ordering_and_outlier_bounds(self, values):
        stats = boxplot_stats(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.whisker_low >= stats.minimum - 1e-9
        assert stats.whisker_high <= stats.maximum + 1e-9
        assert stats.count == len(values)
        for outlier in stats.outliers:
            assert outlier < stats.whisker_low or outlier > stats.whisker_high


@st.composite
def bid_trees(draw, depth: int = 0) -> BidNode:
    """Random bid trees over a tiny pool vocabulary."""
    pools = ["c0/cpu", "c0/ram", "c1/cpu", "c1/ram"]
    if depth >= 3 or draw(st.booleans()):
        return PoolLeaf(
            pool_name=draw(st.sampled_from(pools)),
            quantity=draw(st.floats(min_value=0.5, max_value=100.0)),
        )
    node_type = draw(st.sampled_from(["and", "xor"]))
    children = tuple(draw(bid_trees(depth=depth + 1)) for _ in range(draw(st.integers(2, 3))))
    return AndNode(parts=children) if node_type == "and" else XorNode(alternatives=children)


#: Words of the s-expression syntax, including the numbers it must refuse.
sexpr_words = st.sampled_from(
    ["(", ")", "pool", "cluster", "and", "xor", "choose", "a/cpu", "a",
     "0", "1", "-1", "1.5", "2", "nan", "inf", "1e400", "(x)"]
)
bid_texts = st.one_of(
    st.text(max_size=200),
    st.lists(sexpr_words, max_size=60).map(" ".join),
    st.builds(
        lambda depth, inner: "(and " * depth + inner + ")" * depth,
        st.integers(min_value=0, max_value=3000),
        st.lists(sexpr_words, max_size=12).map(" ".join),
    ),
)


class TestBidLanguageProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=bid_texts)
    def test_any_text_parses_to_a_bid_node_or_a_syntax_error(self, text):
        try:
            node = parse_sexpr(text)
        except BidLanguageSyntaxError:
            return
        assert isinstance(node, BidNode)

    @settings(max_examples=80, deadline=None)
    @given(tree=bid_trees())
    def test_sexpr_round_trip(self, tree):
        assert parse_sexpr(tree.to_sexpr()) == tree

    @settings(max_examples=80, deadline=None)
    @given(tree=bid_trees())
    def test_flatten_produces_bounded_nonempty_combos(self, tree):
        combos = flatten(tree, max_bundles=10_000)
        assert combos
        # every combination only references known pools with positive quantities
        for combo in combos:
            assert combo
            for name, quantity in combo.items():
                assert name.startswith(("c0/", "c1/"))
                assert quantity > 0

    @settings(max_examples=80, deadline=None)
    @given(tree=bid_trees())
    def test_xor_of_tree_with_itself_adds_no_new_combos(self, tree):
        base = flatten(tree, max_bundles=10_000)
        doubled = flatten(XorNode(alternatives=(tree, tree)), max_bundles=20_000)
        assert len(doubled) == len(base)
