"""Unit tests for operator decision support."""

import pytest

from repro.core.bids import Bid
from repro.core.exchange import CombinatorialExchange
from repro.market.decision_support import (
    CapacityAction,
    DecisionSupportConfig,
    apply_recommendations,
    recommend_capacity_actions,
    summarize_actions,
)


def run_congested_auction(pool_index):
    """An auction where the congested cluster (alpha) is heavily over-demanded."""
    bids = []
    for i in range(8):
        bundle = {"alpha/cpu": 60.0, "alpha/ram": 240.0}
        cost = sum(q * pool_index.pool(k).unit_cost for k, q in bundle.items())
        bids.append(Bid.buy(f"hot-{i}", pool_index, [bundle], max_payment=cost * 6.0))
    # one modest bid on the idle cluster so it trades but stays cheap
    bids.append(Bid.buy("cold", pool_index, [{"beta/cpu": 10.0}], max_payment=1e6))
    return CombinatorialExchange(pool_index).run(bids)


class TestDecisionSupport:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecisionSupportConfig(grow_price_ratio=0.5, reclaim_price_ratio=0.8)
        with pytest.raises(ValueError):
            DecisionSupportConfig(grow_utilization=0.2, reclaim_utilization=0.5)
        with pytest.raises(ValueError):
            DecisionSupportConfig(growth_headroom=0.5)
        with pytest.raises(ValueError):
            DecisionSupportConfig(reclaim_fraction=0.0)

    def test_requires_results(self):
        with pytest.raises(ValueError):
            recommend_capacity_actions([])

    def test_congested_pool_flagged_for_growth(self, pool_index):
        result = run_congested_auction(pool_index)
        recommendations = {r.pool: r for r in recommend_capacity_actions(result)}
        alpha_cpu = recommendations["alpha/cpu"]
        assert alpha_cpu.action is CapacityAction.GROW
        assert alpha_cpu.suggested_delta > 0
        assert alpha_cpu.price_to_cost > 1.5

    def test_idle_cheap_pool_flagged_for_reclaim(self, pool_index):
        result = run_congested_auction(pool_index)
        recommendations = {r.pool: r for r in recommend_capacity_actions(result)}
        beta_disk = recommendations["beta/disk"]
        assert beta_disk.action is CapacityAction.RECLAIM
        assert beta_disk.suggested_delta < 0

    def test_summarize_counts_all_pools(self, pool_index):
        result = run_congested_auction(pool_index)
        recommendations = recommend_capacity_actions(result)
        counts = summarize_actions(recommendations)
        assert sum(counts.values()) == len(pool_index)
        assert counts["grow"] >= 1 and counts["reclaim"] >= 1

    def test_mixed_index_results_rejected(self, pool_index, three_cluster_index):
        a = run_congested_auction(pool_index)
        b = CombinatorialExchange(three_cluster_index).run([])
        with pytest.raises(ValueError):
            recommend_capacity_actions([a, b])

    def test_apply_recommendations_grows_capacity_and_preserves_used(self, pool_index):
        result = run_congested_auction(pool_index)
        recommendations = recommend_capacity_actions(result)
        grown = apply_recommendations(pool_index, recommendations, only=CapacityAction.GROW)
        old = pool_index.pool("alpha/cpu")
        new = grown.pool("alpha/cpu")
        assert new.capacity > old.capacity
        assert new.capacity * new.utilization == pytest.approx(old.capacity * old.utilization, rel=1e-6)
        # non-grow pools untouched when filtering
        assert grown.pool("beta/disk").capacity == pool_index.pool("beta/disk").capacity

    def test_apply_all_recommendations_reclaims_idle_capacity(self, pool_index):
        result = run_congested_auction(pool_index)
        recommendations = recommend_capacity_actions(result)
        updated = apply_recommendations(pool_index, recommendations)
        assert updated.pool("beta/disk").capacity < pool_index.pool("beta/disk").capacity
