"""Unit tests for the budget ledger and the quota registry."""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.settlement import settle
from repro.market.accounts import InsufficientBudgetError, Ledger
from repro.market.quotas import QuotaError, QuotaRegistry


class TestLedger:
    def test_open_account_with_endowment(self):
        ledger = Ledger()
        ledger.open_account("ads", endowment=1000.0)
        assert ledger.balance("ads") == 1000.0
        assert ledger.transactions("ads")[0].kind == "endowment"

    def test_duplicate_account_rejected(self):
        ledger = Ledger()
        ledger.open_account("ads")
        with pytest.raises(ValueError):
            ledger.open_account("ads")

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            Ledger().open_account("x", endowment=-1.0)

    def test_unknown_account_raises(self):
        with pytest.raises(KeyError):
            Ledger().balance("ghost")

    def test_credit_and_debit(self):
        ledger = Ledger()
        ledger.open_account("t", endowment=100.0)
        ledger.debit("t", 40.0)
        ledger.credit("t", 15.0)
        assert ledger.balance("t") == pytest.approx(75.0)

    def test_debit_beyond_balance_raises(self):
        ledger = Ledger()
        ledger.open_account("t", endowment=10.0)
        with pytest.raises(InsufficientBudgetError):
            ledger.debit("t", 20.0)

    def test_debit_with_overdraft_allowed(self):
        ledger = Ledger()
        ledger.open_account("t", endowment=10.0)
        ledger.debit("t", 20.0, allow_overdraft=True)
        assert ledger.balance("t") == pytest.approx(-10.0)

    def test_negative_amounts_rejected(self):
        ledger = Ledger()
        ledger.open_account("t", endowment=10.0)
        with pytest.raises(ValueError):
            ledger.credit("t", -1.0)
        with pytest.raises(ValueError):
            ledger.debit("t", -1.0)

    def test_post_settlement_debits_buyers_credits_sellers(self):
        ledger = Ledger()
        ledger.open_account("buyer", endowment=100.0)
        ledger.open_account("seller", endowment=0.0)
        ledger.post_settlement("buyer", 30.0, auction_id=1)
        ledger.post_settlement("seller", -25.0, auction_id=1)
        assert ledger.balance("buyer") == pytest.approx(70.0)
        assert ledger.balance("seller") == pytest.approx(25.0)
        assert all(t.auction_id == 1 for t in ledger.transactions() if t.kind == "settlement")

    def test_transfer_moves_money(self):
        ledger = Ledger()
        ledger.open_account("a", endowment=50.0)
        ledger.open_account("b")
        ledger.transfer("a", "b", 20.0)
        assert ledger.balance("a") == 30.0
        assert ledger.balance("b") == 20.0

    def test_total_outstanding_is_conserved_by_transfers(self):
        ledger = Ledger()
        ledger.endow_equally(["a", "b", "c"], total_budget=300.0)
        before = ledger.total_outstanding()
        ledger.transfer("a", "b", 50.0)
        assert ledger.total_outstanding() == pytest.approx(before)

    def test_endow_equally_splits_budget(self):
        ledger = Ledger()
        ledger.endow_equally(["a", "b"], total_budget=100.0)
        assert ledger.balance("a") == ledger.balance("b") == 50.0
        # calling again tops up existing accounts
        ledger.endow_equally(["a", "b"], total_budget=50.0)
        assert ledger.balance("a") == 75.0


class TestQuotaRegistry:
    def test_grant_and_lookup(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        registry.grant("ads", {"alpha/cpu": 100, "alpha/ram": 400})
        assert registry.quota("ads", "alpha/cpu") == 100.0
        assert registry.quota("ads", "beta/cpu") == 0.0
        assert registry.holdings_map("ads") == {"alpha/cpu": 100.0, "alpha/ram": 400.0}

    def test_unknown_team_has_zero_quota(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        assert registry.quota("ghost", "alpha/cpu") == 0.0

    def test_negative_grant_rejected(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        with pytest.raises(QuotaError):
            registry.grant("ads", {"alpha/cpu": -10})

    def test_apply_delta_protects_against_negative_holdings(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        registry.grant("ads", {"alpha/cpu": 10})
        delta = pool_index.vector({"alpha/cpu": -20})
        with pytest.raises(QuotaError):
            registry.apply_delta("ads", delta)
        registry.apply_delta("ads", delta, allow_negative=True)
        assert registry.quota("ads", "alpha/cpu") == pytest.approx(-10.0)

    def test_apply_settlement_updates_winners_only(self, pool_index):
        bids = [
            Bid.buy("winner", pool_index, [{"alpha/cpu": 10}], max_payment=1e6),
            Bid.buy("loser", pool_index, [{"alpha/cpu": 10}], max_payment=0.0),
        ]
        settlement = settle(pool_index, bids, np.ones(len(pool_index)))
        registry = QuotaRegistry(index=pool_index)
        registry.apply_settlement(settlement)
        assert registry.quota("winner", "alpha/cpu") == 10.0
        assert registry.quota("loser", "alpha/cpu") == 0.0

    def test_apply_settlement_rejects_foreign_index(self, pool_index, three_cluster_index):
        settlement = settle(three_cluster_index, [], np.ones(len(three_cluster_index)))
        registry = QuotaRegistry(index=pool_index)
        with pytest.raises(ValueError):
            registry.apply_settlement(settlement)

    def test_can_offer(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        registry.grant("ads", {"alpha/cpu": 50})
        assert registry.can_offer("ads", {"alpha/cpu": 40})
        assert registry.can_offer("ads", {"alpha/cpu": -40})  # sign-insensitive
        assert not registry.can_offer("ads", {"alpha/cpu": 60})
        assert not registry.can_offer("ads", {"beta/cpu": 1})

    def test_total_provisioned_and_overcommitment(self, pool_index):
        registry = QuotaRegistry(index=pool_index)
        registry.grant("a", {"alpha/cpu": 600})
        registry.grant("b", {"alpha/cpu": 600})
        total = registry.total_provisioned()
        assert total[pool_index.index_of("alpha/cpu")] == 1200.0
        over = registry.overcommitment()
        assert over[pool_index.index_of("alpha/cpu")] == pytest.approx(1200.0 - pool_index.pool("alpha/cpu").capacity)

