"""Budget-dollar accounts and the transaction ledger.

"Engineering teams were given budget dollars and allowed to buy, sell, and
trade resources with each other as well as the company itself."  The ledger
tracks those budget dollars: initial endowments, auction payments and
receipts, and ad-hoc transfers.  The full accounting/billing stack of the real
system is explicitly out of the paper's scope; this module implements just
enough for budgets to constrain bidding and for settlements to be recorded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class InsufficientBudgetError(RuntimeError):
    """A debit would push an account's balance below zero."""


_txn_counter = itertools.count(1)


@dataclass(frozen=True)
class Transaction:
    """One ledger entry.  Positive ``amount`` credits the account, negative debits it."""

    txn_id: int
    account: str
    amount: float
    kind: str
    memo: str = ""
    auction_id: int | None = None


@dataclass
class Account:
    """One participant's budget-dollar account."""

    owner: str
    balance: float = 0.0

    def can_afford(self, amount: float) -> bool:
        """True iff a debit of ``amount`` would keep the balance non-negative."""
        return self.balance >= amount - 1e-9


class Ledger:
    """All accounts plus an append-only transaction history."""

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {}
        self._transactions: list[Transaction] = []

    # -- account management -----------------------------------------------------
    def open_account(self, owner: str, endowment: float = 0.0) -> Account:
        """Open an account with an initial budget endowment (idempotent for owner)."""
        if owner in self._accounts:
            raise ValueError(f"account {owner!r} already exists")
        if endowment < 0:
            raise ValueError("endowment must be non-negative")
        account = Account(owner=owner, balance=0.0)
        self._accounts[owner] = account
        if endowment:
            self.credit(owner, endowment, kind="endowment", memo="initial budget endowment")
        return account

    def account(self, owner: str) -> Account:
        """Look up an account."""
        try:
            return self._accounts[owner]
        except KeyError as exc:
            raise KeyError(f"no account for {owner!r}") from exc

    def has_account(self, owner: str) -> bool:
        return owner in self._accounts

    def balance(self, owner: str) -> float:
        """Current balance of one account."""
        return self.account(owner).balance

    def accounts(self) -> list[Account]:
        """All accounts."""
        return list(self._accounts.values())

    # -- postings -------------------------------------------------------------------
    def credit(
        self, owner: str, amount: float, *, kind: str = "credit", memo: str = "", auction_id: int | None = None
    ) -> Transaction:
        """Add budget dollars to an account."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative; use debit()")
        account = self.account(owner)
        account.balance += amount
        txn = Transaction(
            txn_id=next(_txn_counter), account=owner, amount=amount, kind=kind, memo=memo, auction_id=auction_id
        )
        self._transactions.append(txn)
        return txn

    def debit(
        self,
        owner: str,
        amount: float,
        *,
        kind: str = "debit",
        memo: str = "",
        auction_id: int | None = None,
        allow_overdraft: bool = False,
    ) -> Transaction:
        """Remove budget dollars from an account.

        Raises :class:`InsufficientBudgetError` unless ``allow_overdraft`` is
        set (settlements are always honored even if a team overbid between
        preliminary runs; the resulting negative balance is visible in
        reports).
        """
        if amount < 0:
            raise ValueError("debit amount must be non-negative; use credit()")
        account = self.account(owner)
        if not allow_overdraft and not account.can_afford(amount):
            raise InsufficientBudgetError(
                f"{owner} has {account.balance:.2f} budget dollars, cannot pay {amount:.2f}"
            )
        account.balance -= amount
        txn = Transaction(
            txn_id=next(_txn_counter), account=owner, amount=-amount, kind=kind, memo=memo, auction_id=auction_id
        )
        self._transactions.append(txn)
        return txn

    def post_settlement(self, owner: str, payment: float, *, auction_id: int) -> Transaction:
        """Record an auction settlement: positive payment debits, negative credits."""
        if payment >= 0:
            return self.debit(
                owner, payment, kind="settlement", memo="auction settlement", auction_id=auction_id,
                allow_overdraft=True,
            )
        return self.credit(
            owner, -payment, kind="settlement", memo="auction settlement", auction_id=auction_id
        )

    # -- history ------------------------------------------------------------------------
    def transactions(self, owner: str | None = None) -> list[Transaction]:
        """All transactions, optionally filtered to one account."""
        if owner is None:
            return list(self._transactions)
        return [txn for txn in self._transactions if txn.account == owner]

    def total_outstanding(self) -> float:
        """Sum of all balances (the money supply of the internal economy)."""
        return float(sum(acct.balance for acct in self._accounts.values()))
