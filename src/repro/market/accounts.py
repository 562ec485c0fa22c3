"""Budget-dollar accounts.

"Engineering teams were given budget dollars and allowed to buy, sell, and
trade resources with each other as well as the company itself."  The ledger
tracks those budget dollars: initial endowments, auction payments and
receipts, and ad-hoc transfers.  The full accounting/billing stack of the real
system is explicitly out of the paper's scope; this module implements just
enough for budgets to constrain bidding and for settlements to be posted.
"""

from __future__ import annotations

from dataclasses import dataclass


class InsufficientBudgetError(RuntimeError):
    """A debit would push an account's balance below zero."""


@dataclass
class Account:
    """One participant's budget-dollar account."""

    owner: str
    balance: float = 0.0

    def can_afford(self, amount: float) -> bool:
        """True iff a debit of ``amount`` would keep the balance non-negative."""
        return self.balance >= amount - 1e-9


class Ledger:
    """All participants' budget-dollar accounts."""

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {}

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
            self.credit(owner, endowment)
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
    def credit(self, owner: str, amount: float) -> None:
        """Add budget dollars to an account."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative; use debit()")
        self.account(owner).balance += amount

    def debit(self, owner: str, amount: float, *, allow_overdraft: bool = False) -> None:
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

    def post_settlement(self, owner: str, payment: float) -> None:
        """Post an auction settlement: positive payment debits, negative credits."""
        if payment >= 0:
            self.debit(owner, payment, allow_overdraft=True)
        else:
            self.credit(owner, -payment)

    # -- reporting ----------------------------------------------------------------------
    def total_outstanding(self) -> float:
        """Sum of all balances (the money supply of the internal economy)."""
        return float(sum(acct.balance for acct in self._accounts.values()))
