"""Quota holdings: who is provisioned how much of each resource pool.

The market's output is a *provisioning* decision — long-term quota — not a
per-job scheduling decision.  The registry records each team's quota per pool,
applies auction settlements (buys add quota, sells remove it), and enforces
that a team cannot offer quota it does not hold.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from repro.cluster.pools import PoolIndex
from repro.core.settlement import Settlement

#: Holdings of magnitude at most this are zero in every name-keyed view
#: (:meth:`PoolIndex.describe`'s tolerance).
ZERO_HOLDING = 1e-12

#: Teams per block of a pass over many teams' holdings, so no pass builds a
#: temporary the size of the whole registry.
BLOCK_TEAMS = 256


class QuotaError(RuntimeError):
    """A quota operation would leave a team with negative holdings."""


class QuotaRegistry:
    """Per-team quota holdings over a pool index: one matrix row per team.

    Rows are in registration order.  The matrix grows by doubling its row
    capacity, so a build that registers teams one at a time copies each row
    a bounded number of times; :meth:`holdings_maps` grows it once, to the
    exact size, for the teams it registers.  No method hands out a view of
    the matrix: a growth would leave it stale.
    """

    def __init__(self, index: PoolIndex):
        self.index = index
        self._rows: dict[str, int] = {}
        self._holdings = np.zeros((0, len(index)), dtype=float)

    def _reserve(self, teams: int) -> None:
        """Make room for ``teams`` rows: grow to that many or double, whichever is more."""
        if teams > len(self._holdings):
            grown = np.zeros((max(teams, 2 * len(self._holdings), 16), len(self.index)))
            grown[: len(self._rows)] = self._holdings[: len(self._rows)]
            self._holdings = grown

    def _row(self, team: str) -> int:
        """The row of ``team``, registering it with an all-zero holding if missing."""
        row = self._rows.get(team)
        if row is None:
            row = len(self._rows)
            self._reserve(row + 1)
            self._rows[team] = row
        return row

    # -- basic access -------------------------------------------------------------
    def ensure_team(self, team: str) -> np.ndarray:
        """Register ``team`` with an all-zero holding if missing; a copy of its holding."""
        row = self._row(team)  # before reading the matrix: registering may grow it
        return self._holdings[row].copy()

    def teams(self) -> list[str]:
        """All teams with registered holdings, in registration order."""
        return list(self._rows)

    def rows(self) -> Mapping[str, int]:
        """Read-only map of team to matrix row, in registration order."""
        return MappingProxyType(self._rows)

    def matrix(self) -> np.ndarray:
        """A copy of every team's holding, one row per team in registration order."""
        return self._holdings[: len(self._rows)].copy()

    def holdings_of(self, rows: np.ndarray) -> np.ndarray:
        """A copy of the holdings at matrix rows ``rows`` (see :meth:`rows`)."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= len(self._rows)):
            raise IndexError(f"rows must lie in [0, {len(self._rows)})")
        return self._holdings[rows]

    def quota(self, team: str, pool_name: str) -> float:
        """Quota of one team in one pool (0 if the team holds nothing)."""
        row = self._rows.get(team)
        if row is None:
            return 0.0
        return float(self._holdings[row, self.index.index_of(pool_name)])

    def quota_vector(self, team: str) -> np.ndarray:
        """A copy of one team's full holding vector."""
        return self.ensure_team(team)

    def holdings_map(self, team: str) -> dict[str, float]:
        """Non-zero holdings of one team keyed by pool name."""
        return self.holdings_maps([team])[0]

    def holdings_maps(self, teams: Iterable[str]) -> list[dict[str, float]]:
        """Non-zero holdings of each team in ``teams``, keyed by pool name in pool order.

        Registers missing teams in the order given.  One pass per block of
        teams; the dicts equal :meth:`PoolIndex.describe` of each holding.
        """
        teams = list(teams)
        # One growth to the exact size when a population registers at once.
        self._reserve(len(self._rows) + len(set(teams).difference(self._rows)))
        rows = np.array([self._row(team) for team in teams], dtype=np.intp)
        names = self.index.names
        maps: list[dict[str, float]] = [{} for _ in range(len(rows))]
        for start in range(0, len(rows), BLOCK_TEAMS):
            block = self._holdings[rows[start : start + BLOCK_TEAMS]]
            held_rows, held_cols = np.nonzero(np.abs(block) > ZERO_HOLDING)
            values = block[held_rows, held_cols]
            for i, j, value in zip(held_rows.tolist(), held_cols.tolist(), values.tolist()):
                maps[start + i][names[j]] = value
        return maps

    # -- mutations ------------------------------------------------------------------
    def grant(self, team: str, quantities: Mapping[str, float] | np.ndarray) -> None:
        """Add quota to a team (initial endowments, operator grants)."""
        vec = (
            quantities
            if isinstance(quantities, np.ndarray)
            else self.index.vector(dict(quantities))
        )
        if np.any(vec < 0):
            raise QuotaError("grants must be non-negative; use apply_delta for trades")
        row = self._row(team)
        self._holdings[row] = self._holdings[row] + vec

    def apply_delta(self, team: str, delta: np.ndarray, *, allow_negative: bool = False) -> None:
        """Apply a signed quota change (an auction allocation) to one team."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (len(self.index),):
            raise ValueError("delta has the wrong length")
        row = self._row(team)
        updated = self._holdings[row] + delta
        if not allow_negative and np.any(updated < -1e-9):
            short = self.index.pools[int(np.argmin(updated))].name
            raise QuotaError(
                f"{team} would hold negative quota in {short}: {float(updated.min()):.3f}"
            )
        self._holdings[row] = updated

    def apply_settlement(self, settlement: Settlement, *, allow_negative: bool = False) -> None:
        """Apply every winning allocation of a settlement to the registry."""
        if settlement.index.names != self.index.names:
            raise ValueError("settlement is defined over a different pool index")
        for line in settlement.winners:
            self.apply_delta(line.bidder, line.allocation, allow_negative=allow_negative)

    # -- queries used by agents and validation ----------------------------------------
    def can_offer(self, team: str, quantities: Mapping[str, float]) -> bool:
        """True iff ``team`` holds at least the (positive) quantities it wants to sell."""
        row = self._row(team)
        holding = self._holdings[row]
        for name, qty in quantities.items():
            if qty < 0:
                qty = -qty
            if holding[self.index.index_of(name)] < qty - 1e-9:
                return False
        return True

    def total_provisioned(self) -> np.ndarray:
        """Sum of all teams' quotas per pool, added team by team in registration order."""
        total = np.zeros(len(self.index), dtype=float)
        for holding in self._holdings[: len(self._rows)]:
            total = total + holding
        return total

    def overcommitment(self) -> np.ndarray:
        """Provisioned quota minus pool capacity (positive entries mean overcommit)."""
        return self.total_provisioned() - self.index.capacities()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Deep copy of all non-zero holdings, keyed team -> pool name -> quota."""
        return dict(zip(self._rows, self.holdings_maps(list(self._rows))))
