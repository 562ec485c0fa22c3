"""The market mechanism: the paper's periodic combinatorial clock auctions.

This is the pre-existing :class:`~repro.simulation.economy.MarketEconomySimulation`
pipeline wrapped behind the :class:`~repro.mechanisms.base.AllocationMechanism`
contract.  The wrapper adds nothing to the economics — for a spec whose
``mechanism`` is ``"market"``, round traces are bit-identical to running the
simulation directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mechanisms.base import DEFAULT_MECHANISM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec
    from repro.simulation.runner import ScenarioRunResult


class MarketMechanism:
    """Periodic clock auctions with learning agents (the paper's mechanism)."""

    name = DEFAULT_MECHANISM
    description = "periodic combinatorial clock auctions with adaptive bidders"

    def run(self, spec: "ScenarioSpec") -> "ScenarioRunResult":
        from repro.simulation.economy import MarketEconomySimulation
        from repro.simulation.runner import ScenarioRunResult

        scenario = spec.build()
        history = MarketEconomySimulation.from_spec(scenario, spec).run(spec.auctions)
        return ScenarioRunResult.from_history(spec, scenario, history)
