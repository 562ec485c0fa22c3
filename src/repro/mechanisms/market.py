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
        return self.simulate(spec.build(), spec)

    def simulate(self, scenario, spec: "ScenarioSpec") -> "ScenarioRunResult":
        """Run the mechanism against an already-built scenario.

        Split from :meth:`run` so the mechanism benchmark can time price
        discovery and settlement without the (mechanism-independent) fleet
        generation that dominates a cold start.  Consumes the scenario.
        """
        from repro.simulation.economy import MarketEconomySimulation
        from repro.simulation.runner import ScenarioRunResult

        history = MarketEconomySimulation.from_spec(scenario, spec).run(spec.auctions)
        return ScenarioRunResult.from_history(spec, scenario, history)
