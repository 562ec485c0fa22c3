"""Multi-auction economy simulation.

The paper ran "six, experimental auctions over the course of several months".
This package simulates that longitudinal process: scenario builders assemble
a synthetic fleet plus an agent population plus a trading platform, and
:class:`~repro.simulation.economy.MarketEconomySimulation` runs periodic
auctions, each after a spell of organic utilization drift, and records
per-auction statistics for the analysis layer.

On top of that sits the scenario subsystem: the
:mod:`~repro.simulation.catalog` of named, declarative
:class:`~repro.simulation.catalog.ScenarioSpec` presets and the
:class:`~repro.simulation.runner.ParallelRunner` that fans independent
scenarios out across a process pool (also exposed as ``python -m repro``).
"""

from repro.simulation.workload import demands_from_agents, priorities_from_agents, organic_drift
from repro.simulation.scenario import ScenarioConfig, Scenario, build_scenario
from repro.simulation.economy import (
    AuctionPeriodResult,
    EconomyHistory,
    MarketEconomySimulation,
)
from repro.simulation.catalog import (
    SCENARIOS,
    ScenarioSpec,
    default_sweep_names,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.simulation.runner import (
    ParallelRunner,
    ScenarioRunResult,
    SweepReport,
    run_scenario,
)

__all__ = [
    "demands_from_agents",
    "priorities_from_agents",
    "organic_drift",
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
    "AuctionPeriodResult",
    "EconomyHistory",
    "MarketEconomySimulation",
    "SCENARIOS",
    "ScenarioSpec",
    "default_sweep_names",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "ParallelRunner",
    "ScenarioRunResult",
    "SweepReport",
    "run_scenario",
]
