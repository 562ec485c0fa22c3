"""Allocation mechanisms: one protocol over the market and every baseline.

The registry lets the scenario/runner/store pipeline treat "how resources get
allocated" as a first-class dimension, exactly like the demand engine: a
:class:`~repro.simulation.catalog.ScenarioSpec` names its mechanism, the
parallel runner resolves it by name inside the worker, and the result store
keys provenance by ``(engine, mechanism)``.

Registered mechanisms:

================  ==========================================================
``market``        The paper's periodic combinatorial clock auctions with
                  adaptive bidders (:class:`MarketMechanism`).
``fixed-price``   First-come-first-served grants at posted fixed prices.
``priority``      Operator-assigned priorities served highest first.
``proportional``  Equal fractional shares of oversubscribed pools.
``lottery``       Budget-weighted random service order (randomised fairness,
                  still no price signal).
================  ==========================================================

>>> from repro.mechanisms import get_mechanism, mechanism_names
>>> mechanism_names()
['market', 'fixed-price', 'lottery', 'priority', 'proportional']
>>> get_mechanism("fixed-price").name
'fixed-price'
"""

from repro.mechanisms.base import (
    DEFAULT_MECHANISM,
    MECHANISMS,
    AllocationMechanism,
    baseline_mechanism_names,
    get_mechanism,
    mechanism_names,
    register_mechanism,
    resolve_mechanisms,
)
from repro.mechanisms.baseline import (
    BASELINE_MECHANISMS,
    BaselineEconomySimulation,
    BaselineMechanism,
    BaselinePeriodResult,
    one_shot_outcomes,
    zero_migration_summary,
)
from repro.mechanisms.market import MarketMechanism

for _mechanism in (MarketMechanism(), *BASELINE_MECHANISMS):
    register_mechanism(_mechanism)

__all__ = [
    "DEFAULT_MECHANISM",
    "MECHANISMS",
    "AllocationMechanism",
    "BASELINE_MECHANISMS",
    "BaselineEconomySimulation",
    "BaselineMechanism",
    "BaselinePeriodResult",
    "MarketMechanism",
    "baseline_mechanism_names",
    "get_mechanism",
    "mechanism_names",
    "one_shot_outcomes",
    "register_mechanism",
    "resolve_mechanisms",
    "zero_migration_summary",
]
