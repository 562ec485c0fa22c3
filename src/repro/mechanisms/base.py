"""The allocation-mechanism protocol and registry.

The paper's headline claim is *comparative*: the market reduces "the excessive
shortages and surpluses of more traditional allocation methods".  Making that
claim reproducible requires running the very same scenario under the market
*and* under the traditional policies, through the same pipeline, measured by
the same metrics.  An :class:`AllocationMechanism` is the unit of that
comparison: anything that can take a :class:`~repro.simulation.catalog.ScenarioSpec`
and produce a full :class:`~repro.simulation.runner.ScenarioRunResult`
trajectory — one entry per epoch for every series, exactly like the market.

The registry maps kebab-case mechanism names to implementations, mirroring the
scenario catalog: specs carry a ``mechanism`` *name* (a plain string, so they
stay picklable across process pools) and the runner resolves it via
:func:`get_mechanism` inside the worker.

>>> "market" in mechanism_names()
True
>>> get_mechanism("market").name
'market'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec
    from repro.simulation.runner import ScenarioRunResult

#: The mechanism every spec runs under unless told otherwise.
DEFAULT_MECHANISM = "market"


@runtime_checkable
class AllocationMechanism(Protocol):
    """Anything that can run a scenario end to end under one allocation policy.

    Implementations must honour the shared contract the property suite
    enforces for every registered mechanism:

    * ``run`` is **deterministic** for a fixed spec (same seed, same result);
    * every per-epoch series of the returned result has exactly
      ``spec.auctions`` entries;
    * every metric in :data:`repro.results.metrics.METRICS` is extractable
      from the result.
    """

    #: Registry name (kebab-case), recorded as store provenance.
    name: str
    #: One-line description shown by the CLI.
    description: str

    def run(self, spec: "ScenarioSpec") -> "ScenarioRunResult":
        """Run ``spec`` start to finish in the current process."""
        ...  # pragma: no cover - protocol


#: The registry: mechanism name -> implementation.
MECHANISMS: dict[str, AllocationMechanism] = {}


def register_mechanism(mechanism: AllocationMechanism) -> AllocationMechanism:
    """Add a mechanism to the registry; rejects duplicate names."""
    if mechanism.name in MECHANISMS:
        raise ValueError(f"mechanism {mechanism.name!r} is already registered")
    MECHANISMS[mechanism.name] = mechanism
    return mechanism


def mechanism_names() -> list[str]:
    """All registered mechanism names, the default first, then sorted."""
    rest = sorted(name for name in MECHANISMS if name != DEFAULT_MECHANISM)
    return ([DEFAULT_MECHANISM] if DEFAULT_MECHANISM in MECHANISMS else []) + rest


def get_mechanism(name: str) -> AllocationMechanism:
    """Look up a mechanism by name; unknown names list what *is* available."""
    try:
        return MECHANISMS[name]
    except KeyError:
        known = ", ".join(mechanism_names())
        raise KeyError(f"unknown mechanism {name!r}; available: {known}") from None


def resolve_mechanisms(selector: str | None) -> list[str]:
    """Expand a CLI mechanism selector into registry names.

    ``None`` means "the default" (market), ``"all"`` means every registered
    mechanism, and anything else is a comma-separated list of names (each
    validated against the registry).

    >>> resolve_mechanisms(None)
    ['market']
    >>> resolve_mechanisms("all") == mechanism_names()
    True
    >>> resolve_mechanisms("market,priority")
    ['market', 'priority']
    """
    if selector is None:
        return [DEFAULT_MECHANISM]
    if selector == "all":
        return mechanism_names()
    names = [part.strip() for part in selector.split(",") if part.strip()]
    if not names:
        raise ValueError("mechanism selector is empty")
    for name in names:
        get_mechanism(name)  # raises with the available list on unknown names
    return names
