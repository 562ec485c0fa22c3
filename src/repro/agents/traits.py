"""Numeric strategy traits: the genome the bidder tournaments evolve.

The seven bidding strategies of :mod:`repro.agents.strategies` were built with
hand-picked parameters.  This module re-expresses every one of those knobs as
a function of four numeric **traits**, so that a whole population of bidders
becomes a vector-valued genome the tournament engine
(:mod:`repro.agents.tournament`) can clone, mutate, and select on:

``aggressiveness``
    How far above the estimated bundle cost the bidder is willing to commit —
    feeds initial margins, premiums, and offer sizes.
``patience``
    How widely the bidder shops before committing — feeds the number of
    alternative clusters quoted, relocation amortisation horizons, and sell
    thresholds.
``budget_discipline``
    How tightly the bidder guards its endowment — feeds margin ceilings,
    reserve discounts, and the budget fraction risked per auction.
``learning_rate``
    How fast the bidder converges on the observed clearing prices — feeds the
    :class:`~repro.agents.learning.AdaptiveMarginModel` decay speed (the
    paper's Section V-C adaptation, dialled per bidder).

All traits live in ``[0, 1]``.  Every strategy kind is registered in
:data:`STRATEGY_BUILDERS`; tests parametrise over :func:`strategy_kinds` so a
newly registered kind is automatically covered by the contract suite.

>>> rng = np.random.default_rng(7)
>>> t = random_traits(rng)
>>> all(0.0 <= v <= 1.0 for v in t.as_dict().values())
True
>>> mutate_traits(t, np.random.default_rng(1), scale=0.2) == mutate_traits(
...     t, np.random.default_rng(1), scale=0.2)
True
>>> sorted(strategy_kinds()) == strategy_kinds()
True
>>> type(strategy_from_traits("market_tracker", t, seed=3)).__name__
'MarketTrackerStrategy'
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from repro.agents.learning import AdaptiveMarginModel
from repro.agents.relocation import RelocationCostModel
from repro.agents.strategies import (
    ArbitrageurStrategy,
    BiddingStrategy,
    FixedPriceAnchorStrategy,
    LowballStrategy,
    MarketTrackerStrategy,
    PremiumPayerStrategy,
    RelocatorStrategy,
    SellerStrategy,
)

#: The trait names, in canonical order.
TRAIT_NAMES: tuple[str, ...] = (
    "aggressiveness",
    "patience",
    "budget_discipline",
    "learning_rate",
)

#: Hard bounds every trait must stay inside (mutation clamps to these).
TRAIT_BOUNDS: dict[str, tuple[float, float]] = {name: (0.0, 1.0) for name in TRAIT_NAMES}


def _lerp(lo: float, hi: float, t: float) -> float:
    """Linear interpolation of ``[lo, hi]`` by ``t`` in [0, 1]."""
    return lo + (hi - lo) * t


@dataclass(frozen=True)
class Traits:
    """One bidder's numeric genome.

    >>> Traits(aggressiveness=0.5).patience
    0.5
    >>> Traits.from_dict({"aggressiveness": 1.0}).aggressiveness
    1.0
    >>> Traits(aggressiveness=2.0)
    Traceback (most recent call last):
    ...
    ValueError: trait 'aggressiveness' = 2.0 outside bounds [0.0, 1.0]
    """

    aggressiveness: float = 0.5
    patience: float = 0.5
    budget_discipline: float = 0.5
    learning_rate: float = 0.5

    def __post_init__(self) -> None:
        for name in TRAIT_NAMES:
            value = getattr(self, name)
            lo, hi = TRAIT_BOUNDS[name]
            if not (lo <= value <= hi):
                raise ValueError(f"trait {name!r} = {value} outside bounds [{lo}, {hi}]")

    def as_dict(self) -> dict[str, float]:
        """The traits as a plain mapping, in canonical order."""
        return {name: float(getattr(self, name)) for name in TRAIT_NAMES}

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "Traits":
        """Build traits from a mapping; absent traits keep their defaults."""
        known = {k: float(v) for k, v in values.items() if k in TRAIT_NAMES}
        unknown = set(values) - set(TRAIT_NAMES)
        if unknown:
            raise KeyError(f"unknown trait(s): {', '.join(sorted(unknown))}")
        return cls(**known)


def random_traits(rng: np.random.Generator) -> Traits:
    """Uniform random traits within bounds (the generation-0 prior).

    >>> random_traits(np.random.default_rng(0)) == random_traits(np.random.default_rng(0))
    True
    """
    values = {}
    for name in TRAIT_NAMES:
        lo, hi = TRAIT_BOUNDS[name]
        values[name] = float(rng.uniform(lo, hi))
    return Traits(**values)


def mutate_traits(traits: Traits, rng: np.random.Generator, *, scale: float = 0.15) -> Traits:
    """Gaussian-perturb every trait, clamped back into :data:`TRAIT_BOUNDS`.

    Deterministic per ``rng`` state: the same seeded generator produces the
    same child, which is what makes tournament generations replayable.

    >>> base = Traits()
    >>> child = mutate_traits(base, np.random.default_rng(5), scale=0.3)
    >>> all(0.0 <= v <= 1.0 for v in child.as_dict().values())
    True
    """
    if scale < 0:
        raise ValueError("mutation scale must be non-negative")
    values = {}
    for name in TRAIT_NAMES:
        lo, hi = TRAIT_BOUNDS[name]
        perturbed = getattr(traits, name) + float(rng.normal(0.0, scale))
        values[name] = float(min(max(perturbed, lo), hi))
    return Traits(**values)


# ---------------------------------------------------------------------------
# Genomes: a named, heritable (kind, traits) pair.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentGenome:
    """One tournament agent: a strategy kind plus its trait vector.

    Genomes are what populations are made of: frozen, picklable, and cheap to
    serialise, so a roster of them can ride a
    :class:`~repro.simulation.catalog.ScenarioSpec` across process and remote
    execution backends unchanged.

    >>> g = AgentGenome(name="g0-market_tracker-000", kind="market_tracker",
    ...                 traits=Traits(aggressiveness=0.8))
    >>> g.generation, g.parent
    (0, None)
    >>> g.as_dict()["traits"]["aggressiveness"]
    0.8
    """

    name: str
    kind: str
    traits: Traits = field(default_factory=Traits)
    generation: int = 0
    parent: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("genome name must be non-empty")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    def as_dict(self) -> dict[str, object]:
        """The canonical report entry for one genome (rounded for JSON)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "generation": self.generation,
            "parent": self.parent,
            "traits": {k: round(v, 6) for k, v in self.traits.as_dict().items()},
        }


def clone_genomes(parents: list[AgentGenome], names: list[str], *, generation: int) -> list[AgentGenome]:
    """Exact copies of ``parents`` under new names (elitism without mutation).

    ``names`` supplies one fresh name per clone; parents cycle when more
    clones than parents are requested.

    >>> base = AgentGenome(name="p", kind="lowball", traits=Traits())
    >>> clones = clone_genomes([base], ["c0", "c1"], generation=1)
    >>> [(c.name, c.parent, c.generation) for c in clones]
    [('c0', 'p', 1), ('c1', 'p', 1)]
    >>> clones[0].traits == base.traits
    True
    """
    if not parents:
        raise ValueError("clone_genomes needs at least one parent")
    return [
        replace(parents[i % len(parents)], name=name, generation=generation,
                parent=parents[i % len(parents)].name)
        for i, name in enumerate(names)
    ]


def mutate_from_base(
    parents: list[AgentGenome],
    names: list[str],
    rng: np.random.Generator,
    *,
    generation: int,
    scale: float = 0.15,
) -> list[AgentGenome]:
    """Mutated children of ``parents``, one per entry of ``names``.

    Parents are cycled in order; each child's traits are the parent's traits
    Gaussian-perturbed by :func:`mutate_traits` within :data:`TRAIT_BOUNDS`.
    Reproducible from ``(rng seed, parents)``.

    >>> base = AgentGenome(name="p", kind="seller", traits=Traits())
    >>> kids = mutate_from_base([base], ["k0", "k1"], np.random.default_rng(3),
    ...                         generation=2, scale=0.2)
    >>> [(k.kind, k.parent, k.generation) for k in kids]
    [('seller', 'p', 2), ('seller', 'p', 2)]
    """
    if not parents:
        raise ValueError("mutate_from_base needs at least one parent")
    children: list[AgentGenome] = []
    for i, name in enumerate(names):
        parent = parents[i % len(parents)]
        children.append(
            replace(
                parent,
                name=name,
                traits=mutate_traits(parent.traits, rng, scale=scale),
                generation=generation,
                parent=parent.name,
            )
        )
    return children


def select_elites(
    genomes: list[AgentGenome],
    scores: Mapping[str, float],
    *,
    fraction: float,
) -> list[AgentGenome]:
    """The top ``fraction`` of ``genomes`` by score (at least one survives).

    Ties break on the genome name so selection is deterministic whatever the
    execution backend produced the scores.

    >>> pop = [AgentGenome(name=n, kind="lowball") for n in ("a", "b", "c", "d")]
    >>> [g.name for g in select_elites(pop, {"a": 1.0, "b": 3.0, "c": 2.0, "d": 0.0},
    ...                                fraction=0.5)]
    ['b', 'c']
    """
    if not genomes:
        raise ValueError("select_elites needs a non-empty population")
    if not (0.0 < fraction <= 1.0):
        raise ValueError("elite fraction must lie in (0, 1]")
    count = max(1, int(round(fraction * len(genomes))))
    ranked = sorted(genomes, key=lambda g: (-scores.get(g.name, float("-inf")), g.name))
    return ranked[:count]


# ---------------------------------------------------------------------------
# The strategy-kind registry: kind name -> trait-driven builder.
# ---------------------------------------------------------------------------

#: Builder signature: ``(traits, rng) -> strategy``.  The rng seeds any noise
#: the strategy uses internally; all structural parameters come from traits.
StrategyBuilder = Callable[[Traits, np.random.Generator], BiddingStrategy]


def _margins(traits: Traits, *, initial_lo: float, initial_hi: float) -> AdaptiveMarginModel:
    """The adaptive margin model a trait vector implies.

    ``aggressiveness`` sets the starting margin, ``learning_rate`` the win
    decay (fast learners jump to the observed clearing price), and
    ``budget_discipline`` bounds how far losses can push the margin back up.
    """
    return AdaptiveMarginModel(
        initial_margin=_lerp(initial_lo, initial_hi, traits.aggressiveness),
        win_decay=1.0 - 0.9 * traits.learning_rate,
        loss_growth=1.0 + _lerp(0.1, 0.8, 1.0 - traits.budget_discipline),
        ceiling=_lerp(0.8, 3.0, 1.0 - traits.budget_discipline),
    )


def _build_fixed_anchor(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return FixedPriceAnchorStrategy(
        margin=_lerp(0.1, 1.5, traits.aggressiveness) * (1.0 - 0.5 * traits.budget_discipline),
        jitter=_lerp(0.05, 0.6, 1.0 - traits.patience),
        rng=rng,
    )


def _build_market_tracker(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return MarketTrackerStrategy(
        margins=_margins(traits, initial_lo=0.05, initial_hi=1.1),
        alternatives=int(round(2 * traits.patience)),
        rng=rng,
    )


def _build_relocator(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return RelocatorStrategy(
        relocation=RelocationCostModel(base_cost=_lerp(20.0, 120.0, 1.0 - traits.patience)),
        candidate_count=2 + int(round(3 * traits.patience)),
        margins=_margins(traits, initial_lo=0.05, initial_hi=0.6),
        amortisation_periods=_lerp(2.0, 8.0, traits.patience),
    )


def _build_premium_payer(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return PremiumPayerStrategy(
        premium=_lerp(0.5, 3.0, traits.aggressiveness) * (1.0 - 0.6 * traits.budget_discipline),
        rng=rng,
    )


def _build_seller(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return SellerStrategy(
        offer_fraction=_lerp(0.4, 0.9, traits.aggressiveness),
        reserve_discount=_lerp(0.7, 0.3, traits.aggressiveness),
        utilization_threshold=_lerp(0.55, 0.85, traits.patience),
    )


def _build_lowball(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return LowballStrategy(
        fraction=_lerp(0.1, 0.6, traits.aggressiveness),
        rng=rng,
    )


def _build_arbitrageur(traits: Traits, rng: np.random.Generator) -> BiddingStrategy:
    return ArbitrageurStrategy(
        buy_budget_fraction=_lerp(0.2, 0.7, 1.0 - traits.budget_discipline),
        sell_markup=_lerp(1.1, 1.6, traits.patience),
        rng=rng,
    )


#: The registry: strategy kind -> trait-driven builder.  The keys are the
#: same kind names :class:`~repro.agents.population.PopulationSpec` mixes use.
STRATEGY_BUILDERS: dict[str, StrategyBuilder] = {
    "fixed_anchor": _build_fixed_anchor,
    "market_tracker": _build_market_tracker,
    "relocator": _build_relocator,
    "premium_payer": _build_premium_payer,
    "seller": _build_seller,
    "lowball": _build_lowball,
    "arbitrageur": _build_arbitrageur,
}

#: Kinds whose agents start with holdings to offer (sellers need inventory).
ENDOWED_KINDS: frozenset[str] = frozenset({"seller", "arbitrageur"})


def strategy_kinds() -> list[str]:
    """Every registered strategy kind, sorted.

    >>> "market_tracker" in strategy_kinds()
    True
    >>> len(strategy_kinds())
    7
    """
    return sorted(STRATEGY_BUILDERS)


def strategy_from_traits(kind: str, traits: Traits, *, seed: int) -> BiddingStrategy:
    """Build one strategy instance from a trait vector.

    ``seed`` pins the strategy's internal noise generator, so the same
    ``(kind, traits, seed)`` triple always produces bit-identical bids.

    >>> a = strategy_from_traits("lowball", Traits(aggressiveness=0.2), seed=11)
    >>> b = strategy_from_traits("lowball", Traits(aggressiveness=0.2), seed=11)
    >>> a.fraction == b.fraction
    True
    """
    try:
        builder = STRATEGY_BUILDERS[kind]
    except KeyError:
        known = ", ".join(strategy_kinds())
        raise KeyError(f"unknown strategy kind {kind!r}; registered: {known}") from None
    return builder(traits, np.random.default_rng(seed))
