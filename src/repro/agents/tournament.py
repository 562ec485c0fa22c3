"""Generational bidder tournaments: evolve strategy traits across auctions.

The paper's live deployment found that bid premiums *fall* across successive
auctions as tenants learn the clearing prices.  A static scripted population
cannot exhibit that; this module makes it an emergent property.  A
**tournament** runs a population of trait-parameterised bidders
(:mod:`repro.agents.traits`) through a full multi-auction economy, scores
every genome on its settled outcomes, and produces the next generation by
clone/mutate/select — so whatever bidding posture wins surplus without
overcommitting capital spreads through the population, and the premium
trajectory across generations reproduces the paper's finding statistically.

Scoring
-------
Each genome's score combines, per replicate run and then averaged:

* **surplus** — value of every won bundle at the *former fixed prices* minus
  the settled payment, normalised by the team budget.  Fixed prices are the
  pre-market willingness-to-pay anchor (Section V), so buying below fixed
  value (or selling above it) is profit and winner's curse is penalised.
* **overcommitment** — the limit committed beyond the settled payment (the
  premium in currency units), also budget-normalised.  The trading platform
  escrows the full limit against the team budget, so an inflated limit is
  locked capital even though the uniform-price settlement never charges it —
  this is the selective pressure that drives premiums down.
* **satisfied fraction** — won bids over submitted bids, so discipline can't
  degenerate into never bidding at all.

Execution
---------
Every generation is a list of ordinary :class:`~repro.simulation.catalog.
ScenarioSpec` jobs (one per replicate seed) fanned across the standard
:class:`~repro.simulation.runner.ParallelRunner` / execution-backend
pipeline, so tournaments parallelise — and persist to the result store —
exactly like sweeps do.  Replicate seeds are *identical across generations*:
every generation faces the same fleets and demand draws, so any premium
shift between generations is attributable to evolution alone.  All selection
happens in the coordinating process on canonically rounded scores, which
makes the full tournament report byte-identical across backends and worker
counts.

>>> cfg = TournamentConfig(name="demo", description="two quick generations",
...                        base_scenario="smoke", generations=2, replicates=2)
>>> cfg.generations
2
>>> roster = initial_roster({"lowball": 1.0, "seller": 1.0}, 4,
...                         np.random.default_rng(0))
>>> [(g.name, g.kind) for g in roster]
[('g0-lowball-000', 'lowball'), ('g0-lowball-001', 'lowball'), ('g0-seller-000', 'seller'), ('g0-seller-001', 'seller')]
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.agents.traits import (
    AgentGenome,
    clone_genomes,
    mutate_from_base,
    random_traits,
    select_elites,
)
from repro.analysis.premium import GenerationPremium, generation_premiums, premiums_fell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.runner import ParallelRunner, ScenarioRunResult

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

#: Canonical rounding for scores (matches the runner's report digit budget).
_DIGITS = 6

#: Fraction of each strategy kind's population surviving as elites.
ELITE_FRACTION = 0.25
#: Std-dev of the Gaussian trait mutation (within trait bounds).
MUTATION_SCALE = 0.15
#: Score weights (see the module docstring's scoring section).
SURPLUS_WEIGHT = 1.0
DISCIPLINE_WEIGHT = 1.0
SATISFIED_WEIGHT = 0.5


@dataclass(frozen=True)
class TournamentConfig:
    """Everything one tournament needs, as a declarative value.

    ``base_scenario`` names the catalog preset supplying the fleet, budgets,
    auction knobs and strategy-kind mix.
    Generation ``g`` runs as scenario ``<name>-g<g>`` so store provenance
    separates generations while replicate seeds key the runs within one.

    >>> cfg = TournamentConfig(name="t", description="d", generations=3)
    >>> cfg.base_scenario
    'paper-reference'
    >>> TournamentConfig(name="Bad Name", description="d")
    Traceback (most recent call last):
    ...
    ValueError: tournament name 'Bad Name' must be kebab-case
    """

    name: str
    description: str
    base_scenario: str = "paper-reference"
    #: How many generations to evolve (generation 0 is the random prior).
    generations: int = 3
    #: Independent seeds each generation is evaluated under (CI sample size).
    replicates: int = 3
    #: Population size; ``None`` uses the base scenario's team count.
    population_size: int | None = None
    #: Auctions per generation run; ``None`` uses the base scenario's length.
    auctions: int | None = None
    #: Root seed for genome creation/mutation *and* the replicate runs;
    #: ``None`` uses the base scenario's seed.
    seed: int | None = None

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"tournament name {self.name!r} must be kebab-case")
        if not self.description.strip():
            raise ValueError(f"tournament {self.name!r} needs a description")
        if self.generations < 2:
            raise ValueError("a tournament needs at least 2 generations")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.population_size is not None and self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.auctions is not None and self.auctions < 1:
            raise ValueError("auctions must be >= 1")

    def summary(self) -> dict[str, object]:
        """The scalar facts the CLI's tournament listing displays."""
        return {
            "name": self.name,
            "base_scenario": self.base_scenario,
            "generations": self.generations,
            "replicates": self.replicates,
            "population_size": self.population_size,
            "auctions": self.auctions,
            "description": self.description,
        }


def apportion_kinds(kind_mix: Mapping[str, float], size: int) -> dict[str, int]:
    """Deterministic seat counts per strategy kind (largest-remainder method).

    Sampling kind counts would make generation 0 depend on rng draw order;
    apportioning them keeps the ecology of a tournament a pure function of
    ``(kind_mix, size)``, whatever the order of its keys: kinds are processed
    in sorted order, the weights are summed exactly (``math.fsum``), and
    remainder seats go to the largest fractional parts (ties to the earlier
    name).

    >>> apportion_kinds({"a": 0.5, "b": 0.3, "c": 0.2}, 10)
    {'a': 5, 'b': 3, 'c': 2}
    >>> sum(apportion_kinds({"a": 1, "b": 1, "c": 1}, 10).values())
    10
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    kinds = sorted(kind_mix)
    total = math.fsum(kind_mix.values())
    quotas = {kind: size * float(kind_mix[kind]) / total for kind in kinds}
    counts = {kind: int(quotas[kind]) for kind in kinds}
    leftover = size - sum(counts.values())
    by_remainder = sorted(kinds, key=lambda k: (-(quotas[k] - counts[k]), k))
    for kind in by_remainder[:leftover]:
        counts[kind] += 1
    return {kind: counts[kind] for kind in kinds if counts[kind] > 0}


def _slot_names(kind: str, count: int, *, generation: int) -> list[str]:
    return [f"g{generation}-{kind}-{i:03d}" for i in range(count)]


def initial_roster(
    kind_mix: Mapping[str, float], size: int, rng: np.random.Generator
) -> list[AgentGenome]:
    """Generation 0: apportioned kinds with uniform-random traits.

    >>> a = initial_roster({"lowball": 1.0}, 2, np.random.default_rng(1))
    >>> b = initial_roster({"lowball": 1.0}, 2, np.random.default_rng(1))
    >>> a == b
    True
    """
    roster: list[AgentGenome] = []
    for kind, count in apportion_kinds(kind_mix, size).items():
        for name in _slot_names(kind, count, generation=0):
            roster.append(AgentGenome(name=name, kind=kind, traits=random_traits(rng)))
    return roster


def next_generation(
    genomes: Sequence[AgentGenome],
    scores: Mapping[str, float],
    rng: np.random.Generator,
    *,
    generation: int,
) -> list[AgentGenome]:
    """Produce generation ``generation`` by stratified clone/mutate/select.

    Selection is *within* each strategy kind: every kind's sub-population
    keeps its size, its elites (the top :data:`ELITE_FRACTION`) survive as
    exact clones, and the remaining
    slots are filled with mutated children of those elites.  Stratifying
    preserves the market's ecology — an all-seller market has nothing to
    clear — while still letting each kind's bidding posture evolve.

    >>> pop = initial_roster({"lowball": 1.0, "seller": 1.0}, 6,
    ...                      np.random.default_rng(2))
    >>> scores = {g.name: float(i) for i, g in enumerate(pop)}
    >>> kids = next_generation(pop, scores, np.random.default_rng(3), generation=1)
    >>> len(kids) == len(pop)
    True
    >>> sorted({k.kind for k in kids})
    ['lowball', 'seller']
    >>> all(k.generation == 1 for k in kids)
    True
    """
    children: list[AgentGenome] = []
    for kind in sorted({g.kind for g in genomes}):
        members = [g for g in genomes if g.kind == kind]
        elites = select_elites(members, scores, fraction=ELITE_FRACTION)
        names = _slot_names(kind, len(members), generation=generation)
        survivors = min(len(elites), len(members))
        children.extend(clone_genomes(elites, names[:survivors], generation=generation))
        if len(members) > survivors:
            children.extend(
                mutate_from_base(
                    elites,
                    names[survivors:],
                    rng,
                    generation=generation,
                    scale=MUTATION_SCALE,
                )
            )
    return children


def genome_score(
    outcome: Mapping[str, float],
    *,
    budget: float,
) -> float:
    """One genome's fitness from one run's per-team outcome record.

    ``outcome`` is an entry of
    :attr:`repro.simulation.runner.ScenarioRunResult.team_scores`.  Surplus
    and overcommitment are normalised by the team budget so the score is
    scale-free; the result is canonically rounded so selection on it is
    backend-independent.

    >>> genome_score({"surplus": 500.0, "overcommitment": 250.0,
    ...               "satisfied_fraction": 1.0}, budget=1000.0)
    0.75
    """
    scale = max(float(budget), 1.0)
    raw = (
        SURPLUS_WEIGHT * float(outcome.get("surplus", 0.0))
        - DISCIPLINE_WEIGHT * float(outcome.get("overcommitment", 0.0))
    ) / scale + SATISFIED_WEIGHT * float(outcome.get("satisfied_fraction", 0.0))
    return round(raw, _DIGITS)


@dataclass(frozen=True)
class GenerationReport:
    """One generation's full record: genomes, scores, and replicate runs."""

    generation: int
    genomes: tuple[AgentGenome, ...]
    #: Genome name -> mean score across replicates (canonically rounded).
    scores: dict[str, float]
    #: The replicate runs, in seed order (full provenance incl. team_scores).
    results: tuple["ScenarioRunResult", ...]

    @property
    def mean_premium_per_replicate(self) -> list[float]:
        """Run-mean bid premium of each replicate (the CI sample)."""
        return [
            round(float(np.mean(result.mean_premium)), _DIGITS)
            for result in self.results
        ]

    @property
    def best_genome(self) -> AgentGenome:
        """The highest-scoring genome (name-tiebroken, like selection)."""
        return min(self.genomes, key=lambda g: (-self.scores[g.name], g.name))

    def kind_mean_scores(self) -> dict[str, float]:
        """Mean score per strategy kind (which postures are winning)."""
        by_kind: dict[str, list[float]] = {}
        for genome in self.genomes:
            by_kind.setdefault(genome.kind, []).append(self.scores[genome.name])
        return {
            kind: round(float(np.mean(values)), _DIGITS)
            for kind, values in sorted(by_kind.items())
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "generation": self.generation,
            "genomes": [g.as_dict() for g in self.genomes],
            "scores": dict(sorted(self.scores.items())),
            "kind_mean_scores": self.kind_mean_scores(),
            "mean_premium_per_replicate": self.mean_premium_per_replicate,
            "runs": [r.to_dict() for r in self.results],
        }


@dataclass(frozen=True)
class TournamentReport:
    """The full record of one tournament: every generation, plus the verdict.

    ``to_json()`` follows the runner's canonical-report contract: sorted
    keys, fixed rounding, no timings — the same tournament serialises to the
    same bytes whatever backend or worker count evaluated the generations.
    """

    config: TournamentConfig
    generations: tuple[GenerationReport, ...]

    def premium_trajectory(self) -> list[GenerationPremium]:
        """Mean premium and 95% CI per generation (the headline series)."""
        return generation_premiums(
            [g.mean_premium_per_replicate for g in self.generations]
        )

    @property
    def premiums_fell(self) -> bool:
        """The paper's live finding: premiums fell CI-separated gen 0 -> N."""
        return premiums_fell(self.premium_trajectory())

    def to_dict(self) -> dict[str, object]:
        return {
            "tournament": self.config.summary(),
            "premium_trajectory": [r.as_row() for r in self.premium_trajectory()],
            "premiums_fell": self.premiums_fell,
            "generations": [g.to_dict() for g in self.generations],
        }

    def to_json(self) -> str:
        """Canonical JSON (the byte-identity artifact tests compare)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class TournamentEngine:
    """Run a tournament: evaluate, score, select, repeat.

    ``runner`` is any :class:`~repro.simulation.runner.ParallelRunner`
    (default: serial) — each generation's replicate runs are fanned across
    its backend.  ``store`` persists every run under scenario
    ``<name>-g<generation>`` for longitudinal queries, exactly like sweeps.
    """

    def __init__(
        self,
        config: TournamentConfig,
        *,
        runner: "ParallelRunner | None" = None,
        store=None,
        code_version: str | None = None,
    ):
        self.config = config
        self.runner = runner
        self.store = store
        self.code_version = code_version

    def _base_spec(self):
        from repro.simulation.catalog import get_scenario

        return get_scenario(self.config.base_scenario)

    def _generation_specs(self, base, roster: Sequence[AgentGenome], generation: int):
        """The replicate job list evaluating one generation's roster."""
        from dataclasses import replace

        cfg = self.config
        population = replace(
            base.config.population, team_count=len(roster), roster=tuple(roster)
        )
        spec = replace(
            base,
            name=f"{cfg.name}-g{generation}",
            description=f"{cfg.name} generation {generation} ({base.name})",
            config=replace(base.config, population=population),
            auctions=base.auctions if cfg.auctions is None else cfg.auctions,
        )
        seed = base.config.seed if cfg.seed is None else cfg.seed
        # Identical replicate seeds every generation: same fleets, same demand
        # draws — premium shifts between generations are evolution alone.
        return [spec.with_overrides(seed=seed + r) for r in range(cfg.replicates)]

    def _score_roster(
        self, roster: Sequence[AgentGenome], results: Sequence["ScenarioRunResult"], budget: float
    ) -> dict[str, float]:
        scores: dict[str, float] = {}
        for genome in roster:
            per_replicate = [
                genome_score(result.team_scores[genome.name], budget=budget) for result in results
            ]
            scores[genome.name] = round(float(np.mean(per_replicate)), _DIGITS)
        return scores

    def run(
        self, *, on_generation: Callable[[GenerationReport], None] | None = None
    ) -> TournamentReport:
        """Evolve the population through every generation and report.

        ``on_generation`` fires once per finished generation (for streaming
        CLI progress); the returned report holds them all.
        """
        from repro.simulation.runner import ParallelRunner

        cfg = self.config
        runner = self.runner if self.runner is not None else ParallelRunner(workers=1)
        base = self._base_spec()
        size = (
            base.config.population.team_count
            if cfg.population_size is None
            else cfg.population_size
        )
        seed = base.config.seed if cfg.seed is None else cfg.seed
        # One generator drives genome creation and every mutation, consumed in
        # a fixed order in this process only — workers never touch it.
        rng = np.random.default_rng(seed)
        roster = initial_roster(base.config.population.strategy_mix, size, rng)

        reports: list[GenerationReport] = []
        for generation in range(cfg.generations):
            specs = self._generation_specs(base, roster, generation)
            sweep = runner.run_specs(
                specs, store=self.store, code_version=self.code_version
            )
            scores = self._score_roster(
                roster, sweep.results, base.config.population.budget_per_team
            )
            report = GenerationReport(
                generation=generation,
                genomes=tuple(roster),
                scores=scores,
                results=sweep.results,
            )
            reports.append(report)
            if on_generation is not None:
                on_generation(report)
            if generation + 1 < cfg.generations:
                roster = next_generation(roster, scores, rng, generation=generation + 1)
        return TournamentReport(config=cfg, generations=tuple(reports))
