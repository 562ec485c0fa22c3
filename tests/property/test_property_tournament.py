"""Property-based tests (hypothesis) for the tournament evolution machinery.

The tournament's reproducibility story rests on three invariants this module
pins down over randomly generated genomes rather than hand-picked examples:

* mutation never escapes the trait bounds, whatever the base traits, seed, or
  mutation scale;
* one clone/mutate/select step is a pure function of ``(seed, population,
  scores)`` — replaying it from the same seed reproduces the same children,
  with sizes and ecology preserved;
* the generation reports a tournament emits are byte-identical across
  execution backends and worker counts (checked end-to-end on a small
  tournament, serial vs process pools of different sizes).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agents.tournament import (
    TournamentConfig,
    TournamentEngine,
    apportion_kinds,
    initial_roster,
    next_generation,
)
from repro.agents.traits import (
    TRAIT_BOUNDS,
    TRAIT_NAMES,
    Traits,
    mutate_traits,
    select_elites,
)
from repro.simulation.runner import ParallelRunner

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

trait_vectors = st.builds(
    Traits,
    aggressiveness=unit,
    patience=unit,
    budget_discipline=unit,
    learning_rate=unit,
)


@given(traits=trait_vectors, seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 5.0))
def test_mutation_never_escapes_bounds(traits, seed, scale):
    child = mutate_traits(traits, np.random.default_rng(seed), scale=scale)
    for name in TRAIT_NAMES:
        lo, hi = TRAIT_BOUNDS[name]
        assert lo <= getattr(child, name) <= hi


@given(traits=trait_vectors, seed=st.integers(0, 2**32 - 1))
def test_mutation_reproducible_from_seed(traits, seed):
    a = mutate_traits(traits, np.random.default_rng(seed))
    b = mutate_traits(traits, np.random.default_rng(seed))
    assert a == b


@given(
    weights=st.dictionaries(
        st.sampled_from(["lowball", "seller", "market_tracker", "premium_payer"]),
        st.floats(min_value=0.1, max_value=10.0),
        min_size=1,
        max_size=4,
    ),
    size=st.integers(min_value=1, max_value=60),
)
# Summed in insertion order, these weights total 0.8 one way and
# 0.7999999999999999 the other, which moves a seat.
@example(weights={"lowball": 0.1, "seller": 0.1, "market_tracker": 0.1, "premium_payer": 0.5}, size=10)
def test_apportionment_sums_and_is_deterministic(weights, size):
    counts = apportion_kinds(weights, size)
    assert sum(counts.values()) == size
    assert all(c > 0 for c in counts.values())
    assert counts == apportion_kinds(dict(reversed(list(weights.items()))), size)


@given(
    seed=st.integers(0, 2**32 - 1),
    gen_seed=st.integers(0, 2**32 - 1),
    size=st.integers(min_value=2, max_value=24),
)
@settings(max_examples=40)
def test_generation_step_reproducible_from_seed(seed, gen_seed, size):
    """Clone/mutate/select replays exactly from (seed, base population)."""
    mix = {"lowball": 1.0, "seller": 1.0}
    pop = initial_roster(mix, size, np.random.default_rng(seed))
    assert pop == initial_roster(mix, size, np.random.default_rng(seed))
    scores = {g.name: float((i * 7) % 5) for i, g in enumerate(pop)}
    a = next_generation(pop, scores, np.random.default_rng(gen_seed), generation=1)
    b = next_generation(pop, scores, np.random.default_rng(gen_seed), generation=1)
    assert a == b
    assert len(a) == len(pop)
    assert {g.kind for g in a} == {g.kind for g in pop}
    for child in a:
        for name in TRAIT_NAMES:
            lo, hi = TRAIT_BOUNDS[name]
            assert lo <= getattr(child.traits, name) <= hi


@given(
    scores=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=12),
    fraction=st.floats(min_value=0.05, max_value=1.0),
)
def test_selection_is_deterministic_and_bounded(scores, fraction):
    pop = [Traits() for _ in scores]
    from repro.agents.traits import AgentGenome

    genomes = [
        AgentGenome(name=f"g-{i:02d}", kind="lowball", traits=t)
        for i, t in enumerate(pop)
    ]
    table = {g.name: s for g, s in zip(genomes, scores)}
    elites = select_elites(genomes, table, fraction=fraction)
    assert 1 <= len(elites) <= len(genomes)
    assert elites == select_elites(list(reversed(genomes)), table, fraction=fraction)
    floor = min(table[g.name] for g in elites)
    outside = [table[g.name] for g in genomes if g not in elites]
    assert all(s <= floor for s in outside)


def test_generation_reports_byte_identical_across_workers_and_backends():
    """End-to-end: the same tournament serialises to the same bytes whether
    its generations ran serially or on process pools of different sizes."""
    cfg = TournamentConfig(
        name="prop-tournament",
        description="byte-identity probe",
        base_scenario="smoke",
        generations=2,
        replicates=2,
    )
    reports = [
        TournamentEngine(cfg, runner=runner).run().to_json()
        for runner in (
            ParallelRunner(workers=1),
            ParallelRunner(workers=2, backend="process"),
            ParallelRunner(workers=4, backend="process"),
        )
    ]
    assert reports[0] == reports[1] == reports[2]
