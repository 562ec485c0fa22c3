"""Tournament engine tests, culminating in the paper's falling-premium claim.

The acceptance test at the bottom is the headline of the tournament subsystem:
a multi-generation tournament on the paper-reference scenario must show the
mean bid premium *falling* from generation 0 to the final generation with
95%-CI separation — the emergent reproduction of the paper's live finding
that "the median [premium] has decreased significantly over time" (Section
V-C) — and the full tournament report must be byte-identical whether the
generations were evaluated serially or fanned across a process pool.
"""

import json

import numpy as np
import pytest

from repro.agents.tournament import (
    GenerationReport,
    TournamentConfig,
    TournamentEngine,
    apportion_kinds,
    genome_score,
    initial_roster,
    next_generation,
)
from repro.agents.traits import AgentGenome, Traits, clone_genomes, mutate_from_base
from repro.simulation.catalog import (
    get_tournament,
    register_tournament,
    tournament_names,
)
from repro.simulation.runner import ParallelRunner, ScenarioRunResult, run_scenario
from repro.simulation.catalog import get_scenario


class TestApportionKinds:
    def test_exact_quota_split(self):
        assert apportion_kinds({"a": 0.5, "b": 0.3, "c": 0.2}, 10) == {"a": 5, "b": 3, "c": 2}

    def test_counts_always_sum_to_size(self):
        for size in (1, 3, 7, 11, 100):
            counts = apportion_kinds({"x": 1.0, "y": 1.0, "z": 1.0}, size)
            assert sum(counts.values()) == size

    def test_zero_weight_kind_gets_no_seats(self):
        counts = apportion_kinds({"a": 1.0, "b": 0.0}, 5)
        assert "b" not in counts

    def test_pure_function_of_inputs(self):
        a = apportion_kinds({"p": 2.0, "q": 1.0}, 9)
        b = apportion_kinds({"q": 1.0, "p": 2.0}, 9)
        assert a == b

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            apportion_kinds({"a": 1.0}, 0)


class TestNextGeneration:
    def _population(self, seed=2):
        return initial_roster(
            {"lowball": 1.0, "seller": 1.0, "market_tracker": 1.0},
            9,
            np.random.default_rng(seed),
        )

    def test_size_and_ecology_preserved(self):
        pop = self._population()
        scores = {g.name: float(i) for i, g in enumerate(pop)}
        kids = next_generation(pop, scores, np.random.default_rng(1), generation=1)
        assert len(kids) == len(pop)
        count = lambda roster, kind: sum(1 for g in roster if g.kind == kind)
        for kind in ("lowball", "seller", "market_tracker"):
            assert count(kids, kind) == count(pop, kind)

    def test_elites_survive_as_exact_clones(self):
        pop = self._population()
        scores = {g.name: float(i) for i, g in enumerate(pop)}
        kids = next_generation(pop, scores, np.random.default_rng(1), generation=1)
        parent_traits = {g.name: g.traits for g in pop}
        clones = [k for k in kids if k.traits == parent_traits[k.parent]]
        # At least one elite clone per kind survives unchanged.
        assert len({c.kind for c in clones}) == 3

    def test_children_record_lineage(self):
        pop = self._population()
        scores = {g.name: 0.0 for g in pop}
        kids = next_generation(pop, scores, np.random.default_rng(4), generation=3)
        names = {g.name for g in pop}
        assert all(k.generation == 3 for k in kids)
        assert all(k.parent in names for k in kids)
        assert all(k.name.startswith("g3-") for k in kids)

    def test_reproducible_from_seed(self):
        pop = self._population()
        scores = {g.name: float(hash(g.name) % 7) for g in pop}
        a = next_generation(pop, scores, np.random.default_rng(9), generation=1)
        b = next_generation(pop, scores, np.random.default_rng(9), generation=1)
        assert a == b


    def test_clones_and_mutants_cycle_their_parents(self):
        parents = [
            AgentGenome(name="p0", kind="lowball"),
            AgentGenome(name="p1", kind="seller", traits=Traits(aggressiveness=0.9)),
        ]
        names = ["c0", "c1", "c2"]
        clones = clone_genomes(parents, names, generation=2)
        assert [(c.name, c.parent, c.kind, c.generation) for c in clones] == [
            ("c0", "p0", "lowball", 2),
            ("c1", "p1", "seller", 2),
            ("c2", "p0", "lowball", 2),
        ]
        assert [c.traits for c in clones] == [parents[0].traits, parents[1].traits, parents[0].traits]
        kids = mutate_from_base(parents, names, np.random.default_rng(3), generation=2, scale=0.2)
        assert [(k.parent, k.kind) for k in kids] == [(c.parent, c.kind) for c in clones]
        assert all(k.traits != c.traits for k, c in zip(kids, clones))
        assert kids == mutate_from_base(parents, names, np.random.default_rng(3), generation=2, scale=0.2)
        with pytest.raises(ValueError):
            clone_genomes([], ["c"], generation=1)
        with pytest.raises(ValueError):
            mutate_from_base([], ["k"], np.random.default_rng(0), generation=1)


class TestGenerationReport:
    def test_best_genome_kind_means_and_replicate_premiums(self, fake_run_result):
        report = GenerationReport(
            generation=0,
            genomes=(
                AgentGenome(name="b", kind="lowball"),
                AgentGenome(name="a", kind="lowball"),
                AgentGenome(name="c", kind="seller"),
            ),
            scores={"a": 0.5, "b": 0.5, "c": 0.25},
            results=(fake_run_result(seed=0), fake_run_result(seed=1)),
        )
        assert report.best_genome.name == "a"  # a tie goes to the first name
        assert report.kind_mean_scores() == {"lowball": 0.5, "seller": 0.25}
        assert report.mean_premium_per_replicate == [1.35, 1.35]


class TestGenomeScore:
    def test_weighted_formula(self):
        outcome = {"surplus": 500.0, "overcommitment": 250.0, "satisfied_fraction": 1.0}
        assert genome_score(outcome, budget=1000.0) == 0.75

    def test_overcommitment_is_penalised(self):
        base = {"surplus": 100.0, "overcommitment": 0.0, "satisfied_fraction": 0.5}
        greedy = dict(base, overcommitment=400.0)
        assert genome_score(greedy, budget=1000.0) < genome_score(base, budget=1000.0)

    def test_missing_fields_default_to_zero(self):
        assert genome_score({}, budget=1000.0) == 0.0

    def test_canonical_rounding(self):
        outcome = {"surplus": 1.0 / 3.0, "overcommitment": 0.0, "satisfied_fraction": 0.0}
        score = genome_score(outcome, budget=1.0)
        assert score == round(score, 6)


class TestTournamentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TournamentConfig(name="Bad Name", description="d")
        with pytest.raises(ValueError):
            TournamentConfig(name="t", description="d", generations=1)
        with pytest.raises(ValueError):
            TournamentConfig(name="t", description="d", replicates=0)

    def test_catalog_presets_registered(self):
        names = tournament_names()
        assert "paper-tournament" in names
        assert "smoke-tournament" in names
        paper = get_tournament("paper-tournament")
        assert paper.base_scenario == "paper-reference"
        assert paper.generations >= 3

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            register_tournament(get_tournament("smoke-tournament"))


class TestTeamScores:
    def test_roster_runs_carry_team_scores(self):
        cfg = get_tournament("smoke-tournament")
        engine = TournamentEngine(cfg)
        base = engine._base_spec()
        roster = initial_roster(
            dict(base.config.population.strategy_mix),
            base.config.population.team_count,
            np.random.default_rng(base.config.seed),
        )
        spec = engine._generation_specs(base, roster, 0)[0]
        result = run_scenario(spec)
        assert set(result.team_scores) == {g.name for g in roster}
        for outcome in result.team_scores.values():
            assert {"bids", "wins", "surplus", "overcommitment", "satisfied_fraction"} <= set(
                outcome
            )
            assert outcome["wins"] <= outcome["bids"]
            assert 0.0 <= outcome["satisfied_fraction"] <= 1.0

    def test_team_scores_survive_dict_roundtrip(self):
        cfg = get_tournament("smoke-tournament")
        engine = TournamentEngine(cfg)
        base = engine._base_spec()
        roster = initial_roster(
            dict(base.config.population.strategy_mix),
            base.config.population.team_count,
            np.random.default_rng(base.config.seed),
        )
        spec = engine._generation_specs(base, roster, 0)[0]
        result = run_scenario(spec)
        payload = json.loads(json.dumps(result.to_dict()))
        assert ScenarioRunResult.from_dict(payload) == result

    def test_plain_scenarios_report_no_team_scores(self):
        result = run_scenario(get_scenario("smoke").with_overrides(auctions=1))
        assert result.team_scores == {}
        assert "team_scores" not in result.to_dict()


@pytest.fixture(scope="module")
def paper_report():
    """One serial run of the paper tournament, shared by the acceptance tests."""
    return TournamentEngine(
        get_tournament("paper-tournament"), runner=ParallelRunner(workers=1)
    ).run()


class TestPaperTournamentAcceptance:
    """The headline claim: evolving bidders reproduce the falling premiums."""

    def test_premiums_fall_with_ci_separation(self, paper_report):
        trajectory = paper_report.premium_trajectory()
        assert len(trajectory) >= 3
        first, last = trajectory[0], trajectory[-1]
        assert first.ci95 is not None and last.ci95 is not None
        # 95%-CI separation: the final generation's premium interval lies
        # strictly below generation 0's.
        assert last.ci95[1] < first.ci95[0]
        assert last.mean < first.mean
        assert paper_report.premiums_fell

    def test_every_generation_full_provenance(self, paper_report):
        cfg = paper_report.config
        for gen_report in paper_report.generations:
            assert len(gen_report.results) == cfg.replicates
            assert len(gen_report.genomes) == len(paper_report.generations[0].genomes)
            assert set(gen_report.scores) == {g.name for g in gen_report.genomes}
            for result in gen_report.results:
                assert result.scenario == f"{cfg.name}-g{gen_report.generation}"

    def test_byte_identical_across_backends_and_workers(self, paper_report):
        serial_json = paper_report.to_json()
        process_report = TournamentEngine(
            get_tournament("paper-tournament"),
            runner=ParallelRunner(workers=2, backend="process"),
        ).run()
        assert process_report.to_json() == serial_json
