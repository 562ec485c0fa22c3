"""``build_population`` against the ``Generator.choice`` loop it replaced, draw for draw.

A build derives each weighted pick's CDF once and draws it with
``cdf.searchsorted(rng.random(), side="right")``, and the service pick with
``rng.integers(0, n)``.  The reference below is the earlier loop, which called
``Generator.choice`` for every pick.  Both must build the same population
from the same stream and leave the stream in the same state, so a NumPy whose
``choice`` draws differently fails here, not in a golden digest.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.agents.base import DemandProfile, TeamAgent
from repro.agents.population import PopulationSpec, _make_strategy, build_population
from repro.agents.traits import (
    ENDOWED_KINDS,
    AgentGenome,
    random_traits,
    strategy_from_traits,
    strategy_kinds,
)
from repro.cluster.fleet_gen import FleetSpec, generate_fleet
from repro.market.services import ServiceRequest, default_catalog

SPEC_SEEDS = range(20)


# -- reference: the earlier loop, one Generator.choice call per pick ------------------------


def reference_population(fleet, spec, catalog, rng):
    clusters = fleet.cluster_names()
    cpu_utils = np.array(
        [fleet.pool_index.pool(f"{c}/cpu").utilization for c in clusters], dtype=float
    )
    weights = spec.congested_home_bias * cpu_utils + (1 - spec.congested_home_bias)
    weights = weights / weights.sum()

    services = catalog.names()

    def draw_demand(home):
        home_cpu_capacity = fleet.pool_index.pool(f"{home}/cpu").capacity
        request_count = int(rng.integers(1, 3))
        requests = []
        for _ in range(request_count):
            service = str(rng.choice(services))
            coverage_cpu = catalog.spec(service).coverage.cpu
            target_cpu = home_cpu_capacity * spec.demand_scale * float(rng.lognormal(0.0, 0.6))
            quantity = max(target_cpu / max(coverage_cpu, 1e-6), 1.0)
            requests.append(ServiceRequest(service=service, cluster=home, quantity=quantity))
        return DemandProfile(
            home_cluster=home,
            requests=requests,
            growth_rate=float(rng.uniform(0.0, 0.10)),
            mobile=bool(rng.random() < 0.75),
        )

    agents = []
    if spec.roster is not None:
        for genome in spec.roster:
            home = str(rng.choice(clusters, p=weights))
            demand = draw_demand(home)
            strategy_seed = int(rng.integers(0, 2**31 - 1))
            agent = TeamAgent(
                name=genome.name,
                demand=demand,
                strategy=strategy_from_traits(genome.kind, genome.traits, seed=strategy_seed),
                catalog=catalog,
                budget=spec.budget_per_team,
            )
            if genome.kind in ENDOWED_KINDS:
                agent.holdings = demand.covering_bundle(catalog, fleet.pool_index, home)
            agents.append(agent)
        return agents

    kinds = list(spec.strategy_mix)
    kind_weights = np.array([spec.strategy_mix[k] for k in kinds], dtype=float)
    kind_weights = kind_weights / kind_weights.sum()
    for i in range(spec.team_count):
        home = str(rng.choice(clusters, p=weights))
        kind = str(rng.choice(kinds, p=kind_weights))
        demand = draw_demand(home)
        agent = TeamAgent(
            name=f"team-{i:03d}",
            demand=demand,
            strategy=_make_strategy(kind, rng),
            catalog=catalog,
            budget=spec.budget_per_team,
        )
        if kind in ("seller", "arbitrageur"):
            agent.holdings = demand.covering_bundle(catalog, fleet.pool_index, home)
        agents.append(agent)
    return agents


# -- what must match -------------------------------------------------------------------------


def facts(value):
    """A comparable record of ``value``: floats by ``float.hex``, generators by state."""
    if isinstance(value, np.random.Generator):
        return ("Generator", value.bit_generator.state)
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple((f.name, facts(getattr(value, f.name))) for f in dataclasses.fields(value)),
        )
    if isinstance(value, dict):
        return tuple((key, facts(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(facts(item) for item in value)
    if isinstance(value, float):
        return float.hex(value)
    assert isinstance(value, (str, int, bool)), type(value)
    return value


def agent_facts(agent):
    demand = agent.demand
    return (
        agent.name,
        demand.home_cluster,
        type(agent.strategy).__name__,
        tuple(
            (req.service, req.cluster, float.hex(req.quantity)) for req in demand.requests
        ),
        float.hex(demand.growth_rate),
        demand.mobile,
        facts(agent.strategy),
        facts(agent.holdings),
        float.hex(agent.budget),
    )


def random_case(seed, *, roster):
    """A seeded random fleet and population spec: 1-40 clusters, 1-300 teams."""
    draw = np.random.default_rng(seed)
    cluster_count = int(draw.integers(1, 41))
    fleet = generate_fleet(
        FleetSpec(cluster_count=cluster_count, sites=int(draw.integers(1, 9))),
        seed=int(draw.integers(0, 2**31 - 1)),
    )
    team_count = int(draw.integers(1, 301))
    kinds = [str(kind) for kind in draw.permutation(strategy_kinds())]
    weights = draw.random(len(kinds))
    weights[draw.random(len(kinds)) < 0.4] = 0.0
    weights[int(draw.integers(0, len(kinds)))] += 0.05
    genomes = None
    if roster:
        genomes = tuple(
            AgentGenome(name=f"g-{i:03d}", kind=kinds[i % len(kinds)], traits=random_traits(draw))
            for i in range(team_count)
        )
    spec = PopulationSpec(
        team_count=team_count,
        budget_per_team=float(draw.uniform(0.0, 1e5)),
        demand_scale=float(draw.uniform(0.001, 0.05)),
        congested_home_bias=float(draw.uniform(0.0, 1.0)),
        strategy_mix=dict(zip(kinds, weights.tolist())),
        roster=genomes,
    )
    return fleet, spec, int(draw.integers(0, 2**31 - 1))


@pytest.mark.parametrize("roster", [False, True], ids=["sampled", "roster"])
@pytest.mark.parametrize("seed", SPEC_SEEDS)
def test_population_matches_the_choice_loop(seed, roster):
    fleet, spec, population_seed = random_case(seed, roster=roster)
    catalog = default_catalog()
    reference_rng = np.random.default_rng(population_seed)
    rng = np.random.default_rng(population_seed)

    expected = reference_population(fleet, spec, catalog, reference_rng)
    agents = build_population(fleet, spec, catalog=catalog, seed=rng)

    assert [agent_facts(a) for a in agents] == [agent_facts(a) for a in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_cases_cover_every_kind_and_zero_weights():
    # The comparison above is only as wide as its cases.
    sampled_kinds, roster_kinds, zero_weights = set(), set(), 0
    for seed in SPEC_SEEDS:
        _, spec, _ = random_case(seed, roster=False)
        sampled_kinds |= {kind for kind, weight in spec.strategy_mix.items() if weight > 0}
        zero_weights += sum(weight == 0 for weight in spec.strategy_mix.values())
        _, spec, _ = random_case(seed, roster=True)
        roster_kinds |= {genome.kind for genome in spec.roster}
    assert sampled_kinds == roster_kinds == set(strategy_kinds())
    assert zero_weights > 0
