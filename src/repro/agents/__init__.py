"""Engineering-team agents: the simulated market participants.

The paper's participants were real engineering teams; this package provides
scripted agents reproducing the behavioural patterns reported in Section V:

* teams anchoring their limit prices to the former fixed prices in early
  auctions and to market prices later (Table I's shrinking bid premium);
* teams in congested clusters selling their quota at the higher prices and
  relocating to cheaper clusters;
* teams willing to pay a large premium to keep growing in a congested cluster
  because relocation has a real engineering cost (Figure 7's outliers);
* low-ball bidders counting on excess supply;
* arbitrageurs exploiting price differentials across auctions.
"""

from repro.agents.relocation import RelocationCostModel
from repro.agents.base import MarketView, TeamAgent, DemandProfile
from repro.agents.strategies import (
    BiddingStrategy,
    FixedPriceAnchorStrategy,
    MarketTrackerStrategy,
    LowballStrategy,
    PremiumPayerStrategy,
    RelocatorStrategy,
    SellerStrategy,
    ArbitrageurStrategy,
)
from repro.agents.learning import AdaptiveMarginModel
from repro.agents.population import PopulationSpec, build_population
from repro.agents.traits import (
    TRAIT_BOUNDS,
    TRAIT_NAMES,
    AgentGenome,
    Traits,
    clone_genomes,
    mutate_from_base,
    mutate_traits,
    random_traits,
    select_elites,
    strategy_from_traits,
    strategy_kinds,
)
from repro.agents.tournament import (
    GenerationReport,
    TournamentConfig,
    TournamentEngine,
    TournamentReport,
    genome_score,
    initial_roster,
    next_generation,
)

__all__ = [
    "RelocationCostModel",
    "MarketView",
    "TeamAgent",
    "DemandProfile",
    "BiddingStrategy",
    "FixedPriceAnchorStrategy",
    "MarketTrackerStrategy",
    "LowballStrategy",
    "PremiumPayerStrategy",
    "RelocatorStrategy",
    "SellerStrategy",
    "ArbitrageurStrategy",
    "AdaptiveMarginModel",
    "PopulationSpec",
    "build_population",
    "TRAIT_BOUNDS",
    "TRAIT_NAMES",
    "AgentGenome",
    "Traits",
    "clone_genomes",
    "mutate_from_base",
    "mutate_traits",
    "random_traits",
    "select_elites",
    "strategy_from_traits",
    "strategy_kinds",
    "GenerationReport",
    "TournamentConfig",
    "TournamentEngine",
    "TournamentReport",
    "genome_score",
    "initial_roster",
    "next_generation",
]
