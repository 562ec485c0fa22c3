"""Planet-wide fleet topology: sites, clusters, and inter-site distance.

The paper notes that "geographic location, location of other required
resources or data, network connectivity, or other secondary characteristics
may (or may not) distinguish a particular pool for a particular user".  The
topology captures exactly those secondary characteristics: which site each
cluster lives at and how far apart sites are.  Agents use the distance when
estimating the engineering/relocation cost of moving a workload between
clusters (:mod:`repro.agents.relocation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.cluster.cluster import Cluster


@dataclass(frozen=True)
class Site:
    """A geographic site hosting one or more clusters."""

    name: str
    region: str = "region-0"
    #: Position on an abstract 2-D map used to derive inter-site latencies.
    coordinates: tuple[float, float] = (0.0, 0.0)


@dataclass
class FleetTopology:
    """The planet-wide fleet: sites, clusters, and distances between them."""

    sites: dict[str, Site] = field(default_factory=dict)
    clusters: dict[str, Cluster] = field(default_factory=dict)

    # -- construction ----------------------------------------------------------
    def add_site(self, site: Site) -> None:
        """Register a site (idempotent for identical definitions)."""
        existing = self.sites.get(site.name)
        if existing is not None and existing != site:
            raise ValueError(f"site {site.name} already registered with different attributes")
        self.sites[site.name] = site

    def add_cluster(self, cluster: Cluster) -> None:
        """Register a cluster; its site must already be registered."""
        if cluster.site not in self.sites:
            raise KeyError(f"cluster {cluster.name} references unknown site {cluster.site}")
        if cluster.name in self.clusters:
            raise ValueError(f"cluster {cluster.name} already registered")
        self.clusters[cluster.name] = cluster

    # -- queries ---------------------------------------------------------------
    def cluster(self, name: str) -> Cluster:
        """Look up a cluster by name."""
        return self.clusters[name]

    def site_distance(self, a: str, b: str) -> float:
        """Euclidean distance between two sites on the abstract map."""
        sa, sb = self.sites[a], self.sites[b]
        dx = sa.coordinates[0] - sb.coordinates[0]
        dy = sa.coordinates[1] - sb.coordinates[1]
        return (dx * dx + dy * dy) ** 0.5

    def cluster_distance(self, a: str, b: str) -> float:
        """Distance between the sites of two clusters (0 for same-site clusters)."""
        return self.site_distance(self.clusters[a].site, self.clusters[b].site)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters.values())

    def __len__(self) -> int:
        return len(self.clusters)
