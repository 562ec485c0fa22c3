"""Planet-wide cluster substrate.

This package models the substrate underneath the resource market: clusters at
geographically distributed sites, each a capacity (a machine count times a
machine shape) carrying a load, and the per-pool utilization statistics that
feed the congestion-weighted reserve pricing of the auction
(:mod:`repro.core.reserve`).  The market provisions quota rather than making
scheduling decisions, so nothing here places jobs on machines.

The paper's experiments ran against Google's production clusters; here the
substrate is synthetic but exposes the same interface the market needs:

* **resource pools** — a (cluster, resource-type) pair such as ``"cluster-07/cpu"``
  with a total capacity, a unit cost, and a current utilization percentile;
* **fleet generation** — builders for heterogeneous planet-wide fleets with a
  controllable utilization spread (congested vs. idle clusters).
"""

from repro.cluster.resources import (
    ResourceType,
    ResourceVector,
    RESOURCE_TYPES,
    cpu_ram_disk,
)
from repro.cluster.cluster import Cluster
from repro.cluster.topology import Site, FleetTopology
from repro.cluster.pools import ResourcePool, PoolIndex
from repro.cluster.utilization import UtilizationSnapshot
from repro.cluster.fleet_gen import FleetSpec, SyntheticFleet, generate_fleet

__all__ = [
    "ResourceType",
    "ResourceVector",
    "RESOURCE_TYPES",
    "cpu_ram_disk",
    "Cluster",
    "Site",
    "FleetTopology",
    "ResourcePool",
    "PoolIndex",
    "UtilizationSnapshot",
    "FleetSpec",
    "SyntheticFleet",
    "generate_fleet",
]
