"""Synthetic planet-wide fleet generation.

The paper evaluated the market against Google's production fleet (about 34
clusters appear in Figure 6).  We cannot use that fleet, so this module
generates synthetic fleets whose *statistics* match what the reserve-pricing
and auction code needs to see: heterogeneous cluster sizes, a wide spread of
utilization from nearly idle to heavily congested, and per-dimension
imbalance (a cluster can be CPU-bound while its disk sits idle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.pools import PoolIndex, pools_from_topology
from repro.cluster.resources import RESOURCE_TYPES, ResourceType, cpu_ram_disk
from repro.cluster.topology import FleetTopology, Site

#: Machine shapes, drawn uniformly per cluster: CPUs per machine, then RAM
#: and disk per CPU, so clusters differ in their RAM:CPU and disk:CPU ratios.
MACHINE_CPU = (16.0, 64.0)
RAM_PER_CPU = (2.0, 6.0)
DISK_PER_CPU = (50.0, 250.0)

#: Standard deviation of the per-resource jitter around a cluster's base
#: utilization target, so CPU, RAM and disk utilization differ within a
#: cluster.
DIMENSION_JITTER = 0.12


@dataclass(frozen=True)
class FleetSpec:
    """Parameters controlling synthetic fleet generation.

    Machine shapes and the per-dimension utilization jitter are the module
    constants :data:`MACHINE_CPU`, :data:`RAM_PER_CPU`, :data:`DISK_PER_CPU`
    and :data:`DIMENSION_JITTER`; pools are priced at
    :data:`repro.cluster.resources.DEFAULT_UNIT_COSTS`.

    Attributes
    ----------
    cluster_count:
        Number of clusters (the paper's Figure 6 shows 34).
    sites:
        Number of geographic sites; clusters are assigned round-robin.
    machines_range:
        Inclusive range of machines per cluster (log-uniform draw).
    utilization_range:
        Overall spread of target utilizations assigned to clusters.  The
        defaults generate a fleet with both heavily congested (>0.9) and
        nearly idle (<0.2) clusters.
    """

    cluster_count: int = 34
    sites: int = 8
    machines_range: tuple[int, int] = (50, 400)
    utilization_range: tuple[float, float] = (0.10, 0.97)

    def __post_init__(self) -> None:
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        if self.sites < 1:
            raise ValueError("sites must be >= 1")
        lo, hi = self.utilization_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("utilization_range must satisfy 0 <= lo <= hi <= 1")


@dataclass
class SyntheticFleet:
    """A generated fleet: topology and pool index."""

    spec: FleetSpec
    topology: FleetTopology
    pool_index: PoolIndex
    #: Former fixed prices per pool name (what the operator charged before the
    #: market existed); Figure 6 reports settlement prices as a ratio to these.
    fixed_prices: dict[str, float]

    @property
    def clusters(self) -> list[Cluster]:
        return list(self.topology)

    def cluster_names(self) -> list[str]:
        return [cluster.name for cluster in self.topology]


def generate_fleet(
    spec: FleetSpec | None = None,
    *,
    seed: int | np.random.Generator = 0,
) -> SyntheticFleet:
    """Generate a synthetic planet-wide fleet.

    Utilization targets are assigned by evenly spacing clusters across
    ``spec.utilization_range`` and then jittering per resource dimension, so
    every generated fleet contains the full congested-to-idle spectrum the
    paper's evaluation relies on.  Each cluster's load is set to its targets.
    """
    spec = spec or FleetSpec()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    sites = [
        Site(
            name=f"site-{i}",
            region=f"region-{i % 3}",
            coordinates=(float(rng.uniform(-180, 180)), float(rng.uniform(-60, 60))),
        )
        for i in range(spec.sites)
    ]
    topology = FleetTopology()
    for site in sites:
        topology.add_site(site)

    # Evenly spaced utilization targets, shuffled so cluster id does not encode
    # congestion, then jittered per dimension.
    lo, hi = spec.utilization_range
    base_targets = np.linspace(lo, hi, spec.cluster_count)
    rng.shuffle(base_targets)

    log_machines_lo = np.log(spec.machines_range[0])
    log_machines_hi = np.log(spec.machines_range[1])
    for i in range(spec.cluster_count):
        machine_count = int(round(np.exp(rng.uniform(log_machines_lo, log_machines_hi))))
        cpu = float(rng.uniform(*MACHINE_CPU))
        ram = cpu * float(rng.uniform(*RAM_PER_CPU))
        disk = cpu * float(rng.uniform(*DISK_PER_CPU))
        cluster = Cluster.homogeneous(
            f"cluster-{i:02d}",
            machine_count=machine_count,
            machine_capacity=cpu_ram_disk(cpu, ram, disk),
            site=sites[i % spec.sites].name,
        )
        base_target = float(base_targets[i])
        loads: dict[ResourceType, float] = {}
        for rtype in RESOURCE_TYPES:
            jitter = float(rng.normal(0.0, DIMENSION_JITTER))
            loads[rtype] = min(max(base_target + jitter, 0.02), 0.99)
        cluster.set_load(loads)
        topology.add_cluster(cluster)

    pool_index = pools_from_topology(topology)
    # The pre-market fixed price: the operator charged plain cost c(r) per
    # unit regardless of congestion.
    fixed_prices = {pool.name: pool.unit_cost for pool in pool_index}
    return SyntheticFleet(
        spec=spec,
        topology=topology,
        pool_index=pool_index,
        fixed_prices=fixed_prices,
    )


def congested_fleet_spec(
    cluster_count: int = 28,
    *,
    machines_range: tuple[int, int] = (50, 300),
    utilization_range: tuple[float, float] = (0.70, 0.97),
) -> FleetSpec:
    """A fleet where nearly every cluster is congested.

    Used by the ``congested-fleet`` catalog scenario: with no idle clusters to
    migrate into, congestion-weighted reserve prices climb everywhere and the
    market's job becomes rationing rather than migration.

    >>> spec = congested_fleet_spec()
    >>> spec.utilization_range[0] >= 0.7
    True
    """
    return FleetSpec(
        cluster_count=cluster_count,
        machines_range=machines_range,
        utilization_range=utilization_range,
    )


def idle_fleet_spec(
    cluster_count: int = 28,
    *,
    machines_range: tuple[int, int] = (50, 300),
    utilization_range: tuple[float, float] = (0.05, 0.55),
) -> FleetSpec:
    """A fleet with abundant idle capacity.

    Used by the ``idle-fleet-migration`` catalog scenario: discounted reserve
    prices on idle clusters should pull relocating teams out of the few busy
    ones.

    >>> spec = idle_fleet_spec()
    >>> spec.utilization_range[1] <= 0.55
    True
    """
    return FleetSpec(
        cluster_count=cluster_count,
        machines_range=machines_range,
        utilization_range=utilization_range,
    )


def small_fleet(
    cluster_count: int = 4,
    *,
    seed: int = 0,
    utilization_range: tuple[float, float] = (0.2, 0.9),
) -> SyntheticFleet:
    """A small fleet for tests and examples (few clusters, few machines)."""
    spec = FleetSpec(
        cluster_count=cluster_count,
        sites=min(2, cluster_count),
        machines_range=(5, 15),
        utilization_range=utilization_range,
    )
    return generate_fleet(spec, seed=seed)
