"""A cluster: a named capacity at one site and the load it carries."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.resources import ResourceType, ResourceVector, cpu_ram_disk

#: The machine shape of a cluster built without one.
DEFAULT_MACHINE_CAPACITY = cpu_ram_disk(32.0, 128.0, 4000.0)


@dataclass
class Cluster:
    """One cluster in the planet-wide fleet: its capacity and its load.

    The market's resource pools are (cluster, resource-type) pairs, so this
    record is the source of truth for each pool's capacity and pre-auction
    utilization ``psi(r)``.  The market provisions quota rather than placing
    jobs, so a cluster is ``machine_count`` machines of one shape plus the
    fraction of each resource type in use.

    >>> cluster = Cluster.homogeneous(
    ...     "c0", machine_count=4, machine_capacity=cpu_ram_disk(16.0, 64.0, 1000.0)
    ... )
    >>> cluster.capacity
    ResourceVector(cpu=64.0, ram=256.0, disk=4000.0)
    >>> cluster.set_load({ResourceType.CPU: 0.25, ResourceType.RAM: 1.5})
    >>> cluster.load[ResourceType.RAM]
    1.0
    >>> [cluster.utilization(rtype) for rtype in ResourceType]
    [0.25, 1.0, 0.0]
    """

    name: str
    site: str = "site-0"
    machine_count: int = 0
    machine_capacity: ResourceVector = DEFAULT_MACHINE_CAPACITY
    #: Fraction in [0, 1] of each resource type in use; a missing type is idle.
    load: dict[ResourceType, float] = field(default_factory=dict, init=False)
    #: Total capacity, fixed when the cluster is built.
    capacity: ResourceVector = field(init=False)

    def __post_init__(self) -> None:
        if self.machine_count < 0:
            raise ValueError("machine_count must be non-negative")
        if not self.machine_capacity.is_nonnegative():
            raise ValueError(f"machine capacity must be non-negative, got {self.machine_capacity}")
        # Add the machines one at a time from 0.0: ``machine_count *
        # machine_capacity`` rounds differently in most generated clusters,
        # and every pool capacity (and so every report) would move.
        cpu = ram = disk = 0.0
        shape = self.machine_capacity
        for _ in range(self.machine_count):
            cpu += shape.cpu
            ram += shape.ram
            disk += shape.disk
        self.capacity = ResourceVector(cpu=cpu, ram=ram, disk=disk)

    @staticmethod
    def homogeneous(
        name: str,
        *,
        machine_count: int,
        machine_capacity: ResourceVector | None = None,
        site: str = "site-0",
    ) -> "Cluster":
        """Build a cluster of ``machine_count`` machines of one shape."""
        return Cluster(name, site, machine_count, machine_capacity or DEFAULT_MACHINE_CAPACITY)

    def set_load(self, loads: dict[ResourceType, float]) -> None:
        """Set the fraction in use of each resource type (clamped to [0, 1])."""
        self.load = {rtype: min(1.0, max(0.0, frac)) for rtype, frac in loads.items()}

    def utilization(self, rtype: ResourceType) -> float:
        """Utilization fraction in [0, 1] of one resource dimension."""
        cap = self.capacity.get(rtype)
        if cap <= 0.0:
            return 0.0
        # The used amount over capacity, not the load itself: the round trip
        # rounds differently for some loads, and pool utilizations keep
        # their bits.
        return min(1.0, max(0.0, (cap * self.load.get(rtype, 0.0)) / cap))
