"""Resource types and resource vectors.

The market prices three low-level resource dimensions, matching the paper's
experimental setup ("each resource pool was taken as a cluster / resource type
combination with the latter including CPU, RAM, and disk").  A
:class:`ResourceVector` is a small typed mapping from :class:`ResourceType` to a
float quantity, used for machine shapes, cluster capacities, and service
coverage amounts.

Quantities use abstract but realistic units:

* ``CPU``  — cores (1.0 == one core)
* ``RAM``  — gibibytes
* ``DISK`` — gibibytes
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class ResourceType(str, enum.Enum):
    """A low-level resource dimension priced by the market."""

    CPU = "cpu"
    RAM = "ram"
    DISK = "disk"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Canonical ordering of resource types used throughout the code base.
RESOURCE_TYPES: tuple[ResourceType, ...] = (
    ResourceType.CPU,
    ResourceType.RAM,
    ResourceType.DISK,
)

#: Default per-unit cost (budget dollars) for each resource dimension.  These
#: play the role of the paper's "real, known cost c(r)" and are deliberately
#: not equal: disk is far cheaper per unit than CPU and RAM, which is exactly
#: the situation motivating the increment normalization of Section III-C-2.
DEFAULT_UNIT_COSTS: dict[ResourceType, float] = {
    ResourceType.CPU: 10.0,
    ResourceType.RAM: 2.0,
    ResourceType.DISK: 0.05,
}


@dataclass(frozen=True)
class ResourceVector:
    """An immutable (cpu, ram, disk) quantity triple.

    Describes machine shapes, cluster capacities, and service coverage;
    supports element-wise arithmetic for the coverage computations.
    """

    cpu: float = 0.0
    ram: float = 0.0
    disk: float = 0.0

    # -- accessors ---------------------------------------------------------
    def get(self, rtype: ResourceType) -> float:
        """Return the quantity of ``rtype`` in this vector."""
        if rtype is ResourceType.CPU:
            return self.cpu
        if rtype is ResourceType.RAM:
            return self.ram
        if rtype is ResourceType.DISK:
            return self.disk
        raise KeyError(rtype)

    def as_dict(self) -> dict[ResourceType, float]:
        """Return a plain ``dict`` keyed by :class:`ResourceType`."""
        return {rtype: self.get(rtype) for rtype in RESOURCE_TYPES}

    def __iter__(self) -> Iterator[float]:
        return iter((self.cpu, self.ram, self.disk))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.ram + other.ram, self.disk + other.disk)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.ram - other.ram, self.disk - other.disk)

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(self.cpu * scalar, self.ram * scalar, self.disk * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ResourceVector":
        return ResourceVector(-self.cpu, -self.ram, -self.disk)

    # -- predicates --------------------------------------------------------
    def is_nonnegative(self, *, tol: float = 1e-9) -> bool:
        """True iff all components are >= 0 (within ``tol``)."""
        return self.cpu >= -tol and self.ram >= -tol and self.disk >= -tol

    def is_zero(self, *, tol: float = 1e-12) -> bool:
        """True iff all components are 0 (within ``tol``)."""
        return abs(self.cpu) <= tol and abs(self.ram) <= tol and abs(self.disk) <= tol


def cpu_ram_disk(cpu: float, ram: float, disk: float) -> ResourceVector:
    """Convenience constructor mirroring the canonical resource ordering."""
    return ResourceVector(cpu=cpu, ram=ram, disk=disk)
