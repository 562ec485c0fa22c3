"""Service catalog: translating high-level service requests into resource bundles.

The paper's bid entry is a two-step process: "users first enter requirements
in terms of desired cluster resources (such as GFS or Bigtable resources)";
the platform then "displays the covering amount of CPU, RAM, and disk and the
current market prices for those components" before the user enters a limit
price (Figure 4).  The service catalog holds the per-unit covering vectors for
each service type and performs that translation.

The shipped :func:`default_catalog` contains synthetic-but-plausible service
shapes (a GFS-like file service, a Bigtable-like structured store, batch
compute, and a serving stack); the real coverage factors are proprietary, but
any positive covering vectors exercise the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.cluster.resources import RESOURCE_TYPES, ResourceVector, cpu_ram_disk


@dataclass(frozen=True)
class ServiceSpec:
    """One service type and the raw resources that cover one unit of it.

    ``unit`` documents what "one unit" means (e.g. 1 TiB of GFS storage, 1 QPS
    of serving capacity); ``coverage`` is the CPU/RAM/disk needed per unit,
    including the service's own replication and overhead factors.
    """

    name: str
    unit: str
    coverage: ResourceVector
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service name must be non-empty")
        for per_unit in self.coverage:
            if not math.isfinite(per_unit):
                raise ValueError(f"service {self.name!r} coverage must be finite, got {per_unit!r}")
        if not self.coverage.is_nonnegative() or self.coverage.is_zero():
            raise ValueError("service coverage must be non-negative and non-zero")

    def covering_amount(self, quantity: float) -> ResourceVector:
        """Raw resources covering ``quantity`` units of this service."""
        if quantity < 0:
            raise ValueError("service quantity must be non-negative")
        return self.coverage * quantity


@dataclass(frozen=True)
class ServiceRequest:
    """A team's high-level requirement: ``quantity`` units of ``service`` in ``cluster``."""

    service: str
    cluster: str
    quantity: float

    def __post_init__(self) -> None:
        _check_quantity(self.quantity)


def _check_quantity(quantity: float) -> None:
    # ``nan <= 0`` is False and ``inf`` is positive: test finiteness explicitly.
    if not (math.isfinite(quantity) and quantity > 0):
        raise ValueError(f"service request quantity must be finite and > 0, got {quantity!r}")


class ServiceCatalog:
    """The set of service types teams can request resources for."""

    def __init__(self, specs: Mapping[str, ServiceSpec] | None = None):
        self._specs: dict[str, ServiceSpec] = dict(specs or {})
        #: Each service's per-unit coverage, one float per resource position.
        self._coverages: dict[str, tuple[float, ...]] = {
            name: tuple(spec.coverage) for name, spec in self._specs.items()
        }

    def register(self, spec: ServiceSpec) -> None:
        """Add or replace a service type."""
        self._specs[spec.name] = spec
        self._coverages[spec.name] = tuple(spec.coverage)

    def spec(self, name: str) -> ServiceSpec:
        """Look up a service type."""
        try:
            return self._specs[name]
        except KeyError as exc:
            raise KeyError(f"unknown service {name!r}; known: {sorted(self._specs)}") from exc

    def names(self) -> list[str]:
        """All registered service names."""
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    # -- the two-step bid entry translation --------------------------------------------
    def covering_amounts(self, requests: Iterable[ServiceRequest]) -> list[tuple[int, float]]:
        """Step 1 of bid entry: the covering amount of each resource type a team needs.

        Returns ``(resource position, amount)`` pairs, a position indexing
        ``RESOURCE_TYPES``, in the order the positions first appear.  Each
        amount is ``0.0 + a1 + a2 + ...`` in request order, where a request's
        ``a`` is the service's per-unit coverage times its quantity; an ``a``
        that is not ``> 0`` is left out.  An amount that overflows to ``inf``
        raises ``ValueError`` naming its resource.  The requests' clusters are
        not read: :meth:`~repro.cluster.pools.PoolIndex.place` places the
        amounts at a cluster's pool columns.

        Examples
        --------
        >>> catalog = ServiceCatalog()
        >>> catalog.register(ServiceSpec("cache", "GiB cached", cpu_ram_disk(0.5, 1.0, 0.0)))
        >>> catalog.register(ServiceSpec("archive", "TiB", cpu_ram_disk(0.0, 2.0, 1024.0)))
        >>> catalog.covering_amounts([ServiceRequest("archive", "a", 1.0), ServiceRequest("cache", "a", 8.0)])
        [(1, 10.0), (2, 1024.0), (0, 4.0)]
        """
        totals: dict[int, float] = {}
        for request in requests:
            quantity = request.quantity
            _check_quantity(quantity)
            coverage = self._coverages.get(request.service)
            if coverage is None:
                self.spec(request.service)  # raises the unknown-service KeyError
            for position, per_unit in enumerate(coverage):
                amount = per_unit * quantity
                if amount > 0:
                    totals[position] = totals.get(position, 0.0) + amount
        amounts = list(totals.items())
        for position, total in amounts:
            if not math.isfinite(total):
                raise ValueError(
                    f"covering amount of {RESOURCE_TYPES[position].value} must be finite, got {total!r}"
                )
        return amounts


def default_catalog() -> ServiceCatalog:
    """A catalog of four synthetic service types spanning distinct resource shapes."""
    catalog = ServiceCatalog()
    catalog.register(
        ServiceSpec(
            name="gfs_storage",
            unit="TiB stored (3x replicated)",
            coverage=cpu_ram_disk(0.3, 1.0, 3072.0),
            description="GFS-like distributed file storage; disk-heavy with light chunkserver CPU/RAM",
        )
    )
    catalog.register(
        ServiceSpec(
            name="bigtable_serving",
            unit="1k lookups/s",
            coverage=cpu_ram_disk(2.0, 12.0, 200.0),
            description="Bigtable-like structured storage serving; RAM-heavy tablet servers",
        )
    )
    catalog.register(
        ServiceSpec(
            name="batch_compute",
            unit="worker slot",
            coverage=cpu_ram_disk(1.0, 3.0, 20.0),
            description="MapReduce-style batch compute slots; CPU-dominant",
        )
    )
    catalog.register(
        ServiceSpec(
            name="web_serving",
            unit="100 QPS",
            coverage=cpu_ram_disk(4.0, 8.0, 10.0),
            description="Frontend serving capacity; CPU and RAM with negligible disk",
        )
    )
    return catalog
