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
from typing import Iterable, Mapping, Sequence

from repro.cluster.pools import PoolIndex
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


#: Pool-name suffix of each resource position, in the order a
#: :class:`ResourceVector` iterates its components (``RESOURCE_TYPES``).
#: Read once here: an enum member's ``.value`` is a descriptor call.
_POOL_SUFFIXES: tuple[str, ...] = tuple(rtype.value for rtype in RESOURCE_TYPES)


def named_bundle(amounts: Sequence[tuple[int, float]], cluster: str, index: PoolIndex) -> dict[str, float]:
    """``{pool name: quantity}`` view of covering ``amounts`` placed in ``cluster``.

    ``amounts`` are :meth:`ServiceCatalog.covering_amounts` pairs; the names
    keep their order.  A cluster the index does not hold raises ``KeyError``
    when there is something to place.  The names are not checked against the
    index's pools: a bid built from them is.
    """
    if amounts and not index.has_cluster(cluster):
        raise KeyError(f"unknown cluster {cluster!r}")
    return {f"{cluster}/{_POOL_SUFFIXES[position]}": amount for position, amount in amounts}


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
        that is not ``> 0`` is left out.  The requests' clusters are not read:
        :func:`named_bundle` or a pool index's columns place the amounts.

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
        return list(totals.items())

    def covering_bundle(self, request: ServiceRequest, index: PoolIndex) -> dict[str, float]:
        """The ``{pool name: quantity}`` bundle covering one request.

        Dimensions the service does not use are left out of the bundle.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> index = demo_pool_index()               # clusters a and b, CPU and RAM pools
        >>> catalog = ServiceCatalog()
        >>> catalog.register(ServiceSpec("cache", "GiB cached", cpu_ram_disk(0.5, 1.0, 0.0)))
        >>> catalog.covering_bundle(ServiceRequest("cache", "a", 8.0), index)
        {'a/cpu': 4.0, 'a/ram': 8.0}
        >>> catalog.covering_bundle(ServiceRequest("cache", "z", 8.0), index)
        Traceback (most recent call last):
            ...
        KeyError: "unknown cluster 'z'"
        """
        return named_bundle(self.covering_amounts([request]), request.cluster, index)

    def cover(self, service: str, cluster: str, quantity: float, index: PoolIndex) -> dict[str, float]:
        """:meth:`covering_bundle` of ``quantity`` units of ``service`` in ``cluster``.

        ``quantity`` must be finite and positive, as in a request.
        """
        return self.covering_bundle(ServiceRequest(service, cluster, quantity), index)


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
