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

from dataclasses import dataclass, field
from typing import Mapping

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
        if self.quantity <= 0:
            raise ValueError("service request quantity must be positive")


#: Pool-name suffix of each resource type, in the order a
#: :class:`ResourceVector` iterates its components (``RESOURCE_TYPES``).
#: Read once here: an enum member's ``.value`` is a descriptor call, and
#: covering runs for every request in every candidate cluster.
_POOL_SUFFIXES: tuple[str, ...] = tuple(rtype.value for rtype in RESOURCE_TYPES)


class ServiceCatalog:
    """The set of service types teams can request resources for."""

    def __init__(self, specs: Mapping[str, ServiceSpec] | None = None):
        self._specs: dict[str, ServiceSpec] = dict(specs or {})

    def register(self, spec: ServiceSpec) -> None:
        """Add or replace a service type."""
        self._specs[spec.name] = spec

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
    def covering_bundle(self, request: ServiceRequest, index: PoolIndex) -> dict[str, float]:
        """Step 1 of bid entry: the ``{pool name: quantity}`` bundle covering a request.

        Dimensions the service does not use are left out of the bundle.

        Examples
        --------
        >>> from repro.cluster.pools import demo_pool_index
        >>> from repro.cluster.resources import cpu_ram_disk
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
        return self.cover(request.service, request.cluster, request.quantity, index)

    def cover(self, service: str, cluster: str, quantity: float, index: PoolIndex) -> dict[str, float]:
        """:meth:`covering_bundle` of ``quantity`` units of ``service`` in ``cluster``.

        Takes the request's fields rather than a :class:`ServiceRequest`, so
        a team re-homing its requests to several clusters builds no request
        objects.  ``quantity`` must be positive, as in a request.
        """
        if quantity <= 0:
            raise ValueError("service request quantity must be positive")
        coverage = self.spec(service).coverage
        if not index.has_cluster(cluster):
            raise KeyError(f"unknown cluster {cluster!r}")
        bundle: dict[str, float] = {}
        for suffix, per_unit in zip(_POOL_SUFFIXES, coverage):
            qty = per_unit * quantity
            if qty > 0:
                bundle[f"{cluster}/{suffix}"] = qty
        return bundle

    def covering_cost(
        self, request: ServiceRequest, index: PoolIndex, prices: Mapping[str, float]
    ) -> float:
        """Step 2 of bid entry: the cost of the covering bundle at current market prices."""
        bundle = self.covering_bundle(request, index)
        return float(sum(qty * prices[name] for name, qty in bundle.items()))

    def alternatives_bundle(
        self, service: str, quantity: float, clusters: list[str], index: PoolIndex
    ) -> list[dict[str, float]]:
        """Covering bundles for the same request across several candidate clusters.

        This is the XOR indifference set for a team that does not care where
        the service lands ("a user may demand a certain combination of CPU,
        memory, and disk but may be indifferent with respect to the exact
        location").
        """
        return [
            self.covering_bundle(ServiceRequest(service=service, cluster=cluster, quantity=quantity), index)
            for cluster in clusters
        ]


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
