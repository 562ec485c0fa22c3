"""Resource pools and the pool index.

A *resource pool* is the unit the market prices: one (cluster, resource-type)
pair, e.g. ``cluster-07/cpu``.  The :class:`PoolIndex` assigns each pool a
dense integer index so the auction core can represent bundles, prices, and
excess demand as flat numpy vectors of length ``R`` (the number of pools).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.resources import DEFAULT_UNIT_COSTS, RESOURCE_TYPES, ResourceType
from repro.cluster.topology import FleetTopology


@dataclass(frozen=True)
class ResourcePool:
    """One tradeable resource pool: a resource type inside a cluster.

    Attributes
    ----------
    cluster:
        Name of the cluster the pool lives in.
    rtype:
        The resource dimension (CPU / RAM / disk).
    capacity:
        Total capacity of the pool in resource units.
    unit_cost:
        The operator's real cost ``c(r)`` per unit, the base of the
        congestion-weighted reserve price (paper Eq. 4).
    utilization:
        Current pre-auction utilization fraction ``psi(r)`` in [0, 1].
    """

    cluster: str
    rtype: ResourceType
    capacity: float
    unit_cost: float
    utilization: float

    def __post_init__(self) -> None:
        for field_name, value in (("capacity", self.capacity), ("unit_cost", self.unit_cost)):
            # ``nan < 0`` is False, so test finiteness explicitly.
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"pool {field_name} must be finite and non-negative, got {value}")
        if not (0.0 <= self.utilization <= 1.0):
            raise ValueError(f"pool utilization must lie in [0, 1], got {self.utilization}")

    @property
    def name(self) -> str:
        """Canonical pool name, e.g. ``"cluster-07/cpu"``."""
        return f"{self.cluster}/{self.rtype.value}"

    @property
    def available(self) -> float:
        """Unused capacity in resource units."""
        return self.capacity * (1.0 - self.utilization)

    def with_utilization(self, utilization: float) -> "ResourcePool":
        """Return a copy of this pool with a different utilization."""
        return ResourcePool(
            cluster=self.cluster,
            rtype=self.rtype,
            capacity=self.capacity,
            unit_cost=self.unit_cost,
            utilization=float(np.clip(utilization, 0.0, 1.0)),
        )


class PoolIndex:
    """Dense indexing of resource pools for vectorized auction math.

    The index is ordered and immutable once built.  Bundles, prices, reserve
    prices, and excess-demand vectors are all numpy arrays of length
    ``len(index)`` whose ``i``-th entry refers to ``index.pools[i]``.

    The pools are frozen, so the names, the name lookup, the cluster order
    and the vector views are derived once, when the index is built.  The
    market asks for them per bid and per request, and each accessor hands
    out a fresh copy the caller owns.  An index derived by
    :meth:`with_utilizations` shares its parent's name-derived state,
    capacities and unit costs.
    """

    def __init__(self, pools: Sequence[ResourcePool]):
        if not pools:
            raise ValueError("PoolIndex requires at least one pool")
        self._pools: tuple[ResourcePool, ...] = tuple(pools)
        self._names: tuple[str, ...] = tuple(pool.name for pool in self._pools)
        self._by_name: dict[str, int] = {name: i for i, name in enumerate(self._names)}
        if len(self._by_name) != len(self._names):
            dupes = sorted({n for n in self._names if self._names.count(n) > 1})
            raise ValueError(f"duplicate pool names: {dupes}")
        self._clusters: tuple[str, ...] = tuple(dict.fromkeys(pool.cluster for pool in self._pools))
        self._cluster_set: frozenset[str] = frozenset(self._clusters)
        self._capacities = np.array([pool.capacity for pool in self._pools], dtype=float)
        self._unit_costs = np.array([pool.unit_cost for pool in self._pools], dtype=float)
        # Shared with every index derived by with_utilizations.
        self._capacities.setflags(write=False)
        self._unit_costs.setflags(write=False)
        self._utilizations = np.array([pool.utilization for pool in self._pools], dtype=float)
        self._available = np.array([pool.available for pool in self._pools], dtype=float)

    # -- basic accessors -------------------------------------------------------
    @property
    def pools(self) -> tuple[ResourcePool, ...]:
        """All pools in index order."""
        return self._pools

    @property
    def names(self) -> list[str]:
        """Pool names in index order."""
        return list(self._names)

    def __len__(self) -> int:
        return len(self._pools)

    def __iter__(self) -> Iterator[ResourcePool]:
        return iter(self._pools)

    def index_of(self, name: str) -> int:
        """Dense index of the pool named ``name``."""
        return self._by_name[name]

    def pool(self, name: str) -> ResourcePool:
        """The pool named ``name``."""
        return self._pools[self._by_name[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def pools_of_cluster(self, cluster: str) -> list[ResourcePool]:
        """All pools belonging to ``cluster``."""
        return [pool for pool in self._pools if pool.cluster == cluster]

    def pools_of_type(self, rtype: ResourceType) -> list[ResourcePool]:
        """All pools of one resource dimension across clusters."""
        return [pool for pool in self._pools if pool.rtype == rtype]

    def clusters(self) -> list[str]:
        """Cluster names present in the index, in first-appearance order."""
        return list(self._clusters)

    def has_cluster(self, cluster: str) -> bool:
        """Whether any pool of the index belongs to ``cluster``."""
        return cluster in self._cluster_set

    # -- vector views ----------------------------------------------------------
    def capacities(self) -> np.ndarray:
        """Vector of pool capacities."""
        return self._capacities.copy()

    def unit_costs(self) -> np.ndarray:
        """Vector of operator unit costs c(r)."""
        return self._unit_costs.copy()

    def utilizations(self) -> np.ndarray:
        """Vector of pre-auction utilizations psi(r)."""
        return self._utilizations.copy()

    def available(self) -> np.ndarray:
        """Vector of unused capacity per pool."""
        return self._available.copy()

    # -- vector construction -----------------------------------------------------
    def vector(self, quantities: Mapping[str, float]) -> np.ndarray:
        """Build a bundle vector from a ``{pool name: quantity}`` mapping.

        Positive quantities are demands, negative quantities are offers,
        matching the sign convention of the paper's bundle vectors ``q_u``.
        """
        return self.matrix([quantities])[0]

    def matrix(self, rows: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Build a ``(k, R)`` bundle matrix whose row ``i`` is ``vector(rows[i])``.

        Examples
        --------
        >>> index = demo_pool_index()
        >>> index.matrix([{"a/cpu": 2}, {"b/cpu": 2, "b/ram": 8}]).tolist()
        [[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 8.0]]
        """
        out = np.zeros((len(rows), len(self._pools)), dtype=float)
        for i, quantities in enumerate(rows):
            for name, qty in quantities.items():
                j = self._by_name.get(name)
                if j is None:
                    raise KeyError(f"unknown pool {name!r}; known pools: {sorted(self._by_name)[:5]}...")
                out[i, j] = float(qty)
        return out

    def cluster_bundle(
        self, cluster: str, *, cpu: float = 0.0, ram: float = 0.0, disk: float = 0.0
    ) -> np.ndarray:
        """Bundle vector demanding/offering CPU, RAM, and disk in one cluster."""
        quantities: dict[str, float] = {}
        amounts = {ResourceType.CPU: cpu, ResourceType.RAM: ram, ResourceType.DISK: disk}
        for rtype, qty in amounts.items():
            if qty != 0.0:
                quantities[f"{cluster}/{rtype.value}"] = qty
        if not quantities:
            return np.zeros(len(self._pools), dtype=float)
        return self.vector(quantities)

    def describe(self, vec: np.ndarray, *, tol: float = 1e-12) -> dict[str, float]:
        """Invert :meth:`vector`: the non-zero entries of ``vec`` keyed by pool name."""
        if vec.shape != (len(self._pools),):
            raise ValueError(f"vector has shape {vec.shape}, expected ({len(self._pools)},)")
        return {self._names[i]: float(vec[i]) for i in np.flatnonzero(np.abs(vec) > tol)}

    # -- replacement -------------------------------------------------------------
    def with_utilizations(self, utilizations: Mapping[str, float] | np.ndarray) -> "PoolIndex":
        """Return a new index with updated utilizations (same pools, same order).

        A mapping may name any subset of the pools; naming a pool the index
        does not hold raises ``KeyError``.  Values are clipped to [0, 1]; a NaN
        raises ``ValueError`` as :class:`ResourcePool` does.  The new index
        shares this one's names, name lookup, cluster order, capacities and
        unit costs.

        Examples
        --------
        >>> index = demo_pool_index()
        >>> index.with_utilizations({"b/cpu": 1.5}).utilizations().tolist()
        [0.8, 0.8, 1.0, 0.2]
        >>> index.with_utilizations({"b/cpu": 0.5}).pool("b/cpu").available
        50.0
        """
        if isinstance(utilizations, np.ndarray):
            if utilizations.shape != (len(self._pools),):
                raise ValueError("utilization vector has wrong length")
            values = np.array(utilizations, dtype=float)
        else:
            named = dict(utilizations)
            unknown = sorted(set(named) - self._by_name.keys())
            if unknown:
                raise KeyError(f"unknown pools {unknown}; known pools: {sorted(self._by_name)[:5]}...")
            values = self._utilizations.copy()
            for name, value in named.items():
                values[self._by_name[name]] = value
        # One clip over the vector gives each pool the value
        # ResourcePool.with_utilization's scalar clip would.
        np.clip(values, 0.0, 1.0, out=values)
        pools = tuple(
            ResourcePool(pool.cluster, pool.rtype, pool.capacity, pool.unit_cost, utilization)
            for pool, utilization in zip(self._pools, values.tolist())
        )
        # Only utilizations changed: share the name-derived state and the
        # capacity and unit-cost vectors, which nothing ever mutates.
        derived = PoolIndex.__new__(PoolIndex)
        derived.__dict__.update(self.__dict__)
        derived._pools = pools
        derived._utilizations = values
        derived._available = self._capacities * (1.0 - values)
        return derived


def demo_pool_index() -> PoolIndex:
    """A tiny deterministic :class:`PoolIndex` for examples and doctests.

    Two clusters (``a`` congested at 80%, ``b`` idle at 20%), each with a CPU
    and a RAM pool at fixed capacities and unit costs.

    Examples
    --------
    >>> index = demo_pool_index()
    >>> index.names
    ['a/cpu', 'a/ram', 'b/cpu', 'b/ram']
    >>> index.capacities().tolist()
    [100.0, 400.0, 100.0, 400.0]
    """
    pools: list[ResourcePool] = []
    for cluster, util in (("a", 0.8), ("b", 0.2)):
        pools.append(
            ResourcePool(cluster=cluster, rtype=ResourceType.CPU, capacity=100.0, unit_cost=10.0, utilization=util)
        )
        pools.append(
            ResourcePool(cluster=cluster, rtype=ResourceType.RAM, capacity=400.0, unit_cost=2.0, utilization=util)
        )
    return PoolIndex(pools)


def pools_from_topology(
    topology: FleetTopology | Iterable[Cluster],
    *,
    unit_costs: Mapping[ResourceType, float] | None = None,
) -> PoolIndex:
    """Build a :class:`PoolIndex` from a fleet topology or a plain cluster list.

    One pool is created per (cluster, resource type); capacity and utilization
    are read off the cluster, unit costs default to
    :data:`repro.cluster.resources.DEFAULT_UNIT_COSTS`.
    """
    costs = dict(DEFAULT_UNIT_COSTS if unit_costs is None else unit_costs)
    pools: list[ResourcePool] = []
    for cluster in topology:
        for rtype in RESOURCE_TYPES:
            pools.append(
                ResourcePool(
                    cluster=cluster.name,
                    rtype=rtype,
                    capacity=cluster.capacity.get(rtype),
                    unit_cost=costs.get(rtype, 0.0),
                    utilization=cluster.utilization(rtype),
                )
            )
    return PoolIndex(pools)
