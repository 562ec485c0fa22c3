"""Relocation (re-engineering) cost model.

"There is an engineering cost to reconfiguring applications for different
resource pools and the market economy allows teams to act on those costs
autonomously."  The cost model below quantifies that: moving a workload from
its home cluster to another cluster costs a fixed re-engineering effort plus a
distance-dependent component (data transfer, latency re-qualification) plus a
per-unit component proportional to the footprint being moved.  Agents compare
this cost against the price discount available elsewhere when deciding whether
to relocate or to pay the premium to stay.

>>> model = RelocationCostModel(base_cost=50.0, cost_per_unit=1.0)
>>> model.move_cost(None, "a", "a", workload_size=100)
0.0
>>> model.move_cost(None, "a", "b", workload_size=100)
150.0
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import FleetTopology


@dataclass(frozen=True)
class RelocationCostModel:
    """Budget-dollar cost of moving a workload between clusters.

    Attributes
    ----------
    base_cost:
        Fixed engineering cost of any move (code changes, turn-up, qualification).
    cost_per_distance:
        Cost per unit of inter-site distance (proxy for data-transfer and
        latency re-engineering).
    cost_per_unit:
        Cost per unit of workload footprint moved (expressed in the same
        abstract "size" unit the caller supplies, typically CPU cores).
    immobile_multiplier:
        Extra multiplier applied to workloads flagged as hard to move (deep
        data-locality dependencies).
    """

    base_cost: float = 50.0
    cost_per_distance: float = 0.5
    cost_per_unit: float = 1.0
    immobile_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if min(self.base_cost, self.cost_per_distance, self.cost_per_unit) < 0:
            raise ValueError("relocation cost components must be non-negative")
        if self.immobile_multiplier < 1:
            raise ValueError("immobile_multiplier must be >= 1")

    def move_cost(
        self,
        topology: FleetTopology | None,
        source: str,
        destination: str,
        *,
        workload_size: float,
        mobile: bool = True,
    ) -> float:
        """Cost of moving ``workload_size`` units from ``source`` to ``destination``.

        A move within the same cluster is free.  When no topology is supplied
        the distance component is skipped (agents can still trade off base and
        per-unit costs).
        """
        if workload_size < 0:
            raise ValueError("workload_size must be non-negative")
        if source == destination:
            return 0.0
        distance = 0.0
        if topology is not None and source in topology.clusters and destination in topology.clusters:
            distance = topology.cluster_distance(source, destination)
        cost = self.base_cost + self.cost_per_distance * distance + self.cost_per_unit * workload_size
        if not mobile:
            cost *= self.immobile_multiplier
        return cost
