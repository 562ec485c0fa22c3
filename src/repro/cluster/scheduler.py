"""Bin-packing job scheduler.

The market provisions aggregate quota; this scheduler is the low-level
substrate that actually assigns jobs to machines so the fleet exhibits
realistic utilization ("the allocation limits are then mapped into the
low-level scheduling algorithms used to actually assign jobs to units of
physical hardware").  It is intentionally simple — first-fit / best-fit /
worst-fit decreasing — because the paper's contribution is the provisioning
layer above it; the reserve pricing of Section IV only needs per-pool
utilization percentiles, which any of these policies produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.jobs import Job, JobState
from repro.cluster.machine import Machine


class PlacementPolicy(Protocol):
    """Strategy for choosing which machine receives a job."""

    def choose(self, job: Job, machines: Sequence[Machine]) -> Machine | None:
        """Return the machine to place ``job`` on, or ``None`` if no machine fits."""
        ...  # pragma: no cover - protocol


class FirstFitPolicy:
    """Place each job on the first machine it fits on."""

    def choose(self, job: Job, machines: Sequence[Machine]) -> Machine | None:
        for machine in machines:
            if machine.can_fit(job):
                return machine
        return None


class BestFitPolicy:
    """Place each job on the machine whose free capacity it fills most tightly.

    "Tightness" is measured by the dominant-share fraction of the job's
    footprint against the machine's free capacity; higher is tighter.
    """

    def choose(self, job: Job, machines: Sequence[Machine]) -> Machine | None:
        best: Machine | None = None
        best_score = -1.0
        for machine in machines:
            if not machine.can_fit(job):
                continue
            score = job.footprint.max_fraction_of(machine.free)
            if score > best_score:
                best, best_score = machine, score
        return best


class WorstFitPolicy:
    """Place each job on the emptiest machine that fits it (spreads load)."""

    def choose(self, job: Job, machines: Sequence[Machine]) -> Machine | None:
        best: Machine | None = None
        best_score = 2.0
        for machine in machines:
            if not machine.can_fit(job):
                continue
            score = machine.dominant_utilization()
            if score < best_score:
                best, best_score = machine, score
        return best


@dataclass
class PlacementResult:
    """Outcome of scheduling a batch of jobs into a cluster."""

    cluster: str
    placed: list[Job] = field(default_factory=list)
    unplaced: list[Job] = field(default_factory=list)

    @property
    def placed_count(self) -> int:
        return len(self.placed)

    @property
    def unplaced_count(self) -> int:
        return len(self.unplaced)

    @property
    def all_placed(self) -> bool:
        return not self.unplaced


class BinPackingScheduler:
    """Greedy bin-packing scheduler for one cluster.

    Jobs are sorted by descending dominant footprint (classic *-fit
    decreasing) and placed one at a time via the configured policy.  Jobs with
    multiple tasks are split so tasks can spread across machines, matching how
    real cluster schedulers place replicated services.
    """

    def __init__(self, policy: PlacementPolicy | None = None, *, split_tasks: bool = True):
        self.policy: PlacementPolicy = policy or BestFitPolicy()
        self.split_tasks = split_tasks

    def schedule(self, cluster: Cluster, jobs: Sequence[Job]) -> PlacementResult:
        """Place ``jobs`` into ``cluster``; returns which were placed vs. rejected."""
        result = PlacementResult(cluster=cluster.name)
        units: list[Job] = []
        for job in jobs:
            if self.split_tasks and job.tasks > 1:
                units.extend(job.split_tasks())
            else:
                units.append(job)
        units.sort(
            key=lambda j: j.footprint.max_fraction_of(
                cluster.machines[0].capacity if cluster.machines else j.footprint
            ),
            reverse=True,
        )
        for job in units:
            machine = self.policy.choose(job, cluster.machines)
            if machine is None:
                job.state = JobState.PENDING
                result.unplaced.append(job)
                continue
            machine.place(job)
            job.placed_cluster = cluster.name
            result.placed.append(job)
        return result

    def preempt_below(self, cluster: Cluster, priority: int) -> list[Job]:
        """Evict every job with priority strictly below ``priority``.

        Models the traditional "more important jobs preempt lower-ranked
        tasks" policy the paper contrasts against.
        """
        evicted: list[Job] = []
        for machine in cluster.machines:
            for job in list(machine.jobs.values()):
                if job.priority < priority:
                    machine.evict(job)
                    evicted.append(job)
        return evicted
