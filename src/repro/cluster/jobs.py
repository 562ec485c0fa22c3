"""Job model for the cluster substrate.

Jobs are the unit of work that engineering teams run against their provisioned
quota.  The market itself never sees individual jobs — it provisions aggregate
quota — but the scheduler places jobs to produce realistic per-cluster
utilization, and the agents derive their demand from the jobs they intend to
run (see :mod:`repro.simulation.workload`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.resources import ResourceVector, cpu_ram_disk

_job_counter = itertools.count()


class JobState(str, enum.Enum):
    """Lifecycle of a job within the scheduler."""

    PENDING = "pending"
    RUNNING = "running"
    EVICTED = "evicted"
    FINISHED = "finished"


@dataclass
class Job:
    """A schedulable unit of work.

    Parameters
    ----------
    owner:
        Name of the engineering team that owns the job.
    demand:
        Per-task resource requirement.
    tasks:
        Number of identical tasks; total footprint is ``demand * tasks``.
    priority:
        Larger values are more important; the scheduler's
        :meth:`~repro.cluster.scheduler.BinPackingScheduler.preempt_below`
        evicts jobs ranked below a cut-off.
    duration:
        Nominal runtime in abstract time units.  Carried along when a job is
        split into tasks; nothing in the library reads it.
    mobile:
        Whether the owning team has engineered the job to run in any cluster
        (``True``) or whether it is pinned to its current cluster by data
        locality / engineering cost (``False``).  Mirrors the paper's
        observation that relocation has a real engineering cost.
    """

    owner: str
    demand: ResourceVector
    tasks: int = 1
    priority: int = 0
    duration: float = float("inf")
    mobile: bool = True
    name: str = ""
    state: JobState = JobState.PENDING
    placed_cluster: str | None = None
    job_id: int = field(default_factory=lambda: next(_job_counter))

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise ValueError(f"job must have at least one task, got {self.tasks}")
        if not self.demand.is_nonnegative():
            raise ValueError(f"job demand must be non-negative, got {self.demand}")
        if not self.name:
            self.name = f"{self.owner}/job-{self.job_id}"

    @property
    def footprint(self) -> ResourceVector:
        """Total resource footprint across all tasks."""
        return self.demand * float(self.tasks)

    def split_tasks(self) -> list["Job"]:
        """Return one single-task job per task (used by per-task placement)."""
        return [
            Job(
                owner=self.owner,
                demand=self.demand,
                tasks=1,
                priority=self.priority,
                duration=self.duration,
                mobile=self.mobile,
                name=f"{self.name}/task-{i}",
            )
            for i in range(self.tasks)
        ]


def make_job_batch(
    owner: str,
    *,
    count: int,
    rng: np.random.Generator,
    cpu_range: tuple[float, float] = (0.5, 8.0),
    ram_per_cpu: tuple[float, float] = (1.0, 8.0),
    disk_per_cpu: tuple[float, float] = (5.0, 200.0),
    tasks_range: tuple[int, int] = (1, 50),
    priority_choices: Sequence[int] = (0, 1, 2),
    mobile_fraction: float = 0.7,
) -> list[Job]:
    """Generate a batch of synthetic jobs for one team.

    Job shapes follow the heavy-tailed pattern typical of cluster traces:
    CPU drawn log-uniformly, RAM and disk drawn as multiples of CPU so that
    resource dimensions are correlated but not identical, and task counts
    drawn log-uniformly so a few jobs dominate the footprint.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    jobs: list[Job] = []
    for _ in range(count):
        cpu = float(np.exp(rng.uniform(np.log(cpu_range[0]), np.log(cpu_range[1]))))
        ram = cpu * float(rng.uniform(*ram_per_cpu))
        disk = cpu * float(rng.uniform(*disk_per_cpu))
        lo, hi = tasks_range
        tasks = int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
        tasks = max(lo, min(hi, tasks))
        jobs.append(
            Job(
                owner=owner,
                demand=cpu_ram_disk(cpu, ram, disk),
                tasks=tasks,
                priority=int(rng.choice(list(priority_choices))),
                mobile=bool(rng.random() < mobile_fraction),
            )
        )
    return jobs


def total_footprint(jobs: Iterable[Job]) -> ResourceVector:
    """Aggregate footprint of a collection of jobs."""
    total = ResourceVector.zero()
    for job in jobs:
        total = total + job.footprint
    return total
