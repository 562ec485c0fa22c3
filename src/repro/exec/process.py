"""The process-pool execution backend (one machine, many cores).

* jobs are submitted to the pool in the caller's dispatch order (longest job
  first) so heavyweight scenarios never become the makespan tail;
* results are emitted as they land (completion order), the caller reassembles
  submission order;
* ``workers=1`` runs every job serially in the calling process (the serial
  lane, provenance ``serial:<pid>``), with no pool at all;
* if the pool cannot be created at all, or a worker dies mid-run (restricted
  sandboxes that forbid subprocesses), the backend degrades to running the
  unfinished jobs on the serial lane — ``emit`` still fires exactly once per
  job and the report is identical either way.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.exec.base import EmitFn
from repro.exec.serial import run_one

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec


def _pool_job(spec: "ScenarioSpec"):
    """Pool entry point (module-level so it pickles under any start method)."""
    from repro.simulation.runner import run_scenario

    result = run_scenario(spec)
    return replace(result, worker=f"process:{os.getpid()}")


class ProcessBackend:
    """Fan jobs across a local :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``workers=None`` uses every core up to the job count; ``workers=1`` runs
    the jobs serially in-process without creating a pool.  The serial lane is
    the reference every other lane's report bytes are checked against.
    """

    name = "process"
    description = "fan jobs across a local process pool (workers=1: serially in-process)"

    def __init__(self, *, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    def _resolve_workers(self, job_count: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, job_count))

    def execute(
        self,
        specs: Sequence["ScenarioSpec"],
        *,
        order: Sequence[int],
        emit: EmitFn,
    ) -> None:
        done: set[int] = set()

        def emit_once(i: int, result) -> None:
            done.add(i)
            emit(i, result)

        workers = self._resolve_workers(len(specs))
        if workers > 1:
            try:
                self._execute_pool(specs, workers, order, emit_once)
            except (OSError, PermissionError, BrokenExecutor):
                # Process pools are unavailable (restricted sandbox) or a
                # worker could not be forked mid-run; the serial path below
                # finishes only the jobs that have not completed yet, so
                # ``emit`` still fires exactly once per spec.
                pass
        label = f"serial:{os.getpid()}"
        for i, spec in enumerate(specs):
            if i not in done:
                emit_once(i, run_one(spec, worker=label))

    def _execute_pool(self, specs, workers: int, order, emit) -> None:
        """Run the jobs across a pool, emitting results as they land."""
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {}
            try:
                # Heaviest jobs first: queue position decides makespan; the
                # emitted slot index keeps the report in submission order.
                for i in order:
                    future = pool.submit(_pool_job, specs[i])
                    pending[future] = i
                while pending:
                    finished, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                    for future in finished:
                        i = pending.pop(future)
                        error = future.exception()
                        if error is not None:
                            if isinstance(error, (OSError, PermissionError, BrokenExecutor)):
                                # Worker creation/death failure, not a scenario
                                # failure — leave the slot for the serial fallback.
                                raise error
                            raise RuntimeError(
                                f"scenario {specs[i].name!r} failed in worker: {error}"
                            ) from error
                        emit(i, future.result())
            except BaseException:
                # Surface the failure now: drop queued jobs instead of letting
                # the context manager's shutdown(wait=True) run them all first.
                # (Jobs already executing in a worker cannot be interrupted.)
                for future in pending:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise
