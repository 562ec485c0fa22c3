"""Execution backends: one protocol over process-pool and multi-host runs.

The registry lets the runner/CLI/store pipeline treat "where jobs execute" as
a first-class dimension, exactly like the demand engine and the allocation
mechanism: :class:`~repro.simulation.runner.ParallelRunner` resolves a backend
by name, ``python -m repro run/sweep --backend NAME`` selects it from the
command line, and the result store records which worker produced each run.

>>> from repro.exec import backend_names, create_backend
>>> backend_names()
['process', 'remote']
>>> create_backend('process', workers=2).workers
2
"""

from repro.exec.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionBackend,
    backend_names,
    backend_summaries,
    create_backend,
    get_backend_factory,
    register_backend,
)
from repro.exec.control import ControlClient, ControlError
from repro.exec.coordinator import DEFAULT_BIND, RemoteBackend
from repro.exec.process import ProcessBackend
from repro.exec.queue import (
    DEFAULT_RETRY_BUDGET,
    IllegalTransition,
    Job,
    JobQueue,
    JobState,
    RetryBudgetExhausted,
)
from repro.exec.serial import run_one
from repro.exec.wire import DEFAULT_TRANSPORT, Transport
from repro.exec.worker import (
    WorkerError,
    WorkerRejected,
    default_worker_id,
    parse_hostport,
    run_worker,
)

register_backend(ProcessBackend)
register_backend(RemoteBackend)

__all__ = [
    "BACKENDS",
    "ControlClient",
    "ControlError",
    "DEFAULT_BACKEND",
    "DEFAULT_BIND",
    "DEFAULT_RETRY_BUDGET",
    "DEFAULT_TRANSPORT",
    "ExecutionBackend",
    "IllegalTransition",
    "Job",
    "JobQueue",
    "JobState",
    "ProcessBackend",
    "RemoteBackend",
    "RetryBudgetExhausted",
    "Transport",
    "WorkerError",
    "WorkerRejected",
    "backend_names",
    "backend_summaries",
    "create_backend",
    "default_worker_id",
    "get_backend_factory",
    "parse_hostport",
    "register_backend",
    "run_one",
    "run_worker",
]
