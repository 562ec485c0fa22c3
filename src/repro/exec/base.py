"""The execution-backend protocol and registry.

The parallel runner's job is scheduling — static longest-job-first order,
what the report looks like — not *where* the work happens.  An
:class:`ExecutionBackend` is the "where": anything that can take a list of
:class:`~repro.simulation.catalog.ScenarioSpec` jobs plus a preferred
dispatch order and deliver one :class:`~repro.simulation.runner.ScenarioRunResult`
per job.  The registry maps kebab-case backend names to implementations,
mirroring the scenario catalog and the mechanism registry: the CLI selects a
backend with ``--backend NAME``, :class:`~repro.simulation.runner.ParallelRunner`
resolves the name at run time, and sweep reports stay **byte-identical**
whichever backend executed the jobs (every job carries its own seed, results
are assembled in submission order, and timings stay out of the canonical
report).

Registered backends:

===========  ==============================================================
``process``  Fan jobs across a local :class:`~concurrent.futures.ProcessPoolExecutor`;
             ``workers=1``, or a sandbox that forbids subprocesses, runs
             them one after another in the calling process.
``remote``   Stream jobs over TCP to ``python -m repro worker`` daemons on
             any number of hosts, with heartbeats, retry budgets, an
             optional shared-secret handshake, and a control plane
             (``repro workers list|drain|scale``) for persistent fleets.
===========  ==============================================================

>>> from repro.exec import backend_names, get_backend_factory
>>> backend_names()
['process', 'remote']
>>> get_backend_factory('process').name
'process'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.catalog import ScenarioSpec
    from repro.simulation.runner import ScenarioRunResult

#: The backend jobs run on unless told otherwise.
DEFAULT_BACKEND = "process"

#: ``emit(index, result)`` — deliver the finished result for ``specs[index]``.
#: A backend must call it exactly once per job, from the thread that called
#: :meth:`ExecutionBackend.execute` (callers chain result-store writes onto
#: it, and sqlite connections are not thread-safe).
EmitFn = Callable[[int, "ScenarioRunResult"], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a batch of independent scenario jobs.

    Implementations must honour the shared contract the backend test suite
    enforces for every registered backend:

    * ``emit`` fires **exactly once** per spec, with a result equal to what
      :func:`~repro.simulation.runner.run_scenario` would produce in-process
      (jobs are deterministic, so *where* they ran cannot show in the bytes);
    * ``order`` is the preferred dispatch order (longest job first, indices
      into ``specs``); backends are free to complete jobs in any order;
    * a job that raises inside the backend surfaces as ``RuntimeError``
      naming the scenario — infrastructure loss (a worker dying) is retried,
      a deterministic scenario failure is not.
    """

    #: Registry name (kebab-case), recorded as store provenance via the
    #: result's ``worker`` field.
    name: str
    #: One-line description shown by ``--backend list``.
    description: str

    def execute(
        self,
        specs: Sequence["ScenarioSpec"],
        *,
        order: Sequence[int],
        emit: EmitFn,
    ) -> None:
        """Run every spec, delivering each finished result through ``emit``."""
        ...  # pragma: no cover - protocol


class BackendFactory(Protocol):
    """A callable producing a configured backend (normally the class itself)."""

    name: str
    description: str

    def __call__(self, **options) -> ExecutionBackend: ...  # pragma: no cover


#: The registry: backend name -> factory (the backend class).
BACKENDS: dict[str, BackendFactory] = {}


def register_backend(factory: BackendFactory) -> BackendFactory:
    """Add a backend factory to the registry; rejects duplicate names."""
    if factory.name in BACKENDS:
        raise ValueError(f"backend {factory.name!r} is already registered")
    BACKENDS[factory.name] = factory
    return factory


def backend_names() -> list[str]:
    """All registered backend names, in registration order."""
    return list(BACKENDS)


def get_backend_factory(name: str) -> BackendFactory:
    """Look up a backend factory by name; unknown names list what *is* available."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise KeyError(f"unknown backend {name!r}; available: {known}") from None


def create_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a registry backend with backend-specific ``options``.

    Options every backend accepts: ``workers`` (pool size for ``process``,
    minimum connected workers for ``remote``).  The remote backend
    additionally takes ``bind`` and its timeout knobs — see
    :class:`repro.exec.coordinator.RemoteBackend`.
    """
    return get_backend_factory(name)(**options)


def backend_summaries() -> list[dict[str, str]]:
    """Name + description per registered backend (what ``--backend list`` shows)."""
    return [
        {"name": factory.name, "description": factory.description}
        for factory in BACKENDS.values()
    ]
