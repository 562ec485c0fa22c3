"""Run every docstring example in the documented packages as a test.

The documentation promise of this repo is that every example in a core,
bidlang, cluster, or simulation docstring actually runs; this test executes
them all with :mod:`doctest` so an API change that breaks an example breaks
the tier-1 suite, not just the rendered docs.  The simulation sweep covers
the scenario catalog and parallel runner modules; :mod:`repro.market`
(the two-step bid entry and the order book), :mod:`repro.results`
(the persistent result store and replicate statistics), :mod:`repro.mechanisms`
(the allocation-mechanism registry and the baseline policies),
:mod:`repro.exec` (the execution-backend registry and remote fabric),
:mod:`repro.agents` (strategy traits, populations, and the tournament engine),
:mod:`repro.analysis` (the paper's metrics), and :mod:`repro.cli` are included
so the ``python -m repro``, store, mechanism, backend, tournament, and metric
examples stay honest.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.agents
import repro.analysis
import repro.bidlang
import repro.cluster
import repro.core
import repro.exec
import repro.market
import repro.mechanisms
import repro.results
import repro.simulation


def _modules_of(package):
    names = [package.__name__]
    for info in pkgutil.iter_modules(package.__path__, prefix=package.__name__ + "."):
        names.append(info.name)
    return names


MODULES = sorted(
    set(
        _modules_of(repro.agents)
        + _modules_of(repro.analysis)
        + _modules_of(repro.core)
        + _modules_of(repro.bidlang)
        + _modules_of(repro.cluster)
        + _modules_of(repro.market)
        + _modules_of(repro.simulation)
        + _modules_of(repro.results)
        + _modules_of(repro.mechanisms)
        + _modules_of(repro.exec)
        + ["repro.cli"]
    )
)


@pytest.mark.parametrize("module_name", MODULES)
def test_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


def test_docstring_examples_exist():
    """The sweep must actually cover the core modules (guard against rot)."""
    finder = doctest.DocTestFinder()
    total = 0
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        total += sum(len(t.examples) for t in finder.find(module))
    assert total >= 40, f"expected a substantial doctest suite, found only {total} examples"
