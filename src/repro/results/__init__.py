"""repro.results — the persistent result store and replicate statistics.

The paper's headline claims (Table 1, Figures 6-7) are statistical: they
only mean something across *repeated* runs.  This package makes those runs
durable and comparable:

* :mod:`repro.results.metrics` — the scalar metrics extracted from every
  scenario run (utilization, clearing price, rounds, revenue, premiums) and
  the direction in which each one is allowed to move;
* :mod:`repro.results.store` — a sqlite-backed :class:`ResultStore` keyed by
  ``(scenario, seed, code_version, engine, mechanism)`` that the parallel
  runner and the ``python -m repro`` CLI write into, replacing throwaway JSON
  reports as the canonical record (observed wall times and workers
  included, as provenance);
* :mod:`repro.results.stats` — replicate statistics (mean / stddev / 95%
  confidence intervals per metric), version-to-version comparison with
  regression flagging, and cross-mechanism comparison, surfaced by
  ``python -m repro results list|show|compare`` and ``compare-mechanisms``.

Everything here is standard library only (``sqlite3``, ``statistics``); the
store adds no dependency to the runtime.
"""

from repro.results.metrics import METRIC_DIRECTIONS, METRICS, MetricDef, run_metrics
from repro.results.stats import (
    ComparisonReport,
    MechanismComparisonReport,
    MetricComparison,
    ReplicateStats,
    aggregate_metrics,
    compare_mechanisms,
    compare_metrics,
    compare_versions,
    replicate_stats,
    scenario_stats,
    t_critical_95,
)
from repro.results.store import (
    ResultStore,
    StoredRun,
    default_code_version,
    default_db_path,
    open_store,
)

__all__ = [
    "METRICS",
    "METRIC_DIRECTIONS",
    "MetricDef",
    "run_metrics",
    "ResultStore",
    "StoredRun",
    "default_code_version",
    "default_db_path",
    "open_store",
    "ReplicateStats",
    "MetricComparison",
    "ComparisonReport",
    "replicate_stats",
    "aggregate_metrics",
    "scenario_stats",
    "compare_metrics",
    "compare_versions",
    "MechanismComparisonReport",
    "compare_mechanisms",
    "t_critical_95",
]
