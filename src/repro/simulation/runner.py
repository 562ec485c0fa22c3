"""Parallel economy runner: fan independent scenarios out across an execution backend.

Each catalog scenario is an independent economy — its own fleet, population,
seed, allocation mechanism, and auction sequence — so a sweep over scenarios
(or over replicate seeds of one scenario, or over mechanisms) is
embarrassingly parallel.  :class:`ParallelRunner` owns the *scheduling* of
such a sweep — static longest-job-first dispatch order, streaming
aggregation, store persistence — and delegates the *execution* to a
pluggable :class:`~repro.exec.base.ExecutionBackend` (the local ``process``
pool or the multi-host ``remote`` fabric; see :mod:`repro.exec`).  The
assembled :class:`SweepReport`'s canonical JSON is **byte-identical**
regardless of backend, worker count, or completion order: every job carries
its own seed, results are ordered by submission, and wall-clock timings are
kept out of the canonical report (each result's measured wall time rides
along in the non-canonical ``wall_time_seconds`` field, and the executing
worker's identity in ``worker``; the result store persists both as
provenance).

With ``workers=1`` (or when a process pool cannot be created) the default
backend runs the very same job list serially in-process, which is what makes
the determinism guarantee checkable:
``run(names, workers=4).to_json() == run(names, workers=1).to_json()``.

>>> from repro.simulation.catalog import get_scenario
>>> spec = get_scenario("smoke").with_overrides(auctions=1)
>>> report = ParallelRunner(workers=1).run_specs([spec])
>>> [r.scenario for r in report.results]
['smoke']
>>> report.results[0].auctions
1
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.allocation import utilization_imbalance
from repro.simulation.catalog import ScenarioSpec
from repro.simulation.economy import EconomyHistory
from repro.simulation.scenario import Scenario

#: Significant digits kept in the canonical report (full float64 repr is
#: deterministic too, but rounded values keep the JSON humane to read).
_DIGITS = 6


def _round(value: float) -> float:
    return round(float(value), _DIGITS)


def _round_list(values) -> list[float]:
    return [_round(v) for v in values]


@dataclass(frozen=True)
class ScenarioRunResult:
    """The cross-auction trajectory of one scenario run, in plain values.

    Everything here is JSON-serialisable on purpose: results cross process
    boundaries and land verbatim in the sweep report.
    """

    scenario: str
    seed: int
    engine: str
    auctions: int
    clusters: int
    pools: int
    teams: int
    #: Median bid premium gamma_u per auction (Table I's headline trajectory).
    median_premium: list[float]
    #: Mean bid premium per auction.
    mean_premium: list[float]
    #: Fraction of orders settled per auction.
    settled_fraction: list[float]
    #: Clock rounds each binding auction took to clear.
    clearing_rounds: list[int]
    #: Mean settled unit price across pools after each auction.
    mean_clearing_price: list[float]
    #: Net payments collected from winners in each auction (market revenue).
    revenue: list[float]
    #: Mean pool utilization after each auction.
    mean_utilization: list[float]
    #: Std-dev of pool utilizations after each auction (migration flattens it).
    utilization_spread: list[float]
    #: Migration summary of the final auction.
    migration: dict[str, float]
    #: Settled trades pooled across all auctions.
    trade_count: int
    #: Allocation mechanism that produced the run (``market`` or a baseline).
    mechanism: str = "market"
    #: Cost-weighted capacity overcommitted beyond safe headroom per epoch —
    #: the paper's "shortages in certain resource pools" (see
    #: :func:`repro.analysis.allocation.utilization_imbalance`).
    shortage_cost: list[float] = field(default_factory=list)
    #: Cost-weighted capacity stranded idle per epoch — the paper's
    #: "surpluses in certain resource pools".
    surplus_cost: list[float] = field(default_factory=list)
    #: Fraction of teams whose current demand is fully covered by the quota
    #: the mechanism has provisioned so far, per epoch.
    satisfied_fraction: list[float] = field(default_factory=list)
    #: Per-team settlement outcomes pooled across the run's auctions (bids,
    #: wins, surplus at former fixed prices, overcommitted limit, satisfied
    #: fraction).  Populated only for roster-driven populations — tournament
    #: generations score genomes from this — and serialised only when present,
    #: so reports for ordinary sampled populations keep their exact bytes.
    team_scores: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Measured wall time of the run in seconds.  Deliberately *not* part of
    #: the canonical report (or equality): timings vary run to run, reports
    #: must not.  The result store persists it as provenance.
    wall_time_seconds: float | None = field(default=None, compare=False)
    #: Which execution lane produced the run (``serial:<pid>``,
    #: ``process:<pid>``, or a remote worker id).  Provenance only: like the
    #: wall time it stays out of the canonical report and out of equality —
    #: *where* a deterministic job ran must never show in the bytes — but the
    #: result store persists it so a sweep's placement can be audited.
    worker: str | None = field(default=None, compare=False)

    @property
    def premium_drop(self) -> float:
        """First-to-last change in median premium (negative = premiums fell)."""
        return _round(self.median_premium[-1] - self.median_premium[0])

    @property
    def utilization_spread_change(self) -> float:
        """First-to-last change in utilization spread (negative = flattening)."""
        return _round(self.utilization_spread[-1] - self.utilization_spread[0])

    def to_dict(self) -> dict[str, object]:
        """The canonical per-scenario report entry."""
        payload: dict[str, object] = {
            "scenario": self.scenario,
            "seed": self.seed,
            "engine": self.engine,
            "mechanism": self.mechanism,
            "auctions": self.auctions,
            "clusters": self.clusters,
            "pools": self.pools,
            "teams": self.teams,
            "median_premium": self.median_premium,
            "mean_premium": self.mean_premium,
            "settled_fraction": self.settled_fraction,
            "clearing_rounds": self.clearing_rounds,
            "mean_clearing_price": self.mean_clearing_price,
            "revenue": self.revenue,
            "mean_utilization": self.mean_utilization,
            "utilization_spread": self.utilization_spread,
            "migration": self.migration,
            "trade_count": self.trade_count,
            "shortage_cost": self.shortage_cost,
            "surplus_cost": self.surplus_cost,
            "satisfied_fraction": self.satisfied_fraction,
            "premium_drop": self.premium_drop,
            "utilization_spread_change": self.utilization_spread_change,
        }
        if self.team_scores:
            payload["team_scores"] = self.team_scores
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, object],
        *,
        wall_time_seconds: float | None = None,
        worker: str | None = None,
    ) -> "ScenarioRunResult":
        """Rebuild a result from its canonical :meth:`to_dict` payload.

        The inverse the remote execution fabric rides on: the canonical dict
        holds plain rounded values that survive JSON bit-exactly, so
        ``from_dict(json.loads(json.dumps(r.to_dict())))`` equals ``r``.
        Derived entries (``premium_drop``, ``utilization_spread_change``) are
        recomputed properties and ignored; the non-canonical sidecar fields
        are supplied separately.

        >>> from repro.simulation.catalog import get_scenario
        >>> r = run_scenario(get_scenario("smoke").with_overrides(auctions=1))
        >>> ScenarioRunResult.from_dict(r.to_dict()) == r
        True
        """
        names = {f.name for f in dataclasses.fields(cls)} - {"wall_time_seconds", "worker"}
        data = {key: value for key, value in payload.items() if key in names}
        return cls(**data, wall_time_seconds=wall_time_seconds, worker=worker)

    @classmethod
    def from_history(
        cls, spec: ScenarioSpec, scenario: Scenario, history: EconomyHistory
    ) -> "ScenarioRunResult":
        """Flatten a finished economy run into the plain trajectory record."""
        imbalance = [
            utilization_imbalance(scenario.pool_index, p.utilization_after)
            for p in history.periods
        ]
        return cls(
            scenario=spec.name,
            seed=spec.config.seed,
            engine=spec.config.auction_engine,
            auctions=len(history),
            clusters=len(scenario.fleet.clusters),
            pools=len(scenario.pool_index),
            teams=len(scenario.agents),
            median_premium=_round_list(history.median_premium_series()),
            mean_premium=_round_list(p.mean_premium for p in history.premium_rows()),
            settled_fraction=_round_list(p.settled_fraction for p in history.periods),
            clearing_rounds=[p.record.rounds for p in history.periods],
            mean_clearing_price=_round_list(
                float(np.mean(list(p.record.prices.values()))) for p in history.periods
            ),
            revenue=_round_list(p.settlement.total_payments() for p in history.periods),
            mean_utilization=_round_list(
                float(np.mean(p.utilization_after)) for p in history.periods
            ),
            utilization_spread=_round_list(history.utilization_spread_series()),
            migration={k: _round(v) for k, v in history.periods[-1].migration.items()},
            trade_count=sum(p.trade_count for p in history.periods),
            mechanism=spec.mechanism,
            shortage_cost=_round_list(shortage for shortage, _ in imbalance),
            surplus_cost=_round_list(surplus for _, surplus in imbalance),
            satisfied_fraction=_round_list(
                a.satisfied_fraction for a in history.allocation_series()
            ),
            team_scores=(
                _team_outcomes(scenario, history)
                if spec.config.population.roster is not None
                else {}
            ),
        )


def _team_outcomes(scenario: Scenario, history: EconomyHistory) -> dict[str, dict[str, float]]:
    """Per-team settlement outcomes pooled across a run's auctions.

    ``surplus`` values each won bundle at the *former fixed prices* (the
    paper's pre-market willingness-to-pay anchor) minus the settled payment:
    buying below fixed value or selling above it is profit.  ``overcommitment``
    is the limit committed beyond the payment — capital the platform's budget
    check kept locked up, i.e. the premium in currency units.  Everything is
    rounded to the canonical digit budget so tournament selection on these
    numbers is identical whatever backend produced them.
    """
    fixed = scenario.fleet.fixed_prices
    out: dict[str, dict[str, float]] = {
        agent.name: {"bids": 0, "wins": 0, "surplus": 0.0, "overcommitment": 0.0}
        for agent in scenario.agents
    }
    for period in history.periods:
        index = period.settlement.index
        fixed_vec = np.array([fixed.get(pool.name, 0.0) for pool in index], dtype=float)
        for line in period.settlement.lines:
            rec = out.get(line.bidder)
            if rec is None:  # operator supply offers are not tournament teams
                continue
            rec["bids"] += 1
            if line.won:
                rec["wins"] += 1
                rec["surplus"] += float(line.allocation @ fixed_vec) - line.payment
                rec["overcommitment"] += abs(line.limit - line.payment)
    scores: dict[str, dict[str, float]] = {}
    for name in sorted(out):
        rec = out[name]
        bids = int(rec["bids"])
        scores[name] = {
            "bids": bids,
            "wins": int(rec["wins"]),
            "surplus": _round(rec["surplus"]),
            "overcommitment": _round(rec["overcommitment"]),
            "satisfied_fraction": _round(rec["wins"] / bids) if bids else 0.0,
        }
    return scores


def run_scenario(spec: ScenarioSpec) -> ScenarioRunResult:
    """Run one scenario start to finish in the current process.

    Dispatches on ``spec.mechanism`` through the mechanism registry
    (:mod:`repro.mechanisms`) and stamps the measured wall time onto the
    result's non-canonical ``wall_time_seconds`` field.
    """
    from repro.mechanisms import get_mechanism

    mechanism = get_mechanism(spec.mechanism)
    start = time.perf_counter()
    result = mechanism.run(spec)
    return replace(result, wall_time_seconds=time.perf_counter() - start)


def expand_mechanisms(
    specs: Sequence[ScenarioSpec], mechanisms: Sequence[str]
) -> list[ScenarioSpec]:
    """The scenario x mechanism cross product, scenario-major.

    >>> from repro.simulation.catalog import get_scenario
    >>> expanded = expand_mechanisms([get_scenario("smoke")], ["market", "priority"])
    >>> [(s.name, s.mechanism) for s in expanded]
    [('smoke', 'market'), ('smoke', 'priority')]
    """
    if not mechanisms:
        raise ValueError("expand_mechanisms needs at least one mechanism name")
    return [
        spec.with_overrides(mechanism=mechanism)
        for spec in specs
        for mechanism in mechanisms
    ]


def longest_job_first(specs: Sequence[ScenarioSpec]) -> list[int]:
    """Dispatch order for a backend: heaviest scenario first.

    Returns indices into ``specs`` sorted by descending static
    :meth:`~repro.simulation.catalog.ScenarioSpec.cost_estimate` (stable for
    ties).  Submitting the longest jobs first tightens the makespan: a
    10k-bidder stress scenario starts on a worker immediately instead of
    becoming the tail after every quick scenario has already finished.  The
    *report* order is unaffected — results are always assembled in the
    caller's submission order.

    >>> from repro.simulation.catalog import get_scenario
    >>> longest_job_first([get_scenario("smoke"), get_scenario("10k-bidder-stress")])
    [1, 0]
    """
    costs = [spec.cost_estimate() for spec in specs]
    return sorted(range(len(specs)), key=lambda i: (-costs[i], i))


@dataclass
class SweepReport:
    """Cross-scenario aggregate of one runner invocation.

    ``to_json()`` is canonical: sorted keys, fixed float rounding, no
    timestamps or wall-clock timings — the same jobs always serialise to the
    same bytes, whatever the worker count.
    """

    results: tuple[ScenarioRunResult, ...]

    def _result_keys(self) -> list[str]:
        """One unique key per result: the scenario name, disambiguated by
        mechanism for cross-mechanism sweeps, by seed for replicate runs, and
        by submission position for exact duplicates.  Single-mechanism sweeps
        produce exactly the keys they always did."""
        mechanisms: dict[str, set[str]] = {}
        pair_counts: dict[tuple[str, str], int] = {}
        for r in self.results:
            mechanisms.setdefault(r.scenario, set()).add(r.mechanism)
            pair = (r.scenario, r.mechanism)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
        keys: list[str] = []
        used: set[str] = set()
        for r in self.results:
            key = r.scenario
            if len(mechanisms[r.scenario]) > 1:
                key = f"{key}+{r.mechanism}"
            if pair_counts[(r.scenario, r.mechanism)] > 1:
                key = f"{key}@seed{r.seed}"
            if key in used:  # same scenario, mechanism AND seed submitted twice
                suffix = 2
                while f"{key}#{suffix}" in used:
                    suffix += 1
                key = f"{key}#{suffix}"
            used.add(key)
            keys.append(key)
        return keys

    def aggregate(self) -> dict[str, object]:
        """The cross-scenario roll-up: premiums, migration, clearing effort."""
        keys = self._result_keys()
        return {
            "scenario_count": len(self.results),
            "total_auctions": sum(r.auctions for r in self.results),
            "total_trades": sum(r.trade_count for r in self.results),
            "mean_clearing_rounds": _round(
                float(np.mean([rounds for r in self.results for rounds in r.clearing_rounds]))
            )
            if self.results
            else 0.0,
            "premium_drop": {k: r.premium_drop for k, r in zip(keys, self.results)},
            "utilization_spread_change": {
                k: r.utilization_spread_change for k, r in zip(keys, self.results)
            },
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "scenarios": [r.to_dict() for r in self.results],
            "aggregate": self.aggregate(),
        }

    def to_json(self) -> str:
        """Canonical JSON (the byte-identical artifact the benchmark compares)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class ParallelRunner:
    """Schedule independent scenario jobs onto an execution backend.

    ``backend`` selects where jobs run: a registry name (``process`` or
    ``remote`` — see :mod:`repro.exec`), an already-configured
    :class:`~repro.exec.base.ExecutionBackend` instance, or ``None`` for the
    default ``process`` backend.  ``workers`` is forwarded to the backend:
    pool size for ``process`` (``None`` uses every core up to the job count;
    ``1`` runs serially in-process), minimum connected workers for
    ``remote``.  If a process pool cannot be created at all (sandboxes that
    forbid subprocesses), the process backend degrades to the serial path
    rather than failing — the report is identical either way.
    """

    def __init__(self, *, workers: int | None = None, backend=None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.backend = backend

    def _resolve_backend(self):
        """The configured backend instance jobs will run on."""
        from repro.exec import DEFAULT_BACKEND, create_backend

        backend = self.backend if self.backend is not None else DEFAULT_BACKEND
        if isinstance(backend, str):
            return create_backend(backend, workers=self.workers)
        return backend

    def run_specs(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        on_result: Callable[[ScenarioRunResult], None] | None = None,
        store=None,
        code_version: str | None = None,
    ) -> SweepReport:
        """Run every spec; stream each finished result to ``on_result``.

        ``on_result`` fires once per spec as its run completes (completion
        order under a pool); the returned report is always in submission
        order regardless of which worker finished first.  Jobs are handed to
        the pool in :func:`longest_job_first` order so heavyweight scenarios
        never become the makespan tail.

        ``store`` is an optional :class:`repro.results.ResultStore`: each
        result is persisted as it lands, under ``code_version`` (derived from
        the working tree when ``None`` — see
        :func:`repro.results.default_code_version`).
        """
        specs = list(specs)
        if store is not None:
            from repro.results.store import default_code_version

            version = code_version if code_version is not None else default_code_version()
            inner = on_result

            def on_result(result: ScenarioRunResult) -> None:  # noqa: F811 - chained callback
                store.record(result, code_version=version)
                if inner is not None:
                    inner(result)

        if not specs:
            return SweepReport(results=())
        results: list[ScenarioRunResult | None] = [None] * len(specs)

        def emit(i: int, result: ScenarioRunResult) -> None:
            results[i] = result
            if on_result is not None:
                on_result(result)

        # Heaviest jobs first: dispatch order decides the backend's makespan,
        # the ``results`` slot index keeps the report in submission order.
        backend = self._resolve_backend()
        backend.execute(specs, order=longest_job_first(specs), emit=emit)
        return SweepReport(results=tuple(r for r in results if r is not None))

    def run_replicates(
        self,
        spec: ScenarioSpec,
        replicates: int,
        *,
        on_result: Callable[[ScenarioRunResult], None] | None = None,
        store=None,
        code_version: str | None = None,
    ) -> SweepReport:
        """Run ``replicates`` copies of one scenario under seeds ``seed+i``."""
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        specs = [
            spec.with_overrides(seed=spec.config.seed + i) for i in range(replicates)
        ]
        return self.run_specs(
            specs, on_result=on_result, store=store, code_version=code_version
        )
