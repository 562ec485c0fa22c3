"""Workloads, measurement loop and metrics of the repository benchmark.

``bench/README.md`` explains each workload and metric.  In short: a
workload generates its scenario specs from the seed, drives the program
through its public API in a closed loop with one client (the next run or
sweep starts when the last one finished), checks every output, and reports
the end-to-end metrics named in ``BENCHMARK.json``.  A traced run measures
the same work twice, untraced and then traced with the wrappers of
:mod:`spans`, and reports the per-layer metrics instead.

End-to-end times are reported at a fixed reference host speed: between
units the run times :func:`speed_probe`, a fixed computation that touches no
code of the program, and scales each time by ``PROBE_REFERENCE_S`` over the
mean of the probes taken just before and just after it.  The speed of the
shared host drifts by 20-40% within minutes, in CPU time as well as wall
time, and every workload drifts with it; the probe drifts the same way, so
the ratio removes most of the drift.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable

import spans
from repro.core.settlement import verify_system_constraints
from repro.exec import RemoteBackend
from repro.mechanisms import mechanism_names
from repro.results.store import ResultStore
from repro.simulation.catalog import ScenarioSpec, default_sweep_names, get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.runner import (
    ParallelRunner,
    ScenarioRunResult,
    SweepReport,
    expand_mechanisms,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Runs are stored under this code version: the store must not shell out to
#: git (a benchmark checkout is not a repository) and keys stay comparable.
CODE_VERSION = "bench"
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Worker processes of the sweep workload: one per core of the 2-core box.
SWEEP_WORKERS = 2
#: Population of the reference run that warms up the stress workloads.
REFERENCE_TEAMS = 500
#: How long sweep workers get to connect before the run is abandoned.
CONNECT_TIMEOUT_S = 60.0
#: The :func:`speed_probe` time that end-to-end times are scaled to: a
#: typical one on the baseline machine of ``bench/README.md``, whose probes
#: take 0.035-0.09 s as its speed drifts.
PROBE_REFERENCE_S = 0.050


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads((BENCH_DIR / "pins.json").read_text())


def digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode("utf-8")).hexdigest()


def _with_teams(spec: ScenarioSpec, teams: int | None) -> ScenarioSpec:
    population = spec.config.population
    if teams is None or teams == population.team_count:
        return spec
    population = dataclasses.replace(population, team_count=teams)
    return dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, population=population)
    )


# -- host speed ----------------------------------------------------------------------


class _Item:
    __slots__ = ("key", "size", "price")

    def __init__(self, key: str, size: int, price: float):
        self.key, self.size, self.price = key, size, price


_PROBE_ITEMS = 30_000
_SHUFFLED = list(range(_PROBE_ITEMS))
random.Random(0).shuffle(_SHUFFLED)


def _probe_work() -> tuple:
    # The program's kinds of work in miniature: integer and dict churn; small
    # objects built, sorted and grouped by key; and reads of those objects in
    # random order, which miss the caches as reads of the program's large
    # heaps do.  The host's drift slows each kind by a different share, so
    # the probe holds all three.
    total, table = 0, {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
    items = [_Item(str(i & 63), i, float(i)) for i in range(_PROBE_ITEMS)]
    for _ in range(2):
        for i in _SHUFFLED:
            total += items[i].size
    items.sort(key=lambda item: (item.key, item.size))
    grouped: dict[str, float] = {}
    for item in items:
        grouped[item.key] = grouped.get(item.key, 0.0) + item.price * item.size
    return total, len(grouped)


def speed_probe() -> float:
    """Seconds one fixed reference computation takes on this host right now.

    The collector is off while it runs, so the time does not depend on how
    many objects the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# -- workloads -----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Market:
    """Whole runs of one catalog preset, in this process, seeds S, S+1, ...

    One op is one auction epoch (``MarketEconomySimulation.run_one_auction``);
    one unit of the loop is a full scenario run, whose report is persisted to
    the result store exactly as the runner does.
    """

    preset: str
    #: Replaces the preset's population size when set.
    team_count: int | None = None
    #: Replaces the preset's auctions per run when set.
    auctions: int | None = None

    op_spans = ("simulation.economy.epoch",)

    def spec(self, seed: int, *, smoke: bool = False) -> ScenarioSpec:
        preset = get_scenario(self.preset)
        if smoke:
            return get_scenario("smoke").with_overrides(
                seed=seed, auctions=1, engine=preset.config.auction_engine
            )
        spec = preset.with_overrides(seed=seed, auctions=self.auctions)
        return _with_teams(spec, self.team_count)

    def reference_spec(self, seed: int, *, smoke: bool = False) -> ScenarioSpec:
        spec = self.spec(seed, smoke=smoke)
        return _with_teams(spec, min(spec.config.population.team_count, REFERENCE_TEAMS))


@dataclasses.dataclass(frozen=True)
class Sweep:
    """Sweeps of the default catalog x every mechanism over the remote backend.

    One op is one job; one unit of the loop is one sweep (30 jobs, one
    replicate seed), submitted only after the previous sweep finished.
    """

    op_spans = ("mechanisms.market_job", "mechanisms.baseline_job")

    def specs(self, seed: int, *, smoke: bool = False) -> list[ScenarioSpec]:
        names = ["smoke"] if smoke else default_sweep_names()
        base = [
            get_scenario(name).with_overrides(seed=seed, auctions=1 if smoke else None)
            for name in names
        ]
        return expand_mechanisms(base, mechanism_names())

    def reference_specs(self, seed: int) -> list[ScenarioSpec]:
        base = get_scenario("smoke").with_overrides(seed=seed, auctions=1)
        return expand_mechanisms([base], mechanism_names())


WORKLOADS: dict[str, Market | Sweep] = {
    "paper-market": Market("paper-reference"),
    "stress-coupled": Market("10k-bidder-stress", team_count=2_500, auctions=1),
    "stress-sharded": Market("100k-bidder-stress", team_count=2_500, auctions=1),
    "sweep-remote": Sweep(),
}


# -- bookkeeping ---------------------------------------------------------------------


#: A time and the number of speed probes taken before it.
Sample = tuple[int, float]


@dataclasses.dataclass
class Tally:
    """What one pass over a workload measured.

    Op, set-up and busy times are :data:`Sample` s, so that each can be
    scaled by the probes taken just before and just after it.
    """

    op_seconds: list[Sample] = dataclasses.field(default_factory=list)
    unit_seconds: list[float] = dataclasses.field(default_factory=list)
    setup_seconds: list[Sample] = dataclasses.field(default_factory=list)
    #: Per unit, its time minus the set-up and output checks it contains.
    busy_seconds: list[Sample] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Canonical report of each finished unit, in order.
    reports: list[str] = dataclasses.field(default_factory=list)
    #: Epochs whose constraint report needed the per-bid re-check.
    rechecked: int = 0
    #: :func:`speed_probe` times, in the order taken.
    probe_seconds: list[float] = dataclasses.field(default_factory=list)

    def op(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if ok:
            self.op_seconds.append((len(self.probe_seconds), seconds))

    def setup(self, seconds: float) -> None:
        self.setup_seconds.append((len(self.probe_seconds), seconds))

    def probe(self) -> None:
        self.probe_seconds.append(speed_probe())

    def scaled(self, samples: list[Sample]) -> list[float]:
        """``samples`` at the reference host speed, each scaled by the mean
        of the probes taken just before and just after it."""
        probes = self.probe_seconds
        return [
            seconds * PROBE_REFERENCE_S / statistics.fmean(probes[max(n - 1, 0):n + 1])
            for n, seconds in samples
        ]


@dataclasses.dataclass
class Check:
    """One output digest compared against its pin."""

    label: str
    sha256: str
    pinned: str | None

    @property
    def ok(self) -> bool:
        return self.pinned is None or self.sha256 == self.pinned


def run_unit(step: Callable[[int], float], i: int, tally: Tally) -> None:
    """Time ``step(i)`` into ``tally``.

    ``step`` returns the seconds of its unit spent on set-up and output
    checks, which ``busy_seconds`` leaves out.  Garbage left by the previous
    unit is collected first, untimed, so every unit starts from the same heap
    and the peak RSS does not grow with the unit count.  The host's speed is
    probed after every unit, and before it if nothing was probed yet.
    """
    gc.collect()
    if not tally.probe_seconds:
        tally.probe()
    began = time.perf_counter()
    setup = step(i)
    elapsed = time.perf_counter() - began
    tally.unit_seconds.append(elapsed)
    tally.busy_seconds.append((len(tally.probe_seconds), elapsed - setup))
    tally.probe()


def measure(step: Callable[[int], float], budget: float, tally: Tally,
            units: int | None = None) -> int:
    """Run units ``step(0), step(1), ...`` until the next would overrun ``budget``.

    At least one unit always runs; ``units`` replays a fixed count instead.
    Returns the number of units run.
    """
    start = time.perf_counter()
    done = 0
    while True:
        if units is not None:
            if done >= units:
                break
        elif done and (time.perf_counter() - start) + statistics.fmean(tally.unit_seconds) > budget:
            break
        run_unit(step, done, tally)
        done += 1
    return done


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- market workloads ----------------------------------------------------------------


def constraints_ok(result, bids: list) -> bool:
    """Whether an auction's settlement meets the SYSTEM constraints.

    ``verify_system_constraints`` pairs settlement lines with bids by bidder
    name, so a team that placed several bids in one auction has every line
    checked against its last bid and reported as a violation.  Reports are
    therefore re-checked with each line paired with its own bid (lines follow
    the bids' submission order), bidders made unique by position.
    """
    if result.constraints.satisfied:
        return True
    lines = result.settlement.lines
    if len(lines) != len(bids) or any(
        line.bidder != bid.bidder for line, bid in zip(lines, bids)
    ):
        return False
    settlement = dataclasses.replace(result.settlement, lines=[
        dataclasses.replace(line, bidder=f"{i}:{line.bidder}") for i, line in enumerate(lines)
    ])
    unique_bids = [
        dataclasses.replace(bid, bidder=f"{i}:{bid.bidder}") for i, bid in enumerate(bids)
    ]
    return verify_system_constraints(settlement, unique_bids).satisfied


@dataclasses.dataclass
class EpochLog:
    """Per-epoch outcomes of one market run."""

    epochs: list[tuple[float, bool]] = dataclasses.field(default_factory=list)
    #: Epochs whose constraint report needed the per-bid re-check.
    rechecked: int = 0
    check_seconds: float = 0.0


def run_market(spec: ScenarioSpec, store: ResultStore, log: EpochLog,
               scope: Callable[[int], contextlib.AbstractContextManager]) -> tuple[float, str]:
    """One scenario run: the market mechanism's own steps, with each epoch timed.

    Logs ``(seconds, ok)`` per finished epoch and returns the build time and
    the run's canonical report.
    """
    start = time.perf_counter()
    scenario = spec.build()
    build_s = time.perf_counter() - start
    sim = MarketEconomySimulation(
        scenario, drift_scale=spec.drift_scale, preliminary_runs=spec.preliminary_runs
    )
    run_one = sim.run_one_auction

    def timed_epoch():
        with scope(len(log.epochs) + 1):
            began = time.perf_counter()
            period = run_one()
            seconds = time.perf_counter() - began
        began = time.perf_counter()
        result = period.record.result
        bids = [order.bid for order in scenario.platform.order_book.orders()]
        ok = bool(result.outcome.converged) and constraints_ok(result, bids)
        log.rechecked += not result.constraints.satisfied
        log.epochs.append((seconds, ok))
        log.check_seconds += time.perf_counter() - began
        return period

    sim.run_one_auction = timed_epoch
    history = sim.run(spec.auctions)
    result = ScenarioRunResult.from_history(spec, scenario, history)
    store.record(result, code_version=CODE_VERSION)
    return build_s, SweepReport(results=(result,)).to_json()


def _market_step(workload: Market, name: str, seed: int, smoke: bool, store: ResultStore,
                 tally: Tally, recorder: spans.Recorder | None) -> Callable[[int], float]:
    def step(i: int) -> float:
        spec = workload.spec(seed + i, smoke=smoke)
        log = EpochLog()

        def scope(epoch: int):
            if recorder is None:
                return contextlib.nullcontext()
            return recorder.scope(f"{name}/{seed + i}/{epoch}")

        try:
            build_s, report = run_market(spec, store, log, scope)
        except Exception:
            traceback.print_exc()
            log.epochs.append((0.0, False))  # the epoch that raised
            build_s, report = 0.0, None
        for seconds, ok in log.epochs:
            tally.op(seconds, ok)
        tally.rechecked += log.rechecked
        if report is not None:
            tally.setup(build_s)
            tally.reports.append(report)
        return build_s + log.check_seconds

    return step


def _run_market_workload(name: str, workload: Market, seed: int, seconds: float,
                         trace: bool, smoke: bool, workdir: Path, pins: dict) -> dict:
    checks: list[Check] = []
    with ResultStore(workdir / "results.sqlite") as store:
        # Warm-up, discarded from timing: a reference run at the pinned seed
        # exercises the same engine paths and checks the output bytes.
        _, report = run_market(
            workload.reference_spec(pins["pin_seed"], smoke=smoke), store, EpochLog(),
            lambda _: contextlib.nullcontext(),
        )
        checks.append(_check("reference", report, pins, name, "reference_sha256", smoke))

        untraced = Tally()
        plain = _market_step(workload, name, seed, smoke, store, untraced, None)
        if not trace:
            spec = workload.spec(seed, smoke=smoke)
            untraced.probe()
            for _ in range(SETUP_REPEATS - 1):
                start = time.perf_counter()
                spec.build()
                untraced.setup(time.perf_counter() - start)
            measure(plain, seconds, untraced)
        else:
            # Each unit runs untraced and then again traced, so both sides of
            # trace_overhead_frac see the same host.
            recorder = spans.Recorder()
            traced = Tally()
            replay = _market_step(workload, name, seed, smoke, store, traced, recorder)
            skipped: list[str] = []

            def paired(i: int) -> float:
                run_unit(plain, i, untraced)
                restore, skipped[:] = spans.install(recorder)
                try:
                    run_unit(replay, i, traced)
                finally:
                    restore()
                return 0.0

            measure(paired, seconds, Tally())
        if seed == pins["pin_seed"] and untraced.reports:
            checks.append(_check(f"seed {seed} first run", untraced.reports[0], pins, name,
                                 "default_seed_sha256", smoke))
    if not trace:
        return _end_to_end(untraced, checks)
    return _per_layer(name, recorder, skipped, workload.op_spans, untraced, traced, checks)


# -- the sweep workload --------------------------------------------------------------


def _spawn_worker(address: str, index: int, workdir: Path, traced: bool) -> subprocess.Popen:
    worker_id = f"bench-w{index}"
    if traced:
        command = [sys.executable, str(BENCH_DIR / "worker.py"), "--connect", address,
                   "--id", worker_id, "--id-base", str((index + 1) * 10**9),
                   "--spans", str(workdir / f"{worker_id}.spans.jsonl")]
    else:
        command = [sys.executable, "-m", "repro", "worker", "--connect", address,
                   "--id", worker_id, "--retry", "30"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with open(workdir / f"{worker_id}.log", "ab") as log:
        return subprocess.Popen(command, cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)


def _reap(processes: list[subprocess.Popen]) -> None:
    """Wait for every worker; kill whichever has not exited after 10 s."""
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


@contextlib.contextmanager
def fleet(workdir: Path, recorder: spans.Recorder | None = None):
    """A persistent coordinator and its local worker processes.

    Yields ``(backend, seconds from spawn until every worker connected)``.
    The workers are shut down, and killed if need be, on every exit path.
    """
    transport = spans.tracing_transport(recorder) if recorder is not None else None
    backend = RemoteBackend(bind="127.0.0.1:0", workers=SWEEP_WORKERS, quiet=True,
                            persistent=True, transport=transport)
    processes: list[subprocess.Popen] = []
    try:
        start = time.perf_counter()
        address = backend.listen()
        for index in range(SWEEP_WORKERS):
            processes.append(_spawn_worker(address, index, workdir, recorder is not None))
        deadline = time.monotonic() + CONNECT_TIMEOUT_S
        while backend.connected_workers() < SWEEP_WORKERS:
            if any(process.poll() is not None for process in processes):
                raise RuntimeError(f"a sweep worker exited before connecting; see {workdir}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"sweep workers did not connect within {CONNECT_TIMEOUT_S} s")
            time.sleep(0.005)
        yield backend, time.perf_counter() - start
    finally:
        backend.close()
        _reap(processes)
    if recorder is not None:
        for index in range(SWEEP_WORKERS):
            path = workdir / f"bench-w{index}.spans.jsonl"
            if path.exists():
                recorder.merge_file(path)
                path.unlink()


def _sweep_step(workload: Sweep, backend: RemoteBackend, seed: int, smoke: bool,
                store: ResultStore, tally: Tally,
                recorder: spans.Recorder | None) -> Callable[[int], float]:
    runner = ParallelRunner(backend=backend)

    def step(i: int) -> float:
        specs = workload.specs(seed + i, smoke=smoke)
        jobs: list[float] = []
        scope = recorder.scope(f"sweep-remote/{seed + i}") if recorder else contextlib.nullcontext()
        try:
            with scope:
                report = runner.run_specs(
                    specs, store=store, code_version=CODE_VERSION,
                    on_result=lambda result: jobs.append(result.wall_time_seconds),
                )
            requeues = backend.last_sweep_stats.requeues
        except Exception:
            traceback.print_exc()
            report, requeues = None, 0
        if recorder is not None:
            recorder.add("exec.requeues", requeues)
        for seconds in jobs:
            tally.op(seconds, True)
        tally.attempted += len(specs) - len(jobs)
        tally.failed += len(specs) - len(jobs) + requeues
        if report is not None:
            tally.reports.append(report.to_json())
        return 0.0

    return step


def _warm_up(backend: RemoteBackend, workload: Sweep, pins: dict, name: str, smoke: bool,
             label: str) -> Check:
    """Run the reference sweep: every worker imports and runs every mechanism
    before the clock starts, and the report's bytes are checked against the pin."""
    reference = ParallelRunner(backend=backend).run_specs(
        workload.reference_specs(pins["pin_seed"]))
    return _check(label, reference.to_json(), pins, name, "reference_sha256", smoke)


def _run_sweep_workload(name: str, workload: Sweep, seed: int, seconds: float, trace: bool,
                        smoke: bool, workdir: Path, pins: dict) -> dict:
    checks: list[Check] = []
    untraced = Tally()
    budget = seconds / 2 if trace else seconds
    with ResultStore(workdir / "results.sqlite") as store:
        untraced.probe()
        for _ in range(0 if trace or smoke else SETUP_REPEATS - 1):
            with fleet(workdir) as (_, connect_s):
                untraced.setup(connect_s)
        with fleet(workdir) as (backend, connect_s):
            untraced.setup(connect_s)
            checks.append(_warm_up(backend, workload, pins, name, smoke, "reference"))
            units = measure(_sweep_step(workload, backend, seed, smoke, store, untraced, None),
                            budget, untraced)
        if seed == pins["pin_seed"] and untraced.reports:
            checks.append(_check(f"seed {seed} first sweep", untraced.reports[0], pins, name,
                                 "default_seed_sha256", smoke))
        if not trace:
            return _end_to_end(untraced, checks)

        recorder = spans.Recorder()
        traced = Tally()
        restore, skipped = spans.install(recorder)
        try:
            with fleet(workdir, recorder) as (backend, _):
                # The traced workers are fresh processes: warm them up too.
                checks.append(_warm_up(backend, workload, pins, name, smoke, "traced reference"))
                recorder.counters.clear()
                measured_from = time.perf_counter_ns()
                measure(_sweep_step(workload, backend, seed, smoke, store, traced, recorder),
                        budget, traced, units=units)
        finally:
            restore()
    # Worker spans share the coordinator's monotonic clock; drop the warm-up's.
    recorder.spans = [span for span in recorder.spans if span.start >= measured_from]
    return _per_layer(name, recorder, skipped, workload.op_spans, untraced, traced, checks)


# -- results -------------------------------------------------------------------------


def _check(label: str, report: str, pins: dict, name: str, key: str, smoke: bool) -> Check:
    pinned = None if smoke else pins["workloads"].get(name, {}).get(key)
    return Check(f"{name} {label}", digest(report), pinned)


def _result(tally: Tally, checks: list[Check], values: dict[str, float], section: str) -> dict:
    units = {metric["name"]: metric["unit"] for metric in load_config()[section]}
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"no value computed for declared metrics: {sorted(missing)}")
    failed = tally.failed + sum(not check.ok for check in checks)
    return {
        "correct": failed == 0,
        "attempted": tally.attempted + len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "checks": checks,
        "ops": len(tally.op_seconds),
        "rechecked": tally.rechecked,
    }


def _times(setups: list[float], ops: list[float], busy: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "op_p50_s": statistics.median(ops) if ops else 0.0,
        "ops_per_s": len(ops) / busy if busy else 0.0,
    }


def _end_to_end(tally: Tally, checks: list[Check]) -> dict:
    """End-to-end metrics, times at the reference host speed."""
    values = _times(tally.scaled(tally.setup_seconds), tally.scaled(tally.op_seconds),
                    sum(tally.scaled(tally.busy_seconds)))
    values["peak_rss_mb"] = peak_rss_mb()
    result = _result(tally, checks, values, "end_to_end")

    def raw(samples: list[Sample]) -> list[float]:
        return [seconds for _, seconds in samples]

    result["speed"] = {
        "probe_s": statistics.median(tally.probe_seconds),
        "probes": len(tally.probe_seconds),
        "raw": _times(raw(tally.setup_seconds), raw(tally.op_seconds),
                      sum(raw(tally.busy_seconds))),
    }
    return result


def layer_metrics(recorder: spans.Recorder, op_names: tuple[str, ...],
                  overhead: float) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one traced pass.

    Times are seconds per op (epoch or job), set-up layers seconds per
    scenario build, counts per op.
    """
    by_name: dict[str, list[spans.Span]] = defaultdict(list)
    for span in recorder.spans:
        by_name[span.name].append(span)
    selfs = spans.self_times(recorder.spans)
    ops = sum(len(by_name[name]) for name in op_names)
    builds = len(by_name["simulation.scenario.build"])

    def total(*names: str) -> float:
        return sum(span.duration for name in names for span in by_name[name]) / 1e9

    def self_time(name: str) -> float:
        return sum(selfs[span.id] for span in by_name[name]) / 1e9

    def calls(*names: str) -> int:
        return sum(len(by_name[name]) for name in names)

    def fact(name: str, key: str) -> list[float]:
        return [span.attrs[key] for span in by_name[name] if span.attrs and key in span.attrs]

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def per_build(value: float) -> float:
        return value / builds if builds else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Demand collection: the batch and delta kernels, plus the scalar engine's
    # proxy calls (settlement also asks proxies, outside the clock run).
    clock_runs = {span.id for span in by_name["core.clock.run"]}
    demand = by_name["core.batch.respond_all"] + by_name["core.batch.advance"] + [
        span for span in by_name["core.proxy.respond"] if span.parent in clock_runs
    ]
    submits = by_name["market.submit_bid"]
    admitted = sum(span.ok for span in submits)
    rounds = sum(fact("core.clock.run", "rounds"))
    shards = fact("core.clock.run", "shards")
    rows = sum(fact("core.batch.advance", "rows")) + sum(fact("core.batch.respond_all", "rows"))
    of = sum(fact("core.batch.advance", "of")) + sum(fact("core.batch.respond_all", "of"))
    return {
        "cluster.generate_fleet_s": per_build(total("cluster.generate_fleet")),
        "agents.build_population_s": per_build(total("agents.build_population")),
        "market.register_team_s": per_build(total("market.register_team")),
        "agents.prepare_bids_s": per_op(total("agents.prepare_bids")),
        "agents.prepare_bids_calls": per_op(calls("agents.prepare_bids")),
        "agents.observe_settlement_s": per_op(total("agents.observe_settlement")),
        "market.submit_bid_s": per_op(total("market.submit_bid")),
        "market.bids_admitted": per_op(admitted),
        "market.bid_reject_frac": ratio(len(submits) - admitted, len(submits)),
        "market.finalize_self_s": per_op(self_time("market.finalize")),
        "market.quotas_snapshot_s": per_op(total("market.quotas_snapshot")),
        "core.bids.validate_bid_s": per_op(total("core.bids.validate_bid")),
        "core.exchange.self_s": per_op(self_time("core.exchange.run")),
        "core.reserve.reserve_prices_s": per_op(total("core.reserve.reserve_prices")),
        "core.clock.init_s": per_op(total("core.clock.init")),
        "core.batch.init_s": per_op(total("core.batch.init")),
        "core.clock.run_s": per_op(total("core.clock.run")),
        "core.clock.self_s": per_op(self_time("core.clock.run")),
        "core.clock.rounds": per_op(rounds),
        "core.clock.rounds_per_s": ratio(rounds, total("core.clock.run")),
        "core.demand.collect_s": per_op(sum(span.duration for span in demand) / 1e9),
        "core.demand.collect_calls": per_op(len(demand)),
        "core.batch.rows_fraction": ratio(rows, of),
        "core.batch.effective_shards": statistics.fmean(shards) if shards else 0.0,
        "core.increment.increment_s": per_op(total("core.increment.increment")),
        "core.settlement.settle_s": per_op(
            total("core.settlement.settle", "core.settlement.settle_bid")),
        "core.settlement.verify_s": per_op(total("core.settlement.verify")),
        "simulation.economy.demands_from_agents_s": per_op(
            total("simulation.economy.demands_from_agents")),
        "simulation.economy.allocation_metrics_s": per_op(total(
            "baselines.comparison.requests_from_demands",
            "baselines.comparison.allocation_metrics",
            "baselines.comparison.market_outcome_from_quota_delta")),
        "simulation.economy.drift_s": per_op(total(
            "simulation.workload.organic_drift", "simulation.workload.apply_settlement")),
        "analysis.epoch_stats_s": per_op(total(
            "analysis.settled_trades", "analysis.premium_stats",
            "analysis.price_ratio_table", "analysis.migration_summary")),
        "simulation.economy.self_s": per_op(self_time("simulation.economy.epoch")),
        "simulation.runner.from_history_s": per_op(total("simulation.runner.from_history")),
        "results.store.record_s": per_op(total("results.store.record")),
        "exec.wire.bytes": per_op(recorder.counters.get("exec.wire.bytes", 0)),
        "exec.requeues": recorder.counters.get("exec.requeues", 0),
        "exec.worker_busy_frac": ratio(
            total("mechanisms.market_job", "mechanisms.baseline_job"),
            SWEEP_WORKERS * total("simulation.runner.run_specs")),
        "trace.child_coverage": spans.coverage(recorder.spans, op_names),
        "trace_overhead_frac": overhead,
    }


def _per_layer(name: str, recorder: spans.Recorder, skipped: list[str],
               op_names: tuple[str, ...], untraced: Tally, traced: Tally,
               checks: list[Check]) -> dict:
    overhead = sum(traced.unit_seconds) / sum(untraced.unit_seconds) - 1.0
    tally = dataclasses.replace(
        untraced,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
    )
    # Tracing may cost time, never output: the replay must reproduce the
    # untraced pass's reports byte for byte.
    checks.append(Check(f"{name} traced replay", digest("".join(traced.reports)),
                        digest("".join(untraced.reports))))
    result = _result(tally, checks, layer_metrics(recorder, op_names, overhead), "per_layer")
    result["layers"] = spans.layer_rows(recorder.spans, op_names)
    result["skipped_targets"] = skipped
    result["recorder"] = recorder
    return result


@contextlib.contextmanager
def _scratch(workdir: Path | None):
    """The run's scratch directory: ``workdir``, or a fresh one under ``.bench_tmp``."""
    if workdir is not None:
        yield workdir
        return
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False, workdir: Path | None = None) -> dict:
    """Measure one workload; returns the result object ``run.py`` prints.

    ``smoke`` swaps every scenario for the catalog's ``smoke`` preset with one
    auction and skips the pinned digests (the self-test's dry run).
    """
    workload = WORKLOADS[name]
    pins = load_pins()
    run = _run_market_workload if isinstance(workload, Market) else _run_sweep_workload
    with _scratch(workdir) as scratch:
        return run(name, workload, seed, seconds, trace, smoke, scratch, pins)
