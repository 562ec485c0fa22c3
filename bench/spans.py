"""Span recording for the benchmark's traced runs.

A traced run wraps the program's callables at layer boundaries *from
outside*: nothing in ``src/repro`` is edited, the wrappers are installed on
the classes and module namespaces for the duration of the traced pass and
removed afterwards.  Each
call becomes a :class:`Span` (name, start/end in ``perf_counter_ns``, parent
span, thread, run id) kept in memory; :func:`layer_rows` and
:func:`self_times` turn the spans into the per-layer breakdown.

Nesting is tracked with :mod:`contextvars`, so each thread has its own chain
of open spans.  The sharded auction engine runs shard discovery on a thread
pool; while tracing, that pool is swapped for one that runs each task in a
copy of the submitting context, so spans on pool threads keep the clock run
that submitted them as their parent (cross-thread children).

A span's *self time* is its duration minus the part of its interval covered
by its children.  Children may overlap (pool threads run side by side), so
coverage is the length of the union of the child intervals, clipped to the
parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

_parent: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_span_parent", default=None
)
_run: contextvars.ContextVar[str] = contextvars.ContextVar("bench_span_run", default="")


@dataclass(slots=True)
class Span:
    """One timed call."""

    id: int
    parent: int | None
    name: str
    start: int
    end: int
    thread: int
    run: str
    ok: bool = True
    attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Collects spans and counters in memory until the run ends.

    ``id_base`` keeps span ids unique when spans recorded by several
    processes (the coordinator and its traced workers) are merged.
    """

    def __init__(self, id_base: int = 0):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(id_base + 1)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as a span nested under the current one.

        Yields a dict; whatever the block puts there is stored as the span's
        facts.  A block that raises is recorded with ``ok=False``.
        """
        span_id = next(self._ids)
        parent = _parent.get()
        token = _parent.set(span_id)
        facts: dict = {}
        start = time.perf_counter_ns()
        ok = False
        try:
            yield facts
            ok = True
        finally:
            end = time.perf_counter_ns()
            _parent.reset(token)
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), _run.get(),
                     ok, facts or None)
            )

    @contextlib.contextmanager
    def scope(self, run_id: str):
        """Tag every span opened inside the block with ``run_id``."""
        token = _run.set(run_id)
        try:
            yield
        finally:
            _run.reset(token)

    def add(self, counter: str, value: float) -> None:
        """Add to a named counter (callable from any thread)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, result)`` adds facts."""

        # ``span()`` spelled out: this runs on every call of hot callables,
        # and the generator-based context manager would double its cost.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = _parent.get()
            token = _parent.set(span_id)
            start = time.perf_counter_ns()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                _parent.reset(token)
                facts = attrs(args, result) if (ok and attrs is not None) else None
                self.spans.append(Span(span_id, parent, name, start, end,
                                       threading.get_ident(), _run.get(), ok, facts))

        return traced

    def dump(self, path) -> None:
        """Write spans (one JSON object per line) and counters to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")

    def merge_file(self, path) -> None:
        """Fold spans and counters another process dumped into this recorder."""
        with open(path, encoding="utf-8") as lines:
            header = json.loads(next(lines))
            for key, value in header["counters"].items():
                self.add(key, value)
            self.spans.extend(Span(**json.loads(line)) for line in lines)


class ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# -- what a traced run wraps ---------------------------------------------------------


def _clock_facts(args, outcome) -> dict:
    auction = args[0]
    plan = getattr(auction, "shard_plan", None)
    sharded = plan is not None and not getattr(auction, "sharded_fallback", False)
    return {"rounds": outcome.round_count, "shards": plan.effective_shards if sharded else 1}


def _advance_facts(args, _result) -> dict:
    state = args[0]
    return {"rows": state.rows_evaluated[-1], "of": state.engine.bundle_rows}


def _respond_all_facts(args, _result) -> dict:
    return {"rows": args[0].bundle_rows, "of": args[0].bundle_rows}


#: (span name, "module:attribute path", facts).  A name re-imported into
#: several modules is wrapped in each namespace its callers look it up in.
#: Targets that no longer exist are skipped, so a refactor of the program
#: costs a layer row, not the traced run.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("simulation.scenario.build", "repro.simulation.catalog:ScenarioSpec.build", None),
    ("cluster.generate_fleet", "repro.simulation.scenario:generate_fleet", None),
    ("agents.build_population", "repro.simulation.scenario:build_population", None),
    ("market.register_team", "repro.market.platform:TradingPlatform.register_team", None),
    ("simulation.economy.epoch",
     "repro.simulation.economy:MarketEconomySimulation.run_one_auction", None),
    ("simulation.economy.refresh_agents",
     "repro.simulation.economy:MarketEconomySimulation._refresh_agent_state", None),
    ("simulation.economy.demands_from_agents",
     "repro.simulation.economy:demands_from_agents", None),
    ("simulation.economy.demands_from_agents",
     "repro.mechanisms.baseline:demands_from_agents", None),
    ("baselines.comparison.requests_from_demands",
     "repro.simulation.economy:requests_from_demands", None),
    ("agents.prepare_bids", "repro.agents.base:TeamAgent.prepare_bids", None),
    ("market.submit_bid", "repro.market.platform:TradingPlatform.submit_bid", None),
    ("market.finalize", "repro.market.platform:TradingPlatform.finalize_auction", None),
    ("core.exchange.run", "repro.core.exchange:CombinatorialExchange.run", None),
    ("core.bids.validate_bid", "repro.core.exchange:validate_bid", None),
    ("core.reserve.reserve_prices", "repro.core.reserve:ReservePricer.reserve_prices", None),
    ("core.clock.init", "repro.core.clock_auction:AscendingClockAuction.__init__", None),
    ("core.clock.run", "repro.core.clock_auction:AscendingClockAuction.run", _clock_facts),
    ("core.batch.init", "repro.core.batch:BatchDemandEngine.__init__", None),
    ("core.batch.respond_all", "repro.core.batch:BatchDemandEngine.respond_all",
     _respond_all_facts),
    ("core.batch.incremental", "repro.core.batch:BatchDemandEngine.incremental", None),
    ("core.batch.advance", "repro.core.batch:IncrementalDemandState.advance", _advance_facts),
    ("core.batch.plan_shards", "repro.core.batch:BatchDemandEngine.plan_shards", None),
    ("core.batch.restrict", "repro.core.batch:BatchDemandEngine.restrict", None),
    ("core.proxy.respond", "repro.core.proxy:BidderProxy.respond", None),
    ("core.increment.increment", "repro.core.increment:ProportionalIncrement.increment", None),
    ("core.increment.increment", "repro.core.increment:CappedIncrement.increment", None),
    ("core.increment.increment", "repro.core.increment:AdditiveIncrement.increment", None),
    ("core.increment.increment", "repro.core.increment:NormalizedIncrement.increment", None),
    ("core.settlement.settle", "repro.core.exchange:settle", None),
    ("core.settlement.settle_bid", "repro.core.exchange:settle_bid", None),
    ("core.settlement.verify", "repro.core.exchange:verify_system_constraints", None),
    ("market.quotas_snapshot", "repro.market.quotas:QuotaRegistry.snapshot", None),
    ("agents.observe_settlement", "repro.agents.base:TeamAgent.observe_settlement", None),
    ("simulation.workload.apply_settlement",
     "repro.simulation.economy:apply_settlement_to_utilization", None),
    ("simulation.workload.apply_settlement",
     "repro.mechanisms.baseline:apply_settlement_to_utilization", None),
    ("simulation.workload.organic_drift", "repro.simulation.economy:organic_drift", None),
    ("simulation.workload.organic_drift", "repro.mechanisms.baseline:organic_drift", None),
    ("analysis.settled_trades", "repro.simulation.economy:settled_trades", None),
    ("analysis.premium_stats", "repro.simulation.economy:premium_stats", None),
    ("analysis.price_ratio_table", "repro.simulation.economy:price_ratio_table", None),
    ("analysis.migration_summary", "repro.simulation.economy:migration_summary", None),
    ("baselines.comparison.allocation_metrics",
     "repro.simulation.economy:allocation_metrics", None),
    ("baselines.comparison.allocation_metrics",
     "repro.mechanisms.baseline:allocation_metrics", None),
    ("baselines.comparison.market_outcome_from_quota_delta",
     "repro.simulation.economy:market_outcome_from_quota_delta", None),
    ("mechanisms.baseline.epoch",
     "repro.mechanisms.baseline:BaselineEconomySimulation.run_one_epoch", None),
    ("simulation.runner.from_history",
     "repro.simulation.runner:ScenarioRunResult.from_history", None),
    ("results.store.record", "repro.results.store:ResultStore.record", None),
    ("simulation.runner.run_specs", "repro.simulation.runner:ParallelRunner.run_specs", None),
    ("exec.execute", "repro.exec.coordinator:RemoteBackend.execute", None),
    ("exec.wire.encode_spec", "repro.exec.coordinator:encode_spec_b64", None),
    ("exec.wire.result_from_wire", "repro.exec.coordinator:result_from_wire", None),
    ("exec.wire.decode_spec", "repro.exec.worker:decode_spec_b64", None),
    ("exec.wire.result_to_wire", "repro.exec.worker:result_to_wire", None),
)


def install(recorder: Recorder) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target; returns ``(restore, skipped target paths)``."""
    patched: list[tuple[object, str, object]] = []
    skipped: list[str] = []
    for name, path, facts in TARGETS:
        module_name, _, qualname = path.partition(":")
        *owners, attr = qualname.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            skipped.append(path)
            continue
        raw = vars(owner).get(attr)
        if raw is None:
            skipped.append(path)
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__, facts))
        else:
            wrapped = recorder.wrap(name, raw, facts)
        setattr(owner, attr, wrapped)
        patched.append((owner, attr, raw))
    clock = importlib.import_module("repro.core.clock_auction")
    if hasattr(clock, "ThreadPoolExecutor"):
        patched.append((clock, "ThreadPoolExecutor", clock.ThreadPoolExecutor))
        clock.ThreadPoolExecutor = ContextPool

    def restore() -> None:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)

    return restore, skipped


def tracing_transport(recorder: Recorder):
    """A wire transport that times sends and counts the bytes of frames both ways.

    Frame sizes are recomputed from the message with the wire's own encoding
    (length prefix included), so the count matches what crossed the socket.
    """
    from repro.exec.wire import Transport

    def frame_bytes(message: dict) -> int:
        return 4 + len(json.dumps(message, separators=(",", ":"), sort_keys=True).encode())

    class TracingTransport(Transport):
        def send(self, sock, message):
            recorder.add("exec.wire.bytes", frame_bytes(message))
            with recorder.span("exec.wire.send"):
                super().send(sock, message)

        def recv(self, sock):
            message = super().recv(sock)
            if message is not None:
                recorder.add("exec.wire.bytes", frame_bytes(message))
            return message

    return TracingTransport()


# -- analysis ------------------------------------------------------------------------


def _union_length(intervals: Iterable[tuple[int, int]]) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _children_of(spans: Sequence[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def covered(span: Span, kids: Iterable[Span]) -> int:
    """Nanoseconds of ``span`` covered by the union of its children."""
    return _union_length(
        (max(kid.start, span.start), min(kid.end, span.end)) for kid in kids
    )


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    children = _children_of(spans)
    return {span.id: span.duration - covered(span, children.get(span.id, ())) for span in spans}


def coverage(spans: Sequence[Span], op_names: Iterable[str]) -> float:
    """Share of op-span time that named child spans cover."""
    names = set(op_names)
    children = _children_of(spans)
    ops = [span for span in spans if span.name in names]
    total = sum(span.duration for span in ops)
    hit = sum(covered(span, children.get(span.id, ())) for span in ops)
    return hit / total if total else 0.0


def layer_rows(spans: Sequence[Span], op_names: Iterable[str]) -> list[dict]:
    """One row per span name: calls, total, self, share of op time, p50/p95 per call."""
    names = set(op_names)
    op_total = sum(span.duration for span in spans if span.name in names)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    rows = []
    for name, group in by_name.items():
        durations = sorted(span.duration for span in group)
        total = sum(durations)
        rows.append(
            {
                "name": name,
                "calls": len(group),
                "total_s": total / 1e9,
                "self_s": sum(selfs[span.id] for span in group) / 1e9,
                "share": total / op_total if op_total else 0.0,
                "p50_ms": statistics.median(durations) / 1e6,
                "p95_ms": durations[min(len(durations) - 1, int(0.95 * len(durations)))] / 1e6,
            }
        )
    rows.sort(key=lambda row: -row["total_s"])
    return rows
