"""Hermetic self-test of the benchmark harness.

Checks the span arithmetic on synthetic spans, the names in
``BENCHMARK.json``, the harness's output checks and A/B verdicts, and a
smoke-scale dry run of every workload (the ``smoke`` preset, one auction).
Makes no assertion on wall-clock time and writes only to temp dirs.
"""

from __future__ import annotations

import contextlib
import json
import re
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import spans
from repro.agents.base import TeamAgent
from repro.cluster.pools import demo_pool_index
from repro.core.bids import Bid
from repro.core.settlement import settle, verify_system_constraints
from repro.results.store import ResultStore
from repro.simulation.runner import SweepReport, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _span(span_id, parent, start, end, name="child", thread=1):
    return spans.Span(span_id, parent, name, start, end, thread, "run")


def test_self_time_subtracts_the_union_of_nested_children():
    trace = [
        _span(1, None, 0, 100, name="root"),
        _span(2, 1, 10, 40),
        _span(3, 2, 20, 30),
        _span(4, 1, 35, 60),  # overlaps its sibling: covered once
    ]
    assert spans.self_times(trace) == {1: 50, 2: 20, 3: 10, 4: 25}
    assert spans.coverage(trace, ["root"]) == pytest.approx(0.5)


def test_self_time_of_cross_thread_children_is_clipped_to_the_parent():
    trace = [
        _span(1, None, 0, 100, name="root"),
        _span(2, 1, 10, 70, thread=2),
        _span(3, 1, 50, 130, thread=3),  # outlives the parent
    ]
    assert spans.self_times(trace)[1] == 10
    assert spans.coverage(trace, ["root"]) == pytest.approx(0.9)


def test_times_are_scaled_by_the_probes_around_them():
    tally = harness.Tally(probe_seconds=[0.1, 0.3])
    ref = harness.PROBE_REFERENCE_S
    # Before the first probe, between the two, and after the last.
    samples = [(0, 1.0), (1, 2.0), (2, 3.0)]
    assert tally.scaled(samples) == pytest.approx([ref / 0.1, 2 * ref / 0.2, 3 * ref / 0.3])


def test_pool_threads_nest_under_the_submitting_span():
    recorder = spans.Recorder()
    work = recorder.wrap("child", lambda: None)
    with recorder.span("parent"):
        with spans.ContextPool(max_workers=2) as pool:
            for future in [pool.submit(work) for _ in range(4)]:
                future.result()
    parent = next(span for span in recorder.spans if span.name == "parent")
    children = [span for span in recorder.spans if span.name == "child"]
    assert len(children) == 4
    assert {child.parent for child in children} == {parent.id}


def test_install_restores_every_wrapped_callable():
    original = TeamAgent.prepare_bids
    restore, _ = spans.install(spans.Recorder())
    try:
        assert TeamAgent.prepare_bids is not original
    finally:
        restore()
    assert TeamAgent.prepare_bids is original


def test_every_name_in_benchmark_json_is_well_formed():
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert set(harness.WORKLOADS) == {w["name"] for w in CONFIG["workloads"]}


def test_constraint_recheck_pairs_each_line_with_its_own_bid():
    index = demo_pool_index()
    bids = [
        Bid.buy("team", index, [{"a/cpu": 10}], max_payment=100.0),
        Bid.buy("team", index, [{"b/cpu": 5}], max_payment=100.0),
    ]
    settlement = settle(index, bids, np.ones(len(index)), supply=np.full(len(index), 50.0))
    report = verify_system_constraints(settlement, bids)
    assert not report.satisfied  # both lines were checked against the last bid
    result = types.SimpleNamespace(settlement=settlement, constraints=report)
    assert harness.constraints_ok(result, bids)
    assert not harness.constraints_ok(result, bids[::-1])


def test_bench_market_run_reproduces_the_runner_report(tmp_path):
    spec = harness.WORKLOADS["paper-market"].spec(5, smoke=True)
    log = harness.EpochLog()
    with ResultStore(tmp_path / "results.sqlite") as store:
        _, report = harness.run_market(spec, store, log, lambda _: contextlib.nullcontext())
    assert report == SweepReport(results=(run_scenario(spec),)).to_json()
    assert [ok for _, ok in log.epochs] == [True]


@pytest.mark.parametrize(
    ("a", "b", "better", "expected"),
    [
        ([1.0, 1.01, 0.99, 1.0], [1.0, 0.99, 1.01, 1.0], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "better"),
        ([1.0, 2.0, 0.5, 1.5], [1.0, 1.9, 0.6, 1.4], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1, "s") == expected


def _git_status() -> str | None:
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return status.stdout if status.returncode == 0 else None


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_dry_run_emits_every_declared_metric(name, trace, tmp_path):
    before = _git_status()
    result = harness.run_workload(name, 3, 0.0, trace, smoke=True, workdir=tmp_path)
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [metric["name"] for metric in CONFIG[section]]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        assert 0.0 < result["metrics"]["trace.child_coverage"]["value"] <= 1.0
    assert _git_status() == before
