"""Tests for the execution-backend registry and the process backend (serial lane included)."""

from dataclasses import replace

import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.exec import (
    DEFAULT_BACKEND,
    ProcessBackend,
    backend_names,
    backend_summaries,
    create_backend,
    get_backend_factory,
    register_backend,
)
from repro.simulation.catalog import ScenarioSpec
from repro.simulation.runner import ParallelRunner, longest_job_first, run_scenario
from repro.simulation.scenario import ScenarioConfig


def tiny_spec(name: str = "tiny", seed: int = 0, auctions: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="tiny backend-test economy",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=3, sites=1, machines_range=(5, 12)),
            population=PopulationSpec(team_count=6, budget_per_team=100_000.0),
            seed=seed,
        ),
        auctions=auctions,
    )


def execute(backend, specs):
    """Run specs through a backend directly, returning submission-order results."""
    results = [None] * len(specs)

    def emit(i, result):
        assert results[i] is None, f"emit fired twice for slot {i}"
        results[i] = result

    backend.execute(specs, order=longest_job_first(specs), emit=emit)
    return results


def canonical(results):
    """Canonical JSON per result (NaN-tolerant equality across runs)."""
    import json

    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class TestRegistry:
    def test_both_backends_registered(self):
        assert backend_names() == ["process", "remote"]
        assert DEFAULT_BACKEND == "process"

    def test_lookup_returns_named_backend(self):
        for name in backend_names():
            assert get_backend_factory(name).name == name

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="process, remote"):
            get_backend_factory("no-such-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ProcessBackend)

    def test_create_backend_forwards_options(self):
        assert create_backend("process", workers=3).workers == 3

    def test_summaries_cover_every_backend(self):
        rows = backend_summaries()
        assert [row["name"] for row in rows] == backend_names()
        assert all(row["description"].strip() for row in rows)


class TestSerialLane:
    """``ProcessBackend(workers=1)``: every job in the calling process."""

    def test_results_match_run_scenario(self):
        specs = [tiny_spec("tiny-a", seed=1), tiny_spec("tiny-b", seed=2)]
        results = execute(ProcessBackend(workers=1), specs)
        assert canonical(results) == canonical(run_scenario(s) for s in specs)

    def test_worker_provenance_stamped(self):
        results = execute(ProcessBackend(workers=1), [tiny_spec("a"), tiny_spec("b")])
        assert all(r.worker.startswith("serial:") for r in results)

    def test_single_worker_never_creates_a_pool(self, monkeypatch):
        import repro.exec.process as process_mod

        def no_pool(max_workers):
            raise AssertionError("workers=1 created a process pool")

        monkeypatch.setattr(process_mod, "ProcessPoolExecutor", no_pool)
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        results = execute(ProcessBackend(workers=1), specs)
        assert [r.scenario for r in results] == ["tiny-0", "tiny-1", "tiny-2"]

    def test_scenario_failure_names_the_scenario(self):
        bad = ScenarioSpec(
            name="will-fail",
            description="raises in the backend",
            config=ScenarioConfig(
                fleet=FleetSpec(cluster_count=1, sites=1, machines_range=(5, 6)),
                population=PopulationSpec(team_count=1),
                auction_engine="no-such-engine",
            ),
            auctions=1,
        )
        with pytest.raises(RuntimeError, match="will-fail"):
            execute(ProcessBackend(workers=1), [bad])


class TestProcessBackend:
    def test_report_matches_serial(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        serial = execute(ProcessBackend(workers=1), specs)
        pooled = execute(ProcessBackend(workers=2), specs)
        assert canonical(serial) == canonical(pooled)

    def test_pool_workers_stamp_their_pid(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        results = execute(ProcessBackend(workers=2), specs)
        # Either real pool pids, or the serial fallback in sandboxes that
        # forbid subprocesses — both are valid provenance.
        assert all(
            r.worker.startswith("process:") or r.worker.startswith("serial:")
            for r in results
        )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)

    def test_pool_broken_mid_run_finishes_on_the_serial_lane(self, monkeypatch):
        """A pool whose worker dies mid-run hands the unfinished jobs to the
        serial lane; every slot is still emitted exactly once."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        import repro.exec.process as process_mod

        class DyingPool:
            def __init__(self, max_workers):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec):
                future = Future()
                if self.submitted == 0:
                    future.set_result(replace(run_scenario(spec), worker="process:0"))
                else:
                    future.set_exception(BrokenProcessPool("a worker died"))
                self.submitted += 1
                return future

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(process_mod, "ProcessPoolExecutor", DyingPool)
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        results = execute(ProcessBackend(workers=2), specs)
        assert canonical(results) == canonical(run_scenario(s) for s in specs)
        # The pool's one result lands unless the failure is read first.
        assert results[0].worker == "process:0" or results[0].worker.startswith("serial:")
        assert all(r.worker.startswith("serial:") for r in results[1:])

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        import repro.exec.process as process_mod

        class NoPool:
            def __init__(self, max_workers):
                raise OSError("no subprocesses here")

        monkeypatch.setattr(process_mod, "ProcessPoolExecutor", NoPool)
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(2)]
        results = execute(ProcessBackend(workers=2), specs)
        assert [r.scenario for r in results] == ["tiny-0", "tiny-1"]
        assert all(r.worker.startswith("serial:") for r in results)


class TestRunnerDelegation:
    def test_backend_name_is_honoured(self):
        specs = [tiny_spec("tiny-a", seed=1)]
        report = ParallelRunner(backend="process", workers=1).run_specs(specs)
        assert report.results[0].worker.startswith("serial:")

    def test_backend_instance_is_honoured(self):
        specs = [tiny_spec("tiny-a", seed=1)]
        report = ParallelRunner(backend=ProcessBackend(workers=1)).run_specs(specs)
        assert report.results[0].worker.startswith("serial:")

    def test_unknown_backend_name_raises(self):
        with pytest.raises(KeyError, match="available"):
            ParallelRunner(backend="bogus").run_specs([tiny_spec()])

    def test_reports_byte_identical_across_worker_counts(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        payloads = {
            workers: ParallelRunner(backend="process", workers=workers).run_specs(specs).to_json()
            for workers in (1, 2)
        }
        assert payloads[1] == payloads[2]
