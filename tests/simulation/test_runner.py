"""Tests for the parallel economy runner: determinism, streaming, fallback."""

import json

import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.simulation.catalog import ScenarioSpec, get_scenario, scenario_names
from repro.simulation.runner import (
    ParallelRunner,
    ScenarioRunResult,
    SweepReport,
    longest_job_first,
    run_scenario,
)
from repro.simulation.scenario import ScenarioConfig


def tiny_spec(name: str = "tiny", seed: int = 0, auctions: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description="tiny runner-test economy",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=3, sites=1, machines_range=(5, 12)),
            population=PopulationSpec(team_count=6, budget_per_team=100_000.0),
            seed=seed,
        ),
        auctions=auctions,
    )


class TestRunScenario:
    def test_trajectories_have_one_entry_per_auction(self):
        result = run_scenario(tiny_spec(auctions=2))
        assert result.auctions == 2
        assert len(result.median_premium) == 2
        assert len(result.clearing_rounds) == 2
        assert len(result.utilization_spread) == 2
        assert len(result.mean_clearing_price) == 2
        assert len(result.revenue) == 2
        assert len(result.mean_utilization) == 2
        assert result.teams == 6
        assert result.pools == 9  # 3 clusters x 3 resource dimensions

    def test_first_to_last_changes_are_canonically_rounded(self, fake_run_result):
        result = fake_run_result()  # median premium 1.4 -> 1.1, spread 0.2 -> 0.1
        assert result.premium_drop == -0.3
        assert result.utilization_spread_change == -0.1

    def test_store_metrics_are_in_the_canonical_report(self):
        payload = run_scenario(tiny_spec()).to_dict()
        assert {"mean_clearing_price", "revenue", "mean_utilization"} <= set(payload)

    def test_result_dict_round_trips_through_json(self):
        result = run_scenario(tiny_spec())
        assert json.loads(json.dumps(result.to_dict())) == result.to_dict()

    def test_same_seed_same_result(self):
        assert run_scenario(tiny_spec(seed=5)) == run_scenario(tiny_spec(seed=5))

    def test_different_seed_different_fleet_outcome(self):
        a = run_scenario(tiny_spec(seed=1))
        b = run_scenario(tiny_spec(seed=2))
        assert a != b


class TestParallelRunner:
    def test_serial_report_order_follows_submission_order(self):
        specs = [tiny_spec("tiny-b", seed=2), tiny_spec("tiny-a", seed=1)]
        report = ParallelRunner(workers=1).run_specs(specs)
        assert [r.scenario for r in report.results] == ["tiny-b", "tiny-a"]

    def test_parallel_report_is_byte_identical_to_serial(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        serial = ParallelRunner(workers=1).run_specs(specs)
        parallel = ParallelRunner(workers=2).run_specs(specs)
        assert serial.to_json() == parallel.to_json()

    def test_streaming_callback_sees_every_result(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(3)]
        seen: list[str] = []
        ParallelRunner(workers=2).run_specs(specs, on_result=lambda r: seen.append(r.scenario))
        assert sorted(seen) == ["tiny-0", "tiny-1", "tiny-2"]

    def test_empty_job_list(self):
        report = ParallelRunner(workers=1).run_specs([])
        assert report.results == ()
        assert report.aggregate()["scenario_count"] == 0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_replicates_fan_out_over_consecutive_seeds(self):
        report = ParallelRunner(workers=1).run_replicates(tiny_spec(seed=10), 3)
        assert [r.seed for r in report.results] == [10, 11, 12]
        assert len({json.dumps(r.to_dict()) for r in report.results}) == 3

    def test_replicates_keep_one_aggregate_entry_per_seed(self):
        report = ParallelRunner(workers=1).run_replicates(tiny_spec(seed=10), 3)
        drops = report.aggregate()["premium_drop"]
        assert sorted(drops) == ["tiny@seed10", "tiny@seed11", "tiny@seed12"]

    def test_exact_duplicate_jobs_keep_distinct_aggregate_entries(self):
        spec = tiny_spec(seed=10)
        report = ParallelRunner(workers=1).run_specs([spec, spec])
        drops = report.aggregate()["premium_drop"]
        assert sorted(drops) == ["tiny@seed10", "tiny@seed10#2"]

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=1).run_replicates(tiny_spec(), 0)

    def test_worker_failure_names_the_scenario(self):
        # The invalid engine only raises once the worker builds the scenario.
        bad = ScenarioSpec(
            name="will-fail",
            description="raises in the worker",
            config=ScenarioConfig(
                fleet=FleetSpec(cluster_count=1, sites=1, machines_range=(5, 6)),
                population=PopulationSpec(team_count=1),
                auction_engine="no-such-engine",
            ),
            auctions=1,
        )
        with pytest.raises(RuntimeError, match="will-fail"):
            ParallelRunner(workers=1).run_specs([bad])


class TestLongestJobFirst:
    def test_full_catalog_submits_stress_before_smoke(self):
        specs = [get_scenario(name) for name in scenario_names()]
        order = longest_job_first(specs)
        names = [specs[i].name for i in order]
        assert names.index("100k-bidder-stress") == 0  # heaviest scenario leads
        assert names.index("10k-bidder-stress") == 1
        assert names.index("10k-bidder-stress") < names.index("smoke")
        assert names[-1] == "smoke"  # lightest scenario trails

    def test_order_is_a_permutation_and_stable_for_ties(self):
        specs = [tiny_spec(f"tiny-{i}", seed=i) for i in range(4)]  # equal costs
        assert longest_job_first(specs) == [0, 1, 2, 3]

    @staticmethod
    def record_pool_submissions(monkeypatch) -> list[str]:
        """Swap the process pool for an in-process fake that records the
        scenario names in the order they were submitted."""
        import repro.exec.process as process_mod
        from concurrent.futures import Future

        submitted: list[str] = []

        class FakeExecutor:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec):
                submitted.append(spec.name)
                future = Future()
                future.set_result(fn(spec))
                return future

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(process_mod, "ProcessPoolExecutor", FakeExecutor)
        return submitted

    def test_pool_submission_uses_longest_job_first(self, monkeypatch):
        """The pool path hands jobs to the executor in cost order, while the
        report stays in submission order."""
        submitted = self.record_pool_submissions(monkeypatch)
        small = tiny_spec("small", seed=1, auctions=1)
        big = tiny_spec("big", seed=2, auctions=3)  # 3x the cost estimate
        report = ParallelRunner(workers=2).run_specs([small, big])
        assert submitted == ["big", "small"]
        assert [r.scenario for r in report.results] == ["small", "big"]

    def test_pool_submission_ignores_store_wall_times(self, monkeypatch, tmp_path):
        """Stored wall times are provenance only: a store whose history
        contradicts the static estimates leaves pool submission in
        longest-job-first order."""
        import dataclasses

        from repro.results.store import ResultStore

        submitted = self.record_pool_submissions(monkeypatch)
        small = tiny_spec("small", seed=1, auctions=1)
        big = tiny_spec("big", seed=2, auctions=3)
        with ResultStore(tmp_path / "measured.sqlite") as store:
            # Seed observed costs that contradict the static estimates.
            store.record(
                dataclasses.replace(run_scenario(small), wall_time_seconds=60.0),
                code_version="v0",
            )
            store.record(
                dataclasses.replace(run_scenario(big), wall_time_seconds=1.0),
                code_version="v0",
            )
            ParallelRunner(workers=2).run_specs([small, big], store=store)
        assert submitted == ["big", "small"]  # estimate order, whatever the store says


class TestSweepReport:
    def test_canonical_json_is_stable_and_sorted(self):
        report = ParallelRunner(workers=1).run_specs([tiny_spec()])
        payload = report.to_json()
        assert payload == ParallelRunner(workers=1).run_specs([tiny_spec()]).to_json()
        decoded = json.loads(payload)
        assert set(decoded) == {"scenarios", "aggregate"}
        assert decoded["aggregate"]["scenario_count"] == 1

    def test_aggregate_totals(self):
        specs = [tiny_spec("tiny-a", seed=1, auctions=2), tiny_spec("tiny-b", seed=2)]
        report = ParallelRunner(workers=1).run_specs(specs)
        aggregate = report.aggregate()
        assert aggregate["total_auctions"] == 3
        assert set(aggregate["premium_drop"]) == {"tiny-a", "tiny-b"}

    def test_smoke_scenario_runs_from_the_catalog(self):
        spec = get_scenario("smoke").with_overrides(auctions=1)
        report = ParallelRunner(workers=1).run_specs([spec])
        assert report.results[0].scenario == "smoke"
        assert report.results[0].trade_count > 0


class TestMechanismDimension:
    def test_expand_mechanisms_cross_product_is_scenario_major(self):
        from repro.simulation.runner import expand_mechanisms

        specs = [tiny_spec("tiny-a"), tiny_spec("tiny-b")]
        expanded = expand_mechanisms(specs, ["market", "priority"])
        assert [(s.name, s.mechanism) for s in expanded] == [
            ("tiny-a", "market"),
            ("tiny-a", "priority"),
            ("tiny-b", "market"),
            ("tiny-b", "priority"),
        ]

    def test_expand_mechanisms_requires_names(self):
        from repro.simulation.runner import expand_mechanisms

        with pytest.raises(ValueError):
            expand_mechanisms([tiny_spec()], [])

    def test_mixed_mechanism_keys_disambiguate_by_mechanism(self):
        from repro.simulation.runner import expand_mechanisms

        specs = expand_mechanisms([tiny_spec()], ["market", "priority"])
        report = ParallelRunner(workers=1).run_specs(specs)
        drops = report.aggregate()["premium_drop"]
        assert sorted(drops) == ["tiny+market", "tiny+priority"]

    def test_single_mechanism_keys_are_unchanged(self):
        # Market-only sweeps must keep their historical aggregate keys.
        report = ParallelRunner(workers=1).run_replicates(tiny_spec(seed=10), 2)
        assert sorted(report.aggregate()["premium_drop"]) == [
            "tiny@seed10",
            "tiny@seed11",
        ]

    def test_mechanism_and_replicates_compose_in_keys(self):
        from repro.simulation.runner import expand_mechanisms

        specs = [
            s.with_overrides(seed=s.config.seed + i)
            for s in expand_mechanisms([tiny_spec(seed=10)], ["market", "priority"])
            for i in range(2)
        ]
        report = ParallelRunner(workers=1).run_specs(specs)
        assert sorted(report.aggregate()["premium_drop"]) == [
            "tiny+market@seed10",
            "tiny+market@seed11",
            "tiny+priority@seed10",
            "tiny+priority@seed11",
        ]


class TestWallTimes:
    def test_run_scenario_stamps_a_wall_time(self):
        result = run_scenario(tiny_spec())
        assert result.wall_time_seconds is not None and result.wall_time_seconds > 0

    def test_wall_time_stays_out_of_the_canonical_report(self):
        result = run_scenario(tiny_spec())
        assert "wall_time" not in json.dumps(result.to_dict())

    def test_wall_time_is_excluded_from_equality(self):
        import dataclasses

        a = run_scenario(tiny_spec(seed=5))
        assert dataclasses.replace(a, wall_time_seconds=99.0) == a
