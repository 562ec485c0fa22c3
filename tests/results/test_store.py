"""The sqlite result store: keys, upserts, queries, code-version derivation.

Hand-built runs come from the shared ``fake_run_result`` factory fixture in
``tests/conftest.py``; real economies only run where the integration is the
point.
"""

import json

import pytest

from repro.agents.population import PopulationSpec
from repro.cluster.fleet_gen import FleetSpec
from repro.results.metrics import METRICS, run_metrics
from repro.results.store import (
    CODE_VERSION_ENV,
    DB_ENV,
    ResultStore,
    default_code_version,
    default_db_path,
    open_store,
)
from repro.simulation.catalog import ScenarioSpec
from repro.simulation.runner import ParallelRunner, run_scenario
from repro.simulation.scenario import ScenarioConfig


def tiny_spec(seed: int = 0, auctions: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        description="tiny store-test economy",
        config=ScenarioConfig(
            fleet=FleetSpec(cluster_count=3, sites=1, machines_range=(5, 12)),
            population=PopulationSpec(team_count=6, budget_per_team=100_000.0),
            seed=seed,
        ),
        auctions=auctions,
    )


class TestRunMetrics:
    def test_scalars_from_hand_built_result(self, fake_run_result):
        metrics = run_metrics(fake_run_result())
        assert metrics["final_median_premium"] == 1.1
        assert metrics["mean_settled_fraction"] == pytest.approx(0.6)
        assert metrics["mean_clearing_rounds"] == 3.0
        assert metrics["total_revenue"] == 240.0
        assert metrics["final_utilization"] == 0.6
        assert metrics["trade_count"] == 5.0

    def test_every_registered_metric_is_extracted(self, fake_run_result):
        assert sorted(run_metrics(fake_run_result())) == sorted(METRICS)

    def test_real_run_produces_finite_metrics(self):
        metrics = run_metrics(run_scenario(tiny_spec()))
        assert sorted(metrics) == sorted(METRICS)
        assert all(isinstance(v, float) for v in metrics.values())


class TestRecordAndQuery:
    def test_record_round_trips_the_full_result(self, fake_run_result):
        with ResultStore(":memory:") as store:
            result = fake_run_result()
            stored = store.record(result, code_version="v1")
            assert stored.key == ("tiny", 0, "v1", "auto", "market")
            (run,) = store.runs()
            assert run.result == result.to_dict()
            assert run.metrics == run_metrics(result)

    def test_same_key_replaces_instead_of_duplicating(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(trade_count=5), code_version="v1")
            store.record(fake_run_result(trade_count=9), code_version="v1")
            assert len(store) == 1
            (run,) = store.runs()
            assert run.metrics["trade_count"] == 9.0

    def test_distinct_key_fields_create_distinct_rows(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=1), code_version="v1")
            store.record(fake_run_result(seed=0), code_version="v2")
            store.record(fake_run_result(seed=0, engine="batch"), code_version="v1")
            store.record(fake_run_result(seed=0, mechanism="priority"), code_version="v1")
            assert len(store) == 5

    def test_filtered_queries(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(scenario="a", seed=0), code_version="v1")
            store.record(fake_run_result(scenario="a", seed=1), code_version="v1")
            store.record(fake_run_result(scenario="b", seed=0), code_version="v1")
            assert store.scenarios() == ["a", "b"]
            assert [r.seed for r in store.runs(scenario="a")] == [0, 1]
            assert store.runs(scenario="a", code_version="v2") == []

    def test_code_versions_ordered_oldest_first(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=0), code_version="v2")
            assert store.code_versions() == ["v1", "v2"]
            assert store.latest_code_version() == "v2"

    def test_refreshing_an_old_version_does_not_promote_it_to_latest(self, fake_run_result):
        # Re-recording v1's runs (same keys, upsert) must not flip the
        # default baseline/candidate direction of show/compare.
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=0), code_version="v2")
            store.record(fake_run_result(seed=0, trade_count=8), code_version="v1")
            assert store.code_versions() == ["v1", "v2"]
            assert store.latest_code_version() == "v2"

    def test_replicate_metrics_default_to_latest_version(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, trade_count=1), code_version="v1")
            store.record(fake_run_result(seed=0, trade_count=7), code_version="v2")
            store.record(fake_run_result(seed=1, trade_count=9), code_version="v2")
            values = store.replicate_metrics("tiny")
            assert values["trade_count"] == [7.0, 9.0]

    def test_replicate_metrics_refuse_to_pool_engines(self, fake_run_result):
        # Engines are bit-identical by design; pooling them would double-count
        # seeds and understate the CIs.
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, engine="scalar"), code_version="v1")
            store.record(fake_run_result(seed=0, engine="batch"), code_version="v1")
            with pytest.raises(ValueError, match="span engines"):
                store.replicate_metrics("tiny")
            values = store.replicate_metrics("tiny", engine="batch")
            assert values["trade_count"] == [5.0]

    def test_replicate_metrics_refuse_to_pool_mechanisms(self, fake_run_result):
        # Mechanisms are different economies entirely; pooling them would
        # average a market with a quota policy.
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=0, mechanism="priority"), code_version="v1")
            with pytest.raises(ValueError, match="span mechanisms"):
                store.replicate_metrics("tiny")
            values = store.replicate_metrics("tiny", mechanism="priority")
            assert values["trade_count"] == [5.0]

    def test_mechanisms_listing(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=0, mechanism="fixed-price"), code_version="v1")
            assert store.mechanisms() == ["fixed-price", "market"]

    def test_wall_time_persists(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, wall_time_seconds=2.0), code_version="v1")
            store.record(fake_run_result(seed=1, wall_time_seconds=4.0), code_version="v1")
            store.record(fake_run_result(seed=2), code_version="v1")  # no wall time
            runs = store.runs(mechanism="market")
            assert [r.wall_time for r in runs] == [2.0, 4.0, None]

    def test_summary_groups_by_scenario_version_engine(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=1), code_version="v1")
            (row,) = store.summary()
            assert row["scenario"] == "tiny"
            assert row["replicates"] == 2
            assert row["seeds"] == "0..1"

    def test_empty_store(self):
        with ResultStore(":memory:") as store:
            assert len(store) == 0
            assert store.latest_code_version() is None
            assert store.replicate_metrics("tiny") == {}
            assert store.summary() == []

    def test_persists_across_reopen(self, tmp_path, fake_run_result):
        path = tmp_path / "nested" / "store.sqlite"
        with ResultStore(path) as store:
            store.record(fake_run_result(), code_version="v1")
        with ResultStore(path) as store:
            (run,) = store.runs()
            assert run.code_version == "v1"


class TestOldSchemaIsRefused:
    """A store whose ``runs`` table predates a current column is refused on open."""

    _PRE_MECHANISM_SCHEMA = """
    CREATE TABLE runs (
        id           INTEGER PRIMARY KEY,
        scenario     TEXT    NOT NULL,
        seed         INTEGER NOT NULL,
        code_version TEXT    NOT NULL,
        engine       TEXT    NOT NULL,
        auctions     INTEGER NOT NULL,
        recorded_at  TEXT    NOT NULL,
        result_json  TEXT    NOT NULL,
        UNIQUE (scenario, seed, code_version, engine)
    );
    """

    _PRE_WORKER_SCHEMA = """
    CREATE TABLE runs (
        id           INTEGER PRIMARY KEY,
        scenario     TEXT    NOT NULL,
        seed         INTEGER NOT NULL,
        code_version TEXT    NOT NULL,
        engine       TEXT    NOT NULL,
        mechanism    TEXT    NOT NULL DEFAULT 'market',
        auctions     INTEGER NOT NULL,
        recorded_at  TEXT    NOT NULL,
        wall_time    REAL,
        result_json  TEXT    NOT NULL,
        UNIQUE (scenario, seed, code_version, engine, mechanism)
    );
    """

    @pytest.mark.parametrize(
        ("schema", "missing"),
        [("_PRE_MECHANISM_SCHEMA", "mechanism, worker"), ("_PRE_WORKER_SCHEMA", "worker")],
    )
    def test_error_names_the_file_and_the_missing_columns(self, tmp_path, schema, missing):
        path = self.old_store(tmp_path, schema)
        with pytest.raises(ValueError) as error:
            ResultStore(path)
        assert str(error.value) == (
            f"result store {path} predates the current schema: its runs table "
            f"lacks the {missing} column(s); record into a new store file"
        )

    @pytest.mark.parametrize("schema", ["_PRE_MECHANISM_SCHEMA", "_PRE_WORKER_SCHEMA"])
    def test_refused_store_is_left_unchanged(self, tmp_path, schema):
        path = self.old_store(tmp_path, schema)
        before = path.read_bytes()
        for _ in range(2):  # refusing neither migrates the file nor adds a table to it
            with pytest.raises(ValueError):
                ResultStore(path)
        assert path.read_bytes() == before

    def old_store(self, tmp_path, schema):
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(getattr(self, schema))
        conn.close()
        return path


class TestWorkerProvenance:
    """The ``worker`` column records which execution lane produced each run."""

    def test_record_persists_the_worker(self, fake_run_result):
        import dataclasses

        with ResultStore(":memory:") as store:
            result = dataclasses.replace(fake_run_result(), worker="remote-w1")
            stored = store.record(result, code_version="v1")
            assert stored.worker == "remote-w1"
            assert store.runs()[0].worker == "remote-w1"

    def test_worker_defaults_to_none(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(), code_version="v1")
            assert store.runs()[0].worker is None

    def test_rerecord_replaces_the_worker(self, fake_run_result):
        import dataclasses

        with ResultStore(":memory:") as store:
            store.record(
                dataclasses.replace(fake_run_result(), worker="w1"), code_version="v1"
            )
            store.record(
                dataclasses.replace(fake_run_result(), worker="w2"), code_version="v1"
            )
            assert len(store) == 1  # same key: refreshed, not duplicated
            assert store.runs()[0].worker == "w2"


class TestRunnerIntegration:
    def test_runner_records_every_replicate(self):
        with ResultStore(":memory:") as store:
            report = ParallelRunner(workers=1).run_replicates(
                tiny_spec(seed=10), 2, store=store, code_version="v1"
            )
            assert len(store) == 2
            assert [r.seed for r in store.runs()] == [10, 11]
            # the stored payloads are exactly the report's results (compare as
            # canonical JSON: migration stats may legitimately contain NaN,
            # and NaN != NaN under dict equality)
            stored = {r.seed: r.result for r in store.runs()}
            for result in report.results:
                assert json.dumps(stored[result.seed], sort_keys=True) == json.dumps(
                    result.to_dict(), sort_keys=True
                )

    def test_runner_resolves_default_code_version(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "env-version")
        with ResultStore(":memory:") as store:
            ParallelRunner(workers=1).run_specs([tiny_spec()], store=store)
            assert store.code_versions() == ["env-version"]


class TestDefaults:
    def test_default_db_path_env_override(self, monkeypatch):
        monkeypatch.setenv(DB_ENV, "/tmp/override.sqlite")
        assert str(default_db_path()) == "/tmp/override.sqlite"

    def test_default_db_path_without_env(self, monkeypatch):
        monkeypatch.delenv(DB_ENV, raising=False)
        assert default_db_path().name == "repro_results.sqlite"

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv(CODE_VERSION_ENV, "pinned")
        assert default_code_version() == "pinned"

    def test_code_version_derived_from_tree_is_nonempty(self, monkeypatch):
        monkeypatch.delenv(CODE_VERSION_ENV, raising=False)
        version = default_code_version()
        assert isinstance(version, str) and version

    def test_open_store_uses_default_path(self, tmp_path, monkeypatch, fake_run_result):
        monkeypatch.setenv(DB_ENV, str(tmp_path / "from-env.sqlite"))
        with open_store() as store:
            store.record(fake_run_result(), code_version="v1")
        assert (tmp_path / "from-env.sqlite").exists()

    def test_stored_json_is_valid(self, tmp_path, fake_run_result):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.record(fake_run_result(), code_version="v1")
            (run,) = store.runs()
            assert json.dumps(run.result)  # JSON-serialisable all the way down


class TestSpanChecksHonourFilters:
    def test_mechanism_filter_narrows_the_engine_span_check(self, fake_run_result):
        # priority rows all share one engine; a different mechanism's engine
        # must not force an --engine flag onto the selection.
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, engine="batch"), code_version="v1")
            store.record(
                fake_run_result(seed=0, engine="scalar", mechanism="priority"),
                code_version="v1",
            )
            values = store.replicate_metrics("tiny", mechanism="priority")
            assert values["trade_count"] == [5.0]

    def test_engine_filter_narrows_the_mechanism_span_check(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, engine="batch"), code_version="v1")
            store.record(
                fake_run_result(seed=0, engine="scalar", mechanism="priority"),
                code_version="v1",
            )
            values = store.replicate_metrics("tiny", engine="scalar")
            assert values["trade_count"] == [5.0]

    def test_mechanisms_listing_filters_by_code_version(self, fake_run_result):
        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0, mechanism="priority"), code_version="v1")
            store.record(fake_run_result(seed=0), code_version="v2")
            assert store.mechanisms(scenario="tiny") == ["market", "priority"]
            assert store.mechanisms(scenario="tiny", code_version="v2") == ["market"]


class TestEmptySeriesAreAClearError:
    def test_record_without_allocation_series_raises_readably(self, fake_run_result):
        import dataclasses

        result = dataclasses.replace(
            fake_run_result(), shortage_cost=[], surplus_cost=[], satisfied_fraction=[]
        )
        with ResultStore(":memory:") as store:
            with pytest.raises(ValueError, match="shortage_cost"):
                store.record(result, code_version="v1")
