"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import EXIT_REGRESSION, build_parser, main
from repro.results.store import ResultStore
from repro.simulation.catalog import default_sweep_names

# Injected stored runs come from the shared ``fake_run_result`` factory
# fixture in tests/conftest.py (no economies run for the results-verb tests).


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "smoke", "--auctions", "2", "--seed", "7", "--engine", "batch", "--json"]
        )
        assert (args.scenario, args.auctions, args.seed, args.engine) == ("smoke", 2, 7, "batch")
        assert args.json

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.scenarios == []
        assert not args.all


class TestList:
    def test_table_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in default_sweep_names():
            assert name in out

    def test_json_mode(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["name"] == "paper-reference" for row in rows)

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "stress", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted(row["name"] for row in rows) == [
            "100k-bidder-stress",
            "10k-bidder-stress",
        ]


class TestRun:
    def test_unknown_scenario_exits_2_with_suggestions(self, capsys):
        assert main(["run", "no-such-economy"]) == 2
        err = capsys.readouterr().err
        assert "paper-reference" in err

    def test_run_smoke_json_report(self, capsys):
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1", "--json"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["aggregate"]["scenario_count"] == 1
        assert report["scenarios"][0]["scenario"] == "smoke"
        # progress/timing stay on stderr, never in the JSON artifact
        assert "finished in" in captured.err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--json", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


class TestSweep:
    def test_explicit_scenario_selection(self, capsys):
        assert main(["sweep", "smoke", "--workers", "1", "--auctions", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["scenario"] for s in report["scenarios"]] == ["smoke"]

    def test_text_report_prints_aggregate_line(self, capsys):
        assert main(["sweep", "smoke", "--workers", "1", "--auctions", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 scenario(s)" in out
        assert "clock rounds per auction" in out

    def test_explicit_names_conflict_with_all(self, capsys):
        assert main(["sweep", "smoke", "--all"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_zero_replicates_rejected(self, capsys):
        assert main(["run", "smoke", "--replicates", "0"]) == 2
        assert "--replicates" in capsys.readouterr().err


class TestStorePersistence:
    def test_run_persists_replicates_to_the_store(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--replicates", "2", "--db", str(db)]) == 0
        assert "2 run(s) recorded" in capsys.readouterr().err
        with ResultStore(db) as store:
            assert len(store) == 2
            assert [r.seed for r in store.runs()] == [2009, 2010]
            assert store.code_versions() == ["test-version"]  # pinned in conftest

    def test_run_defaults_to_env_store(self, tmp_path, monkeypatch):
        db = tmp_path / "env-store.sqlite"
        monkeypatch.setenv("REPRO_RESULTS_DB", str(db))
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1"]) == 0
        assert db.exists()

    def test_no_store_skips_persistence(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--no-store", "--db", str(db)]) == 0
        assert not db.exists()
        assert "recorded" not in capsys.readouterr().err

    def test_sweep_persists_under_explicit_code_version(self, tmp_path):
        db = tmp_path / "store.sqlite"
        assert main(["sweep", "smoke", "--workers", "1", "--auctions", "1",
                     "--db", str(db), "--code-version", "pr-42"]) == 0
        with ResultStore(db) as store:
            assert store.code_versions() == ["pr-42"]


class TestBackendCLI:
    def test_backend_list_names_every_backend(self, capsys):
        assert main(["sweep", "--backend", "list"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]  # header and rule first
        assert [row.split()[0] for row in rows] == ["process", "remote"]

    def test_backend_list_works_on_run_too(self, capsys):
        assert main(["run", "smoke", "--backend", "list"]) == 0
        assert "remote" in capsys.readouterr().out

    # ``serial`` is no backend: ``--workers 1`` is the serial path.
    @pytest.mark.parametrize("name", ["teleport", "serial"])
    def test_unknown_backend_exits_2_with_available(self, capsys, name):
        assert main(["run", "smoke", "--backend", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown backend {name!r}; available: process, remote" in err

    def test_bind_without_remote_backend_exits_2(self, capsys):
        assert main(["run", "smoke", "--bind", "127.0.0.1:7077"]) == 2
        assert "--backend remote" in capsys.readouterr().err

    def test_malformed_bind_exits_2(self, capsys):
        assert main(["sweep", "smoke", "--backend", "remote", "--bind", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_single_worker_runs_serially_and_stamps_provenance(self, tmp_path):
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--db", str(db)]) == 0
        with ResultStore(db) as store:
            (run,) = store.runs()
            assert run.worker.startswith("serial:")

    def test_remote_backend_sweep_end_to_end(self, tmp_path):
        """CLI remote sweep against an in-process worker matches the serial
        report byte for byte."""
        import threading

        from repro.exec import run_worker

        # Bind port 0 via a pre-built backend is not reachable from the CLI,
        # so grab a free port the OS just released.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        worker = threading.Thread(
            target=run_worker,
            args=(f"127.0.0.1:{port}",),
            kwargs=dict(worker_id="cli-w1", retry_seconds=10.0),
            daemon=True,
        )
        worker.start()
        remote_out = tmp_path / "remote.json"
        serial_out = tmp_path / "serial.json"
        assert main(["sweep", "smoke", "--auctions", "1", "--backend", "remote",
                     "--bind", f"127.0.0.1:{port}", "--no-store",
                     "--out", str(remote_out)]) == 0
        worker.join(timeout=5)
        assert main(["sweep", "smoke", "--auctions", "1", "--workers", "1",
                     "--no-store", "--out", str(serial_out)]) == 0
        assert remote_out.read_bytes() == serial_out.read_bytes()


class TestWorkerCLI:
    def test_connect_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_malformed_connect_exits_2(self, capsys):
        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_invalid_capacity_exits_2(self, capsys):
        assert main(["worker", "--connect", "127.0.0.1:7077", "--capacity", "0"]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_unreachable_coordinator_exits_1(self, capsys):
        assert main(["worker", "--connect", "127.0.0.1:1", "--retry", "0.2"]) == 1
        assert "no coordinator" in capsys.readouterr().err


class TestResultsVerbs:
    def seeded_db(self, tmp_path, fake_run_result):
        """Two code versions: v2 degrades revenue by ~50% vs v1."""
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            for seed in (0, 1, 2):
                store.record(fake_run_result(scenario="smoke", seed=seed), code_version="v1")
                store.record(
                    fake_run_result(scenario="smoke", seed=seed, revenue=(50.0, 70.0)),
                    code_version="v2",
                )
        return db

    def test_list_shows_stored_groups(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "list", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "v1" in out and "v2" in out

    def test_list_json(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "list", "--db", str(db), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["code_version"] for row in rows} == {"v1", "v2"}
        assert all(row["replicates"] == 3 for row in rows)

    def test_list_empty_store(self, tmp_path, capsys):
        assert main(["results", "list", "--db", str(tmp_path / "empty.sqlite")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show_prints_mean_and_ci_per_metric(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "show", "smoke", "--db", str(db),
                     "--code-version", "v1"]) == 0
        out = capsys.readouterr().out
        assert "total_revenue" in out
        assert "95% CI" in out
        assert "3" in out  # replicate count

    def test_show_json_has_ci_bounds(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "show", "smoke", "--db", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code_version"] == "v2"  # latest by default
        revenue = payload["metrics"]["total_revenue"]
        assert revenue["count"] == 3
        assert revenue["ci95"] == [revenue["mean"], revenue["mean"]]  # zero variance

    def test_show_unknown_scenario_exits_2(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "show", "no-such", "--db", str(db)]) == 2
        assert "no stored runs" in capsys.readouterr().err

    def test_show_mixed_engines_exits_2(self, tmp_path, capsys, fake_run_result):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            store.record(fake_run_result(scenario="smoke", engine="scalar"), code_version="v1")
            store.record(fake_run_result(scenario="smoke", engine="batch"), code_version="v1")
        assert main(["results", "show", "smoke", "--db", str(db)]) == 2
        assert "span engines" in capsys.readouterr().err
        assert main(["results", "show", "smoke", "--db", str(db),
                     "--engine", "batch"]) == 0

    def test_compare_flags_injected_regression_with_exit_3(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        code = main(["results", "compare", "smoke", "--db", str(db),
                     "--baseline", "v1", "--candidate", "v2"])
        assert code == EXIT_REGRESSION == 3
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "total_revenue" in captured.err

    def test_compare_defaults_to_latest_two_versions(self, tmp_path, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "compare", "smoke", "--db", str(db)]) == EXIT_REGRESSION

    def test_compare_with_older_candidate_takes_baseline_before_it(
        self, tmp_path, capsys, fake_run_result
    ):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            for version, revenue in (("v1", 100.0), ("v2", 150.0), ("v3", 200.0)):
                store.record(
                    fake_run_result(scenario="smoke", revenue=(revenue, revenue)),
                    code_version=version,
                )
        # candidate=v2 must compare v1 -> v2 (forward in time), not v3 -> v2:
        # revenue rose v1 -> v2, so a forward comparison is clean.
        assert main(["results", "compare", "smoke", "--db", str(db),
                     "--candidate", "v2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "v1"

    def test_compare_oldest_candidate_has_no_default_baseline(
        self, tmp_path, capsys, fake_run_result
    ):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "compare", "smoke", "--db", str(db),
                     "--candidate", "v1"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_compare_identical_versions_exits_0(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "compare", "smoke", "--db", str(db),
                     "--baseline", "v1", "--candidate", "v1"]) == 0
        assert "REGRESSION" not in capsys.readouterr().err

    def test_compare_json_reports_ok_flag(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["results", "compare", "smoke", "--db", str(db),
                     "--baseline", "v1", "--candidate", "v2", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "total_revenue" in payload["regressions"]

    def test_compare_single_version_needs_explicit_baseline(
        self, tmp_path, capsys, fake_run_result
    ):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            store.record(fake_run_result(scenario="smoke"), code_version="only")
        assert main(["results", "compare", "smoke", "--db", str(db)]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_run_then_show_round_trip(self, tmp_path, capsys):
        """The acceptance path: run with replicates, then show mean/CI."""
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--replicates", "2", "--db", str(db)]) == 0
        capsys.readouterr()
        assert main(["results", "show", "smoke", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "smoke @ test-version (2 replicate(s))" in out
        assert "mean_settled_fraction" in out


class TestMechanismCLI:
    def test_run_with_explicit_mechanism_persists_provenance(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--mechanism", "fixed-price", "--db", str(db)]) == 0
        with ResultStore(db) as store:
            (run,) = store.runs()
            assert run.mechanism == "fixed-price"
            assert run.wall_time is not None

    def test_run_with_all_mechanisms_crosses_replicates(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        assert main(["run", "smoke", "--workers", "1", "--auctions", "1",
                     "--mechanism", "all", "--replicates", "2", "--db", str(db)]) == 0
        with ResultStore(db) as store:
            assert len(store) == 10  # 5 mechanisms x 2 replicate seeds
            assert store.mechanisms() == sorted(
                ["market", "fixed-price", "lottery", "priority", "proportional"]
            )

    def test_unknown_mechanism_exits_2_with_available_list(self, capsys):
        assert main(["run", "smoke", "--mechanism", "bogus"]) == 2
        assert "fixed-price" in capsys.readouterr().err

    def test_sweep_mechanism_cross_product(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        assert main(["sweep", "smoke", "--workers", "1", "--auctions", "1",
                     "--mechanism", "market,priority", "--db", str(db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(s["scenario"], s["mechanism"]) for s in report["scenarios"]] == [
            ("smoke", "market"),
            ("smoke", "priority"),
        ]

    def test_results_list_shows_mechanism_column(self, tmp_path, capsys, fake_run_result):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            store.record(fake_run_result(mechanism="proportional"), code_version="v1")
        assert main(["results", "list", "--db", str(db)]) == 0
        assert "proportional" in capsys.readouterr().out

    def test_results_show_mechanism_filter(self, tmp_path, capsys, fake_run_result):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            store.record(fake_run_result(), code_version="v1")
            store.record(fake_run_result(mechanism="priority"), code_version="v1")
        assert main(["results", "show", "smoke", "--db", str(db)]) == 2  # wrong scenario
        assert main(["results", "show", "tiny", "--db", str(db)]) == 2  # spans mechanisms
        assert "span mechanisms" in capsys.readouterr().err
        assert main(["results", "show", "tiny", "--db", str(db),
                     "--mechanism", "priority"]) == 0


class TestCompareMechanismsCLI:
    def seeded_db(self, tmp_path, fake_run_result):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            for seed in (0, 1):
                store.record(
                    fake_run_result(seed=seed, shortage_cost=(60.0, 40.0)),
                    code_version="v1",
                )
                store.record(
                    fake_run_result(seed=seed, mechanism="fixed-price",
                                    shortage_cost=(200.0, 180.0)),
                    code_version="v1",
                )
        return db

    def test_verb_renders_market_vs_baseline_table(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["compare-mechanisms", "tiny", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "shortage_cost" in out
        assert "market leads on:" in out
        assert "shortage_cost" in out.split("market leads on:")[1]

    def test_verb_json_mode(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["compare-mechanisms", "tiny", "--db", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["shortage_cost"]["best"] == "market"
        assert payload["mechanisms"][0] == "market"

    def test_single_mechanism_store_exits_2(self, tmp_path, capsys, fake_run_result):
        db = tmp_path / "store.sqlite"
        with ResultStore(db) as store:
            store.record(fake_run_result(), code_version="v1")
        assert main(["compare-mechanisms", "tiny", "--db", str(db)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_results_compare_has_no_across_mode(self, tmp_path, capsys, fake_run_result):
        db = self.seeded_db(tmp_path, fake_run_result)
        with pytest.raises(SystemExit) as exit_info:
            main(["results", "compare", "tiny", "--db", str(db), "--across", "mechanisms"])
        assert exit_info.value.code == 2
        assert "--across" in capsys.readouterr().err

    def test_single_name_selection_gets_a_directive_error(
        self, tmp_path, capsys, fake_run_result
    ):
        db = self.seeded_db(tmp_path, fake_run_result)
        assert main(["compare-mechanisms", "tiny", "--db", str(db),
                     "--mechanisms", "market"]) == 2
        assert "comma list" in capsys.readouterr().err


class TestBaselineDbCompare:
    """results compare --baseline-db: the cross-PR CI regression gate."""

    def test_regression_against_previous_store_exits_3(
        self, tmp_path, capsys, fake_run_result
    ):
        previous = tmp_path / "previous.sqlite"
        current = tmp_path / "current.sqlite"
        with ResultStore(previous) as store:
            store.record(fake_run_result(revenue=(100.0, 140.0)), code_version="pr-1")
        with ResultStore(current) as store:
            store.record(fake_run_result(revenue=(10.0, 14.0)), code_version="pr-2")
        code = main(["results", "compare", "tiny", "--db", str(current),
                     "--baseline-db", str(previous)])
        assert code == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "total_revenue" in captured.err
        assert "pr-1" in captured.out  # baseline label came from the other store

    def test_clean_cross_store_compare_exits_0(self, tmp_path, capsys, fake_run_result):
        previous = tmp_path / "previous.sqlite"
        current = tmp_path / "current.sqlite"
        with ResultStore(previous) as store:
            store.record(fake_run_result(), code_version="pr-1")
        with ResultStore(current) as store:
            store.record(fake_run_result(), code_version="pr-2")
        assert main(["results", "compare", "tiny", "--db", str(current),
                     "--baseline-db", str(previous)]) == 0

    def test_missing_baseline_store_exits_2(self, tmp_path, capsys, fake_run_result):
        current = tmp_path / "current.sqlite"
        with ResultStore(current) as store:
            store.record(fake_run_result(), code_version="pr-2")
        assert main(["results", "compare", "tiny", "--db", str(current),
                     "--baseline-db", str(tmp_path / "nope.sqlite")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_baseline_store_without_the_scenario_exits_2(
        self, tmp_path, capsys, fake_run_result
    ):
        previous = tmp_path / "previous.sqlite"
        current = tmp_path / "current.sqlite"
        with ResultStore(previous) as store:
            store.record(fake_run_result(scenario="other"), code_version="pr-1")
        with ResultStore(current) as store:
            store.record(fake_run_result(), code_version="pr-2")
        assert main(["results", "compare", "tiny", "--db", str(current),
                     "--baseline-db", str(previous)]) == 2
        assert "holds no runs" in capsys.readouterr().err
