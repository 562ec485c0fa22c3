"""Replicate statistics: CI math against hand-computed values, degenerate cases,
and the regression-flagging comparison logic."""

import math

import pytest

from repro.results.metrics import METRIC_DIRECTIONS, METRICS, MetricDef
from repro.results.stats import (
    ComparisonReport,
    aggregate_metrics,
    compare_metrics,
    replicate_stats,
    t_critical_95,
)


class TestTCritical:
    def test_small_df_uses_the_t_table(self):
        assert t_critical_95(1) == 12.706
        assert t_critical_95(4) == 2.776
        assert t_critical_95(30) == 2.042

    def test_large_df_uses_normal_approximation(self):
        assert t_critical_95(31) == 1.960
        assert t_critical_95(1000) == 1.960

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestReplicateStats:
    def test_hand_computed_five_replicates(self):
        # values 1..5: mean 3, sample stddev sqrt(2.5), sem sqrt(2.5)/sqrt(5),
        # t(4) = 2.776 -> half-width 2.776 * sqrt(0.5) = 1.962927...
        stats = replicate_stats("demo", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.stddev == pytest.approx(math.sqrt(2.5))
        expected_half = 2.776 * math.sqrt(2.5) / math.sqrt(5)
        assert stats.ci_half_width == pytest.approx(expected_half)
        low, high = stats.ci95
        assert low == pytest.approx(3.0 - expected_half)
        assert high == pytest.approx(3.0 + expected_half)

    def test_hand_computed_two_replicates(self):
        # values 10, 14: mean 12, stddev sqrt(8), t(1) = 12.706
        stats = replicate_stats("demo", [10.0, 14.0])
        assert stats.mean == 12.0
        assert stats.stddev == pytest.approx(math.sqrt(8.0))
        assert stats.ci_half_width == pytest.approx(12.706 * math.sqrt(8.0) / math.sqrt(2))

    def test_single_replicate_has_no_ci(self):
        stats = replicate_stats("demo", [7.5])
        assert stats.count == 1
        assert stats.mean == 7.5
        assert stats.stddev is None
        assert stats.ci_half_width is None
        assert stats.ci95 is None

    def test_zero_variance_gives_zero_width_ci(self):
        stats = replicate_stats("demo", [2.0, 2.0, 2.0])
        assert stats.stddev == 0.0
        assert stats.ci_half_width == 0.0
        assert stats.ci95 == (2.0, 2.0)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            replicate_stats("demo", [])

    def test_to_dict_round_trips_none_ci(self):
        assert replicate_stats("demo", [1.0]).to_dict()["ci95"] is None
        assert replicate_stats("demo", [1.0, 3.0]).to_dict()["ci95"] is not None


class TestAggregateMetrics:
    def test_aggregates_every_nonempty_metric(self):
        stats = aggregate_metrics({"a": [1.0, 3.0], "b": [5.0], "empty": []})
        assert sorted(stats) == ["a", "b"]
        assert stats["a"].mean == 2.0
        assert stats["b"].count == 1


class TestCompareMetrics:
    def test_within_tolerance_is_ok(self):
        report = compare_metrics(
            {"total_revenue": [100.0, 100.0]},
            {"total_revenue": [102.0, 102.0]},
            tolerance=0.05,
        )
        assert isinstance(report, ComparisonReport)
        assert report.ok
        assert not report.comparisons[0].significant

    def test_higher_is_better_drop_is_a_regression(self):
        report = compare_metrics(
            {"total_revenue": [100.0, 100.0]},
            {"total_revenue": [90.0, 90.0]},
            tolerance=0.05,
        )
        assert not report.ok
        assert [c.metric for c in report.regressions] == ["total_revenue"]

    def test_higher_is_better_rise_is_an_improvement_not_a_regression(self):
        report = compare_metrics(
            {"total_revenue": [100.0, 100.0]},
            {"total_revenue": [120.0, 120.0]},
        )
        assert report.ok
        assert report.comparisons[0].significant

    def test_lower_is_better_rise_is_a_regression(self):
        report = compare_metrics(
            {"mean_clearing_rounds": [10.0]},
            {"mean_clearing_rounds": [12.0]},
        )
        assert [c.metric for c in report.regressions] == ["mean_clearing_rounds"]

    def test_neutral_metric_flags_any_significant_change(self):
        up = compare_metrics({"trade_count": [100.0]}, {"trade_count": [120.0]})
        down = compare_metrics({"trade_count": [100.0]}, {"trade_count": [80.0]})
        assert not up.ok and not down.ok

    def test_unknown_metric_defaults_to_neutral(self):
        report = compare_metrics({"custom": [1.0]}, {"custom": [2.0]})
        assert report.comparisons[0].direction == "neutral"
        assert not report.ok

    def test_zero_baseline_uses_absolute_tolerance(self):
        small = compare_metrics({"custom": [0.0]}, {"custom": [0.01]}, tolerance=0.05)
        big = compare_metrics({"custom": [0.0]}, {"custom": [0.5]}, tolerance=0.05)
        assert small.ok
        assert not big.ok
        assert big.comparisons[0].relative_change is None

    def test_one_sided_metrics_reported_as_missing(self):
        report = compare_metrics({"a": [1.0], "only_base": [1.0]}, {"a": [1.0]})
        assert report.missing_metrics == ("only_base",)
        assert [c.metric for c in report.comparisons] == ["a"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_metrics({"a": [1.0]}, {"a": [1.0]}, tolerance=-0.1)

    def test_to_dict_names_the_regressions(self):
        report = compare_metrics(
            {"total_revenue": [100.0]},
            {"total_revenue": [50.0]},
            baseline_label="v1",
            candidate_label="v2",
        )
        payload = report.to_dict()
        assert payload["baseline"] == "v1"
        assert payload["regressions"] == ["total_revenue"]
        assert payload["ok"] is False


class TestMetricRegistry:
    def test_every_metric_has_a_direction(self):
        assert sorted(METRICS) == sorted(METRIC_DIRECTIONS)
        assert set(METRIC_DIRECTIONS.values()) <= {"higher", "lower", "neutral"}

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            MetricDef("bogus", "sideways", "no such direction", lambda r: 0.0)


class TestCompareMechanisms:
    """The cross-mechanism statistical comparison behind compare-mechanisms."""

    def seeded_store(self, fake_run_result):
        from repro.results.store import ResultStore

        store = ResultStore(":memory:")
        for seed in (0, 1, 2):
            store.record(
                fake_run_result(seed=seed, shortage_cost=(60.0, 40.0)),
                code_version="v1",
            )
            store.record(
                fake_run_result(
                    seed=seed, mechanism="fixed-price", shortage_cost=(200.0, 180.0)
                ),
                code_version="v1",
            )
            store.record(
                fake_run_result(
                    seed=seed, mechanism="priority", shortage_cost=(220.0, 190.0)
                ),
                code_version="v1",
            )
        return store

    def test_market_leads_lower_is_better_metric(self, fake_run_result):
        from repro.results.stats import compare_mechanisms

        with self.seeded_store(fake_run_result) as store:
            report = compare_mechanisms(store, "tiny")
        assert report.mechanisms[0] == "market"  # market leads the display order
        assert set(report.mechanisms) == {"market", "fixed-price", "priority"}
        assert report.best("shortage_cost") == "market"
        assert report.market_leads("shortage_cost")
        stats = report.metric_stats["shortage_cost"]
        assert stats["market"].mean == 40.0  # final-epoch value per replicate
        assert stats["fixed-price"].mean == 180.0

    def test_neutral_metrics_have_no_best(self, fake_run_result):
        from repro.results.stats import compare_mechanisms

        with self.seeded_store(fake_run_result) as store:
            report = compare_mechanisms(store, "tiny")
        assert report.directions["trade_count"] == "neutral"
        assert report.best("trade_count") is None
        assert not report.market_leads("trade_count")

    def test_tied_metrics_have_no_best(self, fake_run_result):
        from repro.results.stats import compare_mechanisms

        with self.seeded_store(fake_run_result) as store:
            report = compare_mechanisms(store, "tiny")
        # total_revenue is identical across the injected mechanisms: a tie.
        assert report.best("total_revenue") is None

    def test_explicit_mechanism_subset(self, fake_run_result):
        from repro.results.stats import compare_mechanisms

        with self.seeded_store(fake_run_result) as store:
            report = compare_mechanisms(
                store, "tiny", mechanisms=["market", "priority"]
            )
        assert report.mechanisms == ("market", "priority")

    def test_single_mechanism_store_is_an_error(self, fake_run_result):
        from repro.results.store import ResultStore
        from repro.results.stats import compare_mechanisms

        with ResultStore(":memory:") as store:
            store.record(fake_run_result(), code_version="v1")
            with pytest.raises(ValueError, match="at least two"):
                compare_mechanisms(store, "tiny")

    def test_empty_store_is_an_error(self, fake_run_result):
        from repro.results.store import ResultStore
        from repro.results.stats import compare_mechanisms

        with ResultStore(":memory:") as store:
            with pytest.raises(ValueError, match="no stored runs"):
                compare_mechanisms(store, "tiny")

    def test_to_dict_is_json_serialisable(self, fake_run_result):
        import json

        from repro.results.stats import compare_mechanisms

        with self.seeded_store(fake_run_result) as store:
            payload = compare_mechanisms(store, "tiny").to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["metrics"]["shortage_cost"]["best"] == "market"


class TestCompareVersionsAcrossStores:
    """compare_versions with a separate baseline store (the CI cross-PR gate)."""

    def test_baseline_side_reads_from_the_other_store(self, fake_run_result):
        from repro.results.store import ResultStore
        from repro.results.stats import compare_versions

        with ResultStore(":memory:") as baseline_store, ResultStore(":memory:") as store:
            baseline_store.record(fake_run_result(revenue=(100.0, 140.0)), code_version="pr-1")
            store.record(fake_run_result(revenue=(10.0, 14.0)), code_version="pr-2")
            report = compare_versions(
                store,
                "tiny",
                baseline_version="pr-1",
                candidate_version="pr-2",
                baseline_store=baseline_store,
            )
        assert not report.ok
        assert "total_revenue" in [c.metric for c in report.regressions]


class TestCompareMechanismsVersionScoping:
    def test_default_mechanism_list_is_scoped_to_the_compared_version(
        self, fake_run_result
    ):
        # priority exists only under the older v1; the latest-version
        # comparison must cover the mechanisms v2 actually has.
        from repro.results.store import ResultStore
        from repro.results.stats import compare_mechanisms

        with ResultStore(":memory:") as store:
            store.record(fake_run_result(seed=0), code_version="v1")
            store.record(fake_run_result(seed=0, mechanism="priority"), code_version="v1")
            store.record(fake_run_result(seed=0), code_version="v2")
            store.record(
                fake_run_result(seed=0, mechanism="proportional"), code_version="v2"
            )
            report = compare_mechanisms(store, "tiny")
        assert report.code_version == "v2"
        assert set(report.mechanisms) == {"market", "proportional"}


class TestScenarioStats:
    def test_latest_version_and_one_mechanism(self, fake_run_result):
        from repro.results.stats import scenario_stats
        from repro.results.store import ResultStore

        with ResultStore(":memory:") as store:
            for seed in (0, 1):
                store.record(fake_run_result(seed=seed, shortage_cost=(60.0, 40.0 + seed)), code_version="v1")
                store.record(fake_run_result(seed=seed, shortage_cost=(60.0, 50.0 + seed)), code_version="v2")
                store.record(
                    fake_run_result(seed=seed, mechanism="priority", shortage_cost=(9.0, 9.0)),
                    code_version="v2",
                )
            latest = scenario_stats(store, "tiny", mechanism="market")["shortage_cost"]
            assert (latest.count, latest.mean) == (2, 50.5)
            older = scenario_stats(store, "tiny", code_version="v1")["shortage_cost"]
            assert (older.count, older.mean) == (2, 40.5)
            assert scenario_stats(store, "tiny", mechanism="priority")["shortage_cost"].mean == 9.0
            with pytest.raises(ValueError, match="mechanism"):
                scenario_stats(store, "tiny")
