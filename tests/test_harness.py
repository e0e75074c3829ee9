"""Tests for the Table 1/2 scenario harness (one full scenario run)."""

import gc
import warnings

import pytest

from repro.workloads.harness import (SCENARIOS, ScenarioSpec,
                                     run_scenario, workload_loc)


class TestSpecs:
    def test_four_case_studies(self):
        assert set(SCENARIOS) == {"Daikon", "Xalan-1725", "Xalan-1802",
                                  "Derby-1633"}

    def test_workload_loc_positive(self):
        for spec in SCENARIOS.values():
            assert workload_loc(spec.package) > 100

    def test_workload_loc_closes_its_files(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert workload_loc("minixslt") > 100
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_specs_runnable(self):
        for spec in SCENARIOS.values():
            assert callable(spec.run_old)
            assert callable(spec.run_new)
            assert callable(spec.is_cause_entry)


@pytest.mark.slow
class TestScenarioRun:
    """End-to-end harness run on the cheapest study (Xalan-1725)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(SCENARIOS["Xalan-1725"])

    def test_traces_collected(self, result):
        assert result.trace_entries > 1000
        assert result.tracing_seconds > 0

    def test_views_semantics_complete(self, result):
        assert result.views.failed is None
        assert result.views.num_diffs > 0
        assert result.views.diff_sequences > 0
        assert result.views.regression_sequences >= 1
        assert result.views.false_negatives == 0

    def test_lcs_baseline_ran_within_budget(self, result):
        # This study's traces fit the baseline's memory budget.
        assert result.lcs.failed is None
        assert result.lcs.num_diffs is not None

    def test_set_sizes_shrink(self, result):
        assert result.set_sizes["D"] <= result.set_sizes["A"]
        assert result.set_sizes["D"] >= 1

    def test_view_counts_consistent(self, result):
        counts = result.view_counts
        assert counts["total"] == (counts["thread"] + counts["method"]
                                   + counts["target_object"]
                                   + counts["active_object"])

    def test_speedup_reported(self, result):
        assert result.speedup is not None
        assert result.speedup > 0
