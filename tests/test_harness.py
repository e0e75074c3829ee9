"""Tests for the Table 1/2 scenario harness (full scenario runs)."""

import gc
import warnings

import pytest

import repro.api.session as session_module
from repro.capture.tracer import Tracer
from repro.workloads.harness import (SCENARIOS, ScenarioSpec,
                                     run_scenario, workload_loc)

#: Whole Table 1/2 rows: trace entries; views and LCS as (diffs,
#: sequences, regression sequences, FP, FN, compares, memory bytes);
#: the A/B/C/D set sizes; the Table 2 view counts.
PINNED_ROWS = {
    "Xalan-1725": (
        7_421,
        (99, 22, 10, 1, 0, 492_754, 118_216),
        (117, 23, 13, 3, 0, 23_653_008, 55_070_280),
        {"A": 22, "B": 4, "C": 166, "D": 10},
        {"total": 126, "thread": 1, "method": 56, "target_object": 35,
         "active_object": 34}),
    "Daikon": (
        12_586,
        (310, 73, 6, 3, 0, 842_997, 199_040),
        (318, 74, 7, 3, 0, 114_795_917, 158_407_360),
        {"A": 73, "B": 59, "C": 308, "D": 6},
        {"total": 395, "thread": 1, "method": 64, "target_object": 165,
         "active_object": 165}),
}


def _semantics(row):
    assert row.failed is None
    return (row.num_diffs, row.diff_sequences, row.regression_sequences,
            row.false_positives, row.false_negatives, row.compares,
            row.memory_bytes)


def _row(result):
    return (result.trace_entries, _semantics(result.views),
            _semantics(result.lcs), result.set_sizes, result.view_counts)


def _counted_run(name):
    """Run one study, counting every capture (tracer entered) and every
    capture task handed to ``repro.api.session.run_capture_tasks``."""
    counts = {"captures": 0, "tasks": 0}
    enter = Tracer.__enter__
    run_tasks = session_module.run_capture_tasks

    def counting_enter(tracer):
        counts["captures"] += 1
        return enter(tracer)

    def counting_tasks(tasks, **kwargs):
        tasks = list(tasks)
        counts["tasks"] += len(tasks)
        return run_tasks(tasks, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tracer, "__enter__", counting_enter)
        patch.setattr(session_module, "run_capture_tasks", counting_tasks)
        result = run_scenario(SCENARIOS[name])
    return result, counts


@pytest.fixture(scope="module")
def study_run():
    """``study_run(name)`` -> (result, capture counts), run once."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _counted_run(name)
        return runs[name]
    return run


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
    def result(self, study_run):
        return study_run("Xalan-1725")[0]

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


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PINNED_ROWS))
class TestPinnedRows:
    """The Table 1/2 rows of the two cheapest studies, exactly."""

    def test_whole_row(self, study_run, name):
        assert _row(study_run(name)[0]) == PINNED_ROWS[name]

    def test_four_captures_all_through_the_session(self, study_run, name):
        assert study_run(name)[1] == {"captures": 4, "tasks": 4}
