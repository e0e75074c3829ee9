"""Tests for the LCS-based differencing semantics (Fig. 11)."""

import pytest

from repro.core.lcs import LcsMemoryError, MemoryBudget
from repro.core.lcs_diff import lcs_diff

from helpers import simple_trace


class TestLcsDiff:
    def test_identical_traces_have_no_diffs(self):
        left = simple_trace([1, 2, 3], name="L")
        right = simple_trace([1, 2, 3], name="R")
        result = lcs_diff(left, right)
        assert result.num_diffs() == 0
        assert result.sequences == []
        assert result.num_similar() == len(left) + len(right)

    def test_insertion_detected(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([1, 2, 99, 3])
        result = lcs_diff(left, right)
        assert result.num_diffs() == 1
        [seq] = result.sequences
        assert seq.kind == "insert"
        assert seq.right_entries[0].event.value.serialization == 99

    def test_deletion_detected(self):
        left = simple_trace([1, 2, 99, 3])
        right = simple_trace([1, 2, 3])
        result = lcs_diff(left, right)
        [seq] = result.sequences
        assert seq.kind == "delete"

    def test_modification_detected(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([1, 7, 3])
        result = lcs_diff(left, right)
        [seq] = result.sequences
        assert seq.kind == "modify"
        assert seq.size() == 2

    def test_moved_block_counted_as_two_diffs(self):
        # The LCS cannot detect moves (Fig. 10): a block moved from the
        # front to the back shows up as delete + insert.
        left = simple_trace([10, 11, 1, 2, 3, 4])
        right = simple_trace([1, 2, 3, 4, 10, 11])
        result = lcs_diff(left, right)
        assert result.num_diffs() == 4
        kinds = sorted(s.kind for s in result.sequences)
        assert kinds == ["delete", "insert"]

    def test_match_pairs_are_monotonic(self):
        left = simple_trace([1, 2, 3, 4, 5])
        right = simple_trace([1, 3, 5, 6])
        result = lcs_diff(left, right)
        lefts = [l for l, _ in result.match_pairs]
        rights = [r for _, r in result.match_pairs]
        assert lefts == sorted(lefts)
        assert rights == sorted(rights)

    def test_all_algorithms_agree_on_diff_count(self):
        left = simple_trace([1, 2, 3, 4, 5, 6])
        right = simple_trace([1, 9, 3, 4, 8, 6])
        counts = {lcs_diff(left, right, algorithm=a).num_diffs()
                  for a in ("optimized", "dp", "hirschberg")}
        assert len(counts) == 1

    def test_budget_failure_propagates(self):
        left = simple_trace(range(100))
        right = simple_trace(range(200, 300))
        with pytest.raises(LcsMemoryError):
            lcs_diff(left, right, budget=MemoryBudget(max_cells=64))

    def test_unknown_algorithm_rejected(self):
        left = simple_trace([1])
        right = simple_trace([1])
        with pytest.raises(ValueError):
            lcs_diff(left, right, algorithm="quantum")

    def test_compare_count_recorded(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([4, 5, 6])
        result = lcs_diff(left, right, algorithm="dp")
        assert result.compares() > 0

    def test_peak_cells_reported(self):
        left = simple_trace(range(20))
        right = simple_trace(range(10, 30))
        budget = MemoryBudget()
        result = lcs_diff(left, right, budget=budget)
        assert result.peak_cells > 0


class TestDegeneratePairs:
    """Degenerate shapes: empty traces, all-common pairs, and
    single-gap pairs."""

    def test_empty_vs_empty(self):
        from repro.core.traces import Trace
        result = lcs_diff(Trace([], name="a"), Trace([], name="b"))
        assert result.num_diffs() == 0
        assert result.match_pairs == [] and result.sequences == []

    def test_empty_vs_full_each_way(self):
        from repro.core.traces import Trace
        full = simple_trace([1, 2, 3], name="full")
        for left, right, kind in ((Trace([]), full, "insert"),
                                  (full, Trace([]), "delete")):
            result = lcs_diff(left, right)
            assert result.num_diffs() == len(full)
            [sequence] = result.sequences
            assert sequence.kind == kind

    def test_empty_pair_under_budget(self):
        from repro.core.traces import Trace
        result = lcs_diff(Trace([]), Trace([]),
                          budget=MemoryBudget(max_cells=4))
        assert result.num_diffs() == 0

    @pytest.mark.parametrize("algorithm",
                             ["optimized", "dp", "hirschberg"])
    def test_all_common_pair(self, algorithm):
        left = simple_trace([1, 1, 2, 2, 3], name="l")
        right = simple_trace([1, 1, 2, 2, 3], name="r")
        result = lcs_diff(left, right, algorithm=algorithm)
        assert result.num_diffs() == 0
        assert result.match_pairs == [(i, i) for i in range(len(left))]

    @pytest.mark.parametrize("algorithm",
                             ["optimized", "dp", "hirschberg"])
    def test_single_gap_pair(self, algorithm):
        left = simple_trace([1, 2, 3, 4], name="l")
        right = simple_trace([1, 9, 3, 4], name="r")
        result = lcs_diff(left, right, algorithm=algorithm)
        assert result.num_diffs() == 2
        [sequence] = result.sequences
        assert sequence.kind == "modify"
