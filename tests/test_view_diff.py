"""Tests for the views-based differencing semantics (Fig. 12)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcs_diff import lcs_diff
from repro.core.lcs import OpCounter
from repro.core.view_diff import (PairMarks, ViewDiffConfig, ViewDiffPlan,
                                  view_diff)

from helpers import myfaces_trace, simple_trace, two_thread_trace

value_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=25)


class TestLockStep:
    def test_identical_traces(self):
        left = simple_trace([1, 2, 3], name="L")
        right = simple_trace([1, 2, 3], name="R")
        result = view_diff(left, right)
        assert result.num_diffs() == 0
        assert len(result.match_pairs) == len(left)

    def test_single_modification(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([1, 7, 3])
        result = view_diff(left, right)
        assert result.num_diffs() == 2
        [seq] = result.sequences
        assert seq.kind == "modify"

    def test_insertion(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([1, 2, 99, 3])
        result = view_diff(left, right)
        assert result.num_diffs() == 1
        [seq] = result.sequences
        assert seq.kind == "insert"

    def test_trailing_difference(self):
        left = simple_trace([1, 2])
        right = simple_trace([1, 2, 3, 4])
        result = view_diff(left, right)
        assert result.num_diffs() == 2


class TestSimilaritySetInvariants:
    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_similar_plus_diff_partitions_traces(self, a, b):
        left = simple_trace(a)
        right = simple_trace(b)
        result = view_diff(left, right)
        assert len(result.similar_left) + len(result.left_diff_eids()) == \
            len(left)
        assert len(result.similar_right) + len(result.right_diff_eids()) == \
            len(right)

    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_match_pairs_have_equal_keys(self, a, b):
        left = simple_trace(a)
        right = simple_trace(b)
        result = view_diff(left, right)
        for l_eid, r_eid in result.match_pairs:
            assert left.entries[l_eid].key() == right.entries[r_eid].key()

    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_anchor_pairs_have_equal_keys(self, a, b):
        left = simple_trace(a)
        right = simple_trace(b)
        result = view_diff(left, right)
        for l_eid, r_eid in result.anchor_pairs:
            assert left.entries[l_eid].key() == right.entries[r_eid].key()

    @given(value_lists)
    @settings(max_examples=40, deadline=None)
    def test_self_diff_is_empty(self, a):
        left = simple_trace(a, name="L")
        right = simple_trace(a, name="R")
        assert view_diff(left, right).num_diffs() == 0


class TestReorderingResilience:
    @staticmethod
    def cross_object_pair(swapped: bool, name: str):
        """Two objects whose operation blocks interleave differently in
        the thread view while each object's own order is unchanged."""
        from repro.core.traces import TraceBuilder
        from repro.core.values import prim
        builder = TraceBuilder(name=name)
        tid = builder.main_tid
        obj_x = builder.record_init(tid, "X", (), serialization="x")
        obj_y = builder.record_init(tid, "Y", (), serialization="y")
        for block in range(4):
            base = block * 5
            first, second = ((obj_y, obj_x) if swapped
                             else (obj_x, obj_y))
            for at in range(5):
                builder.record_set(tid, first,
                                   "f" if first is obj_x else "g",
                                   prim(base + at))
            for at in range(5):
                builder.record_set(tid, second,
                                   "f" if second is obj_x else "g",
                                   prim(base + at))
        builder.record_end(tid)
        return builder.build()

    def test_cross_object_reordering_recovered_via_views(self):
        # The LCS counts the swapped interleaving as differences; the
        # views-based differ anchors the entries through each object's
        # (unchanged) target-object view.
        left = self.cross_object_pair(False, "L")
        right = self.cross_object_pair(True, "R")
        from repro.core.view_diff import ViewDiffConfig
        views_result = view_diff(left, right, config=ViewDiffConfig(
            window=12, radius=4))
        lcs_result = lcs_diff(left, right)
        assert views_result.num_diffs() < lcs_result.num_diffs()
        assert views_result.anchor_pairs

    def test_motivating_example(self):
        left = myfaces_trace(min_range=32, name="orig")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        result = view_diff(left, right)
        # The regression manifests in the changed init/set values plus the
        # structural BinaryCharFilter insertion.
        diff_keys = {left.entries[eid].key()
                     for eid in result.left_diff_eids()}
        assert any("_minCharRange" in str(k) for k in diff_keys)
        # Unchanged surroundings (Logger calls) stay similar.
        log_eids = [e.eid for e in left
                    if e.event.kind == "call"
                    and "addMsg" in getattr(e.event, "method", "")]
        for eid in log_eids:
            assert eid in result.similar_left


class TestThreads:
    def test_two_threads_diffed_independently(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 2, 3], [7, 9], name="R")
        result = view_diff(left, right)
        # Only the worker thread's value differs.
        assert result.num_diffs() == 2
        [seq] = result.sequences
        assert {e.tid for e in seq.left_entries} == {1}

    def test_unmatched_thread_is_whole_difference(self):
        left = two_thread_trace([1, 2], [5], name="L")
        b = simple_trace([1, 2], name="R")
        result = view_diff(left, b)
        kinds = {s.kind for s in result.sequences}
        assert "delete" in kinds  # the worker thread only exists on left


class TestConfig:
    def test_zero_radius_disables_anchoring(self):
        left = simple_trace([10, 11, 1, 2, 3, 4, 5, 6])
        right = simple_trace([1, 2, 3, 4, 5, 6, 10, 11])
        config = ViewDiffConfig(radius=0, window=0, view_types=())
        result = view_diff(left, right, config=config)
        assert result.anchor_pairs == []

    def test_linear_compare_growth(self):
        # Doubling the trace length should roughly double compare count
        # (O(n) claim of Sec. 3.3) for a fixed difference density.
        def run(n):
            values = list(range(n))
            values[n // 2] = -1
            left = simple_trace(range(n))
            right = simple_trace(values)
            return view_diff(left, right).compares()

        small = run(400)
        large = run(800)
        assert large < small * 4  # comfortably sub-quadratic


class TestDegeneratePairs:
    """Hardening for the degenerate shapes segmentation exposes: empty
    traces, all-common pairs, and single-gap pairs (ISSUE 5)."""

    def test_empty_vs_empty(self):
        from repro.core.traces import Trace
        result = view_diff(Trace([], name="a"), Trace([], name="b"))
        assert result.num_diffs() == 0
        assert result.sequences == []

    def test_empty_vs_full_each_way(self):
        from repro.core.traces import Trace
        full = simple_trace([1, 2, 3], name="full")
        for left, right, kind in ((Trace([]), full, "insert"),
                                  (full, Trace([]), "delete")):
            result = view_diff(left, right)
            assert result.num_diffs() == len(full)
            [sequence] = result.sequences
            assert sequence.kind == kind

    @settings(max_examples=30, deadline=None)
    @given(value_lists)
    def test_all_common_pair_matches_everything(self, values):
        left = simple_trace(values, name="l")
        right = simple_trace(values, name="r")
        for config in (None, ViewDiffConfig(anchored=True)):
            result = view_diff(left, right, config=config)
            assert result.num_diffs() == 0
            assert len(result.match_pairs) == len(left)

    def test_single_gap_pair_anchored_and_plain(self):
        left = simple_trace([1, 2, 3, 4, 5], name="l")
        right = simple_trace([1, 2, 9, 4, 5], name="r")
        plain = view_diff(left, right)
        anchored = view_diff(left, right,
                             config=ViewDiffConfig(anchored=True))
        assert plain.num_diffs() == anchored.num_diffs() == 2
        assert [s.kind for s in plain.sequences] == ["modify"]
        assert [s.kind for s in anchored.sequences] == ["modify"]


def _signature(result):
    return (sorted(result.similar_left), sorted(result.similar_right),
            result.match_pairs, result.anchor_pairs,
            [(s.kind, [e.eid for e in s.left_entries],
              [e.eid for e in s.right_entries]) for s in result.sequences],
            result.counter.total)


class TestPlanPhase:
    """``view_diff`` is plan, one ``run_pair`` per correlated thread
    pair, then merge; the pieces stand alone."""

    def test_plan_enumerates_correlated_thread_pairs(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 2, 4], [7, 9], name="R")
        plan = ViewDiffPlan(left, right)
        assert len(plan.pairs) == 2
        assert all(isinstance(p, tuple) and len(p) == 2
                   for p in plan.pairs)

    def test_run_pair_produces_independent_marks(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 2, 4], [7, 9], name="R")
        plan = ViewDiffPlan(left, right)
        marks = [plan.run_pair(pair) for pair in plan.pairs]
        assert all(isinstance(mark, PairMarks) for mark in marks)
        assert [(m.ltid, m.rtid) for m in marks] == plan.pairs
        assert sum(mark.compares for mark in marks) > 0

    def test_merge_equals_one_shot_view_diff(self):
        left = two_thread_trace([1, 2, 3, 4], [7, 8], name="L")
        right = two_thread_trace([1, 2, 9, 4], [7, 9], name="R")
        plan = ViewDiffPlan(left, right)
        merged = plan.merge([plan.run_pair(p) for p in plan.pairs])
        assert _signature(merged) == _signature(view_diff(left, right))

    def test_merge_order_is_plan_order_not_evaluation_order(self):
        left = two_thread_trace([1, 2, 3], [7, 8, 1], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9, 1], name="R")
        plan = ViewDiffPlan(left, right)
        forward = [plan.run_pair(p) for p in plan.pairs]
        backward = list(reversed(
            [plan.run_pair(p) for p in reversed(plan.pairs)]))
        assert _signature(plan.merge(forward)) == \
            _signature(plan.merge(backward)) == \
            _signature(view_diff(left, right))

    def test_counter_accumulates_across_diffs(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9], name="R")
        baseline = view_diff(left, right).counter.total
        counter = OpCounter()
        view_diff(left, right, counter=counter)
        view_diff(left, right, counter=counter)
        assert counter.total == 2 * baseline
