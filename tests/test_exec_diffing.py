"""The diff execution phase: plan/execute split and result identity.

The views-based diff's acceptance bar is *bit-identity*: whatever
executor runs the per-thread-pair execution phase — serial, thread
pool, or process pool — the merged result must equal the serial
evaluation exactly (similarity sets, match and anchor pairs, sequences,
compare totals).  The hypothesis suites below pin that down over
randomly generated multi-threaded trace pairs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcs import OpCounter
from repro.core.traces import TraceBuilder
from repro.core.values import prim
from repro.core.view_diff import (PairMarks, ViewDiffConfig,
                                  plan_view_diff, view_diff)
from repro.exec import ProcessExecutor, ThreadExecutor, executed_view_diff

from helpers import myfaces_trace, two_thread_trace

# A trace program over one main and two worker threads: every op is
# (thread, kind, value); threads with no ops never exist.
operation = st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 6))
programs = st.lists(operation, max_size=50)

METHODS = ("Widget.spin", "Widget.poke", "Widget.drop")


def build_threaded_trace(program, name=""):
    builder = TraceBuilder(name=name)
    main = builder.main_tid
    obj = builder.record_init(main, "Widget", (), serialization="widget")
    tids = {0: main}
    for thread_at, kind, value in program:
        tid = tids.get(thread_at)
        if tid is None:
            tid = tids[thread_at] = builder.record_fork(main)
        if kind == 0:
            builder.record_set(tid, obj, "v", prim(value))
        elif kind == 1:
            builder.record_call(tid, obj, METHODS[value % len(METHODS)],
                                (prim(value),))
            builder.record_return(tid, prim(value))
        else:
            builder.record_get(tid, obj, "v", prim(value))
    for tid in tids.values():
        builder.record_end(tid)
    return builder.build()


def signature(result):
    """Everything that must be identical across execution backends."""
    return (
        sorted(result.similar_left),
        sorted(result.similar_right),
        result.match_pairs,
        result.anchor_pairs,
        [(s.kind, [e.eid for e in s.left_entries],
          [e.eid for e in s.right_entries]) for s in result.sequences],
        result.counter.total,
    )


@pytest.fixture(scope="module")
def thread_pool():
    with ThreadExecutor(max_workers=3) as ex:
        yield ex


@pytest.fixture(scope="module")
def process_pool():
    with ProcessExecutor(max_workers=2) as ex:
        yield ex


class TestPlanPhase:
    def test_plan_enumerates_correlated_thread_pairs(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 2, 4], [7, 9], name="R")
        plan = plan_view_diff(left, right)
        assert len(plan.pairs) == 2
        assert all(isinstance(p, tuple) and len(p) == 2
                   for p in plan.pairs)

    def test_run_pair_produces_independent_marks(self):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 2, 4], [7, 9], name="R")
        plan = plan_view_diff(left, right)
        marks = [plan.run_pair(pair) for pair in plan.pairs]
        assert all(isinstance(mark, PairMarks) for mark in marks)
        assert [(m.ltid, m.rtid) for m in marks] == plan.pairs
        assert sum(mark.compares for mark in marks) > 0

    def test_merge_equals_one_shot_view_diff(self):
        left = two_thread_trace([1, 2, 3, 4], [7, 8], name="L")
        right = two_thread_trace([1, 2, 9, 4], [7, 9], name="R")
        plan = plan_view_diff(left, right)
        merged = plan.merge([plan.run_pair(p) for p in plan.pairs])
        assert signature(merged) == signature(view_diff(left, right))

    def test_merge_order_is_plan_order_not_completion_order(self):
        left = two_thread_trace([1, 2, 3], [7, 8, 1], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9, 1], name="R")
        plan = plan_view_diff(left, right)
        forward = [plan.run_pair(p) for p in plan.pairs]
        # Evaluating in reverse then merging in plan order must still
        # reproduce the serial result (marks are order-independent).
        backward = list(reversed(
            [plan.run_pair(p) for p in reversed(plan.pairs)]))
        assert signature(plan.merge(forward)) == \
            signature(plan.merge(backward)) == \
            signature(view_diff(left, right))

    def test_process_executor_rejected_by_core_view_diff(self, process_pool):
        left = two_thread_trace([1], [2], name="L")
        right = two_thread_trace([1], [2], name="R")
        with pytest.raises(ValueError, match="executed_view_diff"):
            view_diff(left, right, executor=process_pool)


class TestExecutorIdentity:
    @given(programs, programs)
    @settings(max_examples=40, deadline=None)
    def test_threaded_execution_is_bit_identical(self, thread_pool,
                                                 left_ops, right_ops):
        left = build_threaded_trace(left_ops, name="L")
        right = build_threaded_trace(right_ops, name="R")
        serial = view_diff(left, right)
        threaded = view_diff(left, right, executor=thread_pool)
        assert signature(serial) == signature(threaded)

    @given(programs, programs)
    @settings(max_examples=8, deadline=None)
    def test_process_execution_is_bit_identical(self, process_pool,
                                                left_ops, right_ops):
        left = build_threaded_trace(left_ops, name="L")
        right = build_threaded_trace(right_ops, name="R")
        serial = view_diff(left, right)
        processed = executed_view_diff(left, right, executor=process_pool)
        assert signature(serial) == signature(processed)

    @given(programs, programs)
    @settings(max_examples=20, deadline=None)
    def test_tuple_key_path_identical_too(self, thread_pool,
                                          left_ops, right_ops):
        config = ViewDiffConfig(interned=False)
        left = build_threaded_trace(left_ops, name="L")
        right = build_threaded_trace(right_ops, name="R")
        serial = view_diff(left, right, config=config)
        threaded = view_diff(left, right, config=config,
                             executor=thread_pool)
        assert signature(serial) == signature(threaded)

    def test_myfaces_pair_identical_across_all_executors(
            self, thread_pool, process_pool):
        left = myfaces_trace(name="old")
        right = myfaces_trace(new_version=True, name="new")
        serial = view_diff(left, right)
        assert signature(serial) == signature(
            view_diff(left, right, executor=thread_pool))
        assert signature(serial) == signature(
            executed_view_diff(left, right, executor=process_pool))
        assert signature(serial) == signature(
            executed_view_diff(left, right, executor="serial"))

    def test_counter_accumulates_across_executed_diffs(self, thread_pool):
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9], name="R")
        baseline = view_diff(left, right).counter.total
        counter = OpCounter()
        view_diff(left, right, executor=thread_pool, counter=counter)
        view_diff(left, right, executor=thread_pool, counter=counter)
        assert counter.total == 2 * baseline


class TestSessionDiffExecutor:
    def test_views_engine_accepts_executor(self, thread_pool):
        from repro.api.engines import get_engine
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9], name="R")
        engine = get_engine("views")
        assert signature(engine.diff(left, right)) == \
            signature(engine.diff(left, right, executor=thread_pool))

    def test_session_diff_routes_through_executor(self, process_pool):
        from repro.api import Session
        left = two_thread_trace([1, 2, 3], [7, 8], name="L")
        right = two_thread_trace([1, 5, 3], [7, 9], name="R")
        serial = Session().diff(left, right)
        parallel = Session(executor=process_pool).diff(left, right)
        assert signature(serial) == signature(parallel)

    def test_lcs_engines_unaffected_by_executor(self, process_pool):
        from repro.api import Session
        left = two_thread_trace([1, 2, 3], [], name="L")
        right = two_thread_trace([1, 5, 3], [], name="R")
        serial = Session(engine="optimized").diff(left, right)
        parallel = Session(engine="optimized",
                           executor=process_pool).diff(left, right)
        assert sorted(serial.similar_left) == sorted(parallel.similar_left)
