"""Hypothesis property tests over richer generated traces.

Generators build multi-object, multi-method traces; properties assert
the structural invariants of views, diffing, serialisation, and the
regression set algebra that every concrete test elsewhere relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import dumps_trace_bytes, loads_trace
from repro.core.lcs_diff import lcs_diff
from repro.core.regression import analyze_regression
from repro.core.traces import TraceBuilder
from repro.core.view_diff import view_diff
from repro.core.views import ViewType, view_names
from repro.core.web import ViewWeb
from repro.core.values import prim

# One trace "program": a list of operations over a small object pool.
#   ("new",)                      create an object (round-robin class)
#   ("call", obj, method, value)  call + return on object
#   ("set", obj, field, value)    field write
#   ("fork",)                     spawn a thread (events stay on main)
operation = st.one_of(
    st.tuples(st.just("new")),
    st.tuples(st.just("call"), st.integers(0, 3), st.integers(0, 2),
              st.integers(0, 5)),
    st.tuples(st.just("set"), st.integers(0, 3), st.integers(0, 1),
              st.integers(0, 5)),
    st.tuples(st.just("fork")),
)
programs = st.lists(operation, max_size=40)

CLASSES = ("Alpha", "Beta")
METHODS = ("m0", "m1", "m2")
FIELDS = ("f0", "f1")


def build_trace(program, name=""):
    builder = TraceBuilder(name=name)
    tid = builder.main_tid
    objects = []
    for op in program:
        if op[0] == "new":
            class_name = CLASSES[len(objects) % len(CLASSES)]
            objects.append(builder.record_init(tid, class_name, ()))
        elif op[0] == "fork":
            builder.record_fork(tid)
        elif not objects:
            continue
        elif op[0] == "call":
            _, obj_at, method_at, value = op
            obj = objects[obj_at % len(objects)]
            method = f"{obj.class_name}.{METHODS[method_at]}"
            builder.record_call(tid, obj, method, (prim(value),))
            builder.record_return(tid, prim(value))
        elif op[0] == "set":
            _, obj_at, field_at, value = op
            obj = objects[obj_at % len(objects)]
            builder.record_set(tid, obj, FIELDS[field_at], prim(value))
    builder.record_end(tid)
    return builder.build()


class TestViewInvariants:
    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_thread_views_partition_trace(self, program):
        trace = build_trace(program)
        web = ViewWeb(trace)
        covered = sorted(
            index for view in web.views_of_type(ViewType.THREAD)
            for index in view.indices)
        assert covered == list(range(len(trace)))

    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_method_views_partition_trace(self, program):
        trace = build_trace(program)
        web = ViewWeb(trace)
        covered = sorted(
            index for view in web.views_of_type(ViewType.METHOD)
            for index in view.indices)
        assert covered == list(range(len(trace)))

    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_view_membership_consistent_with_mappings(self, program):
        trace = build_trace(program)
        web = ViewWeb(trace)
        for entry in trace:
            for name in view_names(entry):
                view = web.view(name)
                assert view is not None
                assert view.position_of(entry.eid) >= 0

    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_view_indices_sorted(self, program):
        web = ViewWeb(build_trace(program))
        for view in web.all_views():
            assert list(view.indices) == sorted(view.indices)


class TestDiffProperties:
    @given(programs, programs)
    @settings(max_examples=60, deadline=None)
    def test_view_diff_partition(self, left_ops, right_ops):
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        result = view_diff(left, right)
        assert len(result.similar_left) + len(result.left_diff_eids()) \
            == len(left)
        assert len(result.similar_right) + len(result.right_diff_eids()) \
            == len(right)
        for l_eid, r_eid in result.match_pairs:
            assert left.entries[l_eid].key() == right.entries[r_eid].key()

    @given(programs, programs)
    @settings(max_examples=60, deadline=None)
    def test_views_never_below_lcs_similarity_minus_slack(self, left_ops,
                                                          right_ops):
        # The views differ may differ from exact LCS but both mark only
        # genuinely equal entries; sanity: neither exceeds trace bounds.
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        views = view_diff(left, right)
        lcs = lcs_diff(left, right)
        assert 0 <= views.num_similar() <= len(left) + len(right)
        assert 0 <= lcs.num_similar() <= len(left) + len(right)

    @given(programs)
    @settings(max_examples=40, deadline=None)
    def test_sequences_cover_all_differences(self, program):
        left = build_trace(program, "L")
        right = build_trace(list(reversed(program)), "R")
        result = view_diff(left, right)
        in_sequences = sum(s.size() for s in result.sequences)
        assert in_sequences == result.num_diffs()


class TestSerializationProperties:
    @given(programs)
    @settings(max_examples=60, deadline=None)
    def test_entry_round_trip(self, program):
        trace = build_trace(program)
        loaded = loads_trace(dumps_trace_bytes(trace))
        for entry, reborn in zip(trace, loaded.entries, strict=True):
            assert reborn.key() == entry.key()
            assert reborn.method == entry.method
            assert reborn.tid == entry.tid


class TestRegressionAlgebraProperties:
    @given(programs, programs)
    @settings(max_examples=40, deadline=None)
    def test_d_bounded_by_a(self, left_ops, right_ops):
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        suspected = view_diff(left, right)
        report = analyze_regression(suspected)
        assert report.size_d <= report.size_a

    @given(programs, programs)
    @settings(max_examples=40, deadline=None)
    def test_subtracting_self_empties_d(self, left_ops, right_ops):
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        suspected = view_diff(left, right)
        # B == A: every difference is "expected" -> D is empty.
        report = analyze_regression(suspected, expected=suspected)
        assert report.size_d == 0
