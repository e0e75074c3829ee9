"""The interned data layer: KeyTable semantics and the lazy ViewWeb."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter
from repro.core.lcs_diff import lcs_diff
from repro.core.traces import TraceBuilder
from repro.core.values import prim
from repro.core.view_diff import ViewDiffConfig, view_diff
from repro.core.views import ViewType
from repro.core.web import ViewWeb

from helpers import myfaces_trace

# Small entry "programs" reusing the shape of test_properties.
operation = st.one_of(
    st.tuples(st.just("new")),
    st.tuples(st.just("call"), st.integers(0, 3), st.integers(0, 2),
              st.integers(0, 5)),
    st.tuples(st.just("set"), st.integers(0, 3), st.integers(0, 1),
              st.integers(0, 5)),
)
programs = st.lists(operation, max_size=40)

CLASSES = ("Alpha", "Beta")
METHODS = ("m0", "m1", "m2")
FIELDS = ("f0", "f1")


def build_trace(program, name="", key_table=None):
    builder = TraceBuilder(name=name, key_table=key_table)
    tid = builder.main_tid
    objects = []
    for op in program:
        if op[0] == "new":
            cls = CLASSES[len(objects) % len(CLASSES)]
            objects.append(builder.record_init(
                tid, cls, (), serialization=(cls, len(objects))))
        elif not objects:
            continue
        elif op[0] == "call":
            _, obj_at, method_at, value = op
            obj = objects[obj_at % len(objects)]
            builder.record_call(tid, obj, METHODS[method_at], (prim(value),))
            builder.record_return(tid, prim(value))
        else:
            _, obj_at, field_at, value = op
            obj = objects[obj_at % len(objects)]
            builder.record_set(tid, obj, FIELDS[field_at], prim(value))
    builder.record_end(tid)
    return builder.build()


class TestKeyTable:
    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_interning_preserves_event_equality(self, program):
        """Two entries intern to the same id iff their keys are equal."""
        trace = build_trace(program)
        table = KeyTable()
        ids = table.ids_for(trace)
        entries = trace.entries
        for i, entry_i in enumerate(entries):
            for j, entry_j in enumerate(entries):
                assert ((ids[i] == ids[j])
                        == (entry_i.key() == entry_j.key()))

    @given(programs, programs)
    @settings(max_examples=40, deadline=None)
    def test_shared_table_aligns_two_traces(self, left_ops, right_ops):
        table = KeyTable()
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        ids_l = table.ids_for(left)
        ids_r = table.ids_for(right)
        for i, entry_l in enumerate(left.entries):
            for j, entry_r in enumerate(right.entries):
                assert ((ids_l[i] == ids_r[j])
                        == (entry_l.key() == entry_r.key()))

    def test_ids_for_reuses_carried_column(self):
        table = KeyTable()
        trace = build_trace([("new",), ("set", 0, 0, 1)], key_table=table)
        assert trace.key_table is table
        assert table.ids_for(trace) is trace.key_ids

    def test_translation_from_foreign_table(self):
        """A trace interned against another table translates per distinct
        key, and the translated column agrees with direct interning."""
        own = KeyTable()
        trace = build_trace([("new",), ("set", 0, 0, 1), ("set", 0, 0, 1),
                             ("call", 0, 1, 2)], key_table=own)
        pair = KeyTable()
        pair.intern(("unrelated",))  # offset the id space
        column = pair.ids_for(trace)
        fresh = KeyTable()
        fresh.intern(("unrelated",))
        assert list(column) == list(fresh.intern_entries(trace.entries))

    def test_builder_interns_one_key_per_entry(self):
        """Ingest-time interning counts one key construction per entry
        and its ids stand for ``entry.key()``, whether the recorder
        passed a prebuilt key or let the builder derive it."""
        table = KeyTable()
        builder = TraceBuilder(key_table=table)
        tid = builder.main_tid
        obj = builder.record_init(tid, "A", (prim(1),), serialization="a")
        builder.record_get(tid, obj, "f", prim(2),
                           ("get", obj.key(), "f", prim(2).key()))
        builder.record_call(tid, obj, "A.m", (prim(3),))
        builder.record_return(tid, prim(4))
        trace = builder.build()
        assert table.key_constructions == len(trace) == 4
        assert [table.key_of(kid) for kid in trace.key_ids] \
            == [entry.key() for entry in trace.entries]
        assert table.intern_entry(trace[1]) == trace.key_ids[1]
        assert table.key_constructions == 5

    def test_repeated_builds_merge_only_new_rows(self):
        """Each build merges the keys recorded since the last one: the
        later snapshot extends the earlier one's ids, and every entry
        counts one key construction overall."""
        table = KeyTable()
        builder = TraceBuilder(key_table=table)
        tid = builder.main_tid
        obj = builder.record_init(tid, "A", (), serialization="a")
        builder.record_set(tid, obj, "f", prim(1))
        first = builder.build()
        builder.record_set(tid, obj, "f", prim(2))
        builder.record_set(tid, obj, "f", prim(1))
        second = builder.build()
        assert table.key_constructions == len(second) == 4
        assert list(second.key_ids[:len(first)]) == list(first.key_ids)
        assert list(second.key_ids) == \
            list(KeyTable().intern_entries(second.entries))

    def test_for_pair_prefers_common_carried_table(self):
        table = KeyTable()
        left = build_trace([("new",)], "L", key_table=table)
        right = build_trace([("new",)], "R", key_table=table)
        assert KeyTable.for_pair(left, right) is table
        foreign = build_trace([("new",)], "F")
        assert KeyTable.for_pair(left, foreign) is not table

    @given(programs, programs)
    @settings(max_examples=25, deadline=None)
    def test_interned_diffing_is_result_identical(self, left_ops, right_ops):
        left = build_trace(left_ops, "L")
        right = build_trace(right_ops, "R")
        for diff in (
            lambda interned, counter: view_diff(
                left, right, counter=counter,
                config=ViewDiffConfig(interned=interned)),
            lambda interned, counter: lcs_diff(
                left, right, interned=interned, counter=counter),
        ):
            counter_t, counter_i = OpCounter(), OpCounter()
            tupled = diff(False, counter_t)
            interned = diff(True, counter_i)
            assert tupled.similar_left == interned.similar_left
            assert tupled.similar_right == interned.similar_right
            assert counter_t.total == counter_i.total


class TestTraceCaches:
    def test_thread_ids_cached_and_fresh_per_build(self):
        builder = TraceBuilder(name="t")
        tid = builder.main_tid
        obj = builder.record_init(tid, "A", (), serialization=("A", 1))
        builder.record_set(tid, obj, "f", prim(1))
        first = builder.build()
        assert first.thread_ids() == [0]
        assert first.thread_ids() == [0]  # cached path
        child = builder.record_fork(tid)
        builder.record_set(child, obj, "f", prim(2))
        second = builder.build()
        # The earlier snapshot's cache is not polluted by later recording.
        assert first.thread_ids() == [0]
        assert second.thread_ids() == [0, child]

    def test_fingerprint_stable_and_content_sensitive(self):
        a1 = myfaces_trace(name="a")
        a2 = myfaces_trace(name="a")
        b = myfaces_trace(new_version=True, name="a")
        assert a1.fingerprint() == a1.fingerprint()
        assert a1.fingerprint() == a2.fingerprint()
        assert a1.fingerprint() != b.fingerprint()


class TestLazyViewWeb:
    def test_unused_view_types_never_built(self):
        web = ViewWeb(myfaces_trace())
        assert web.built_view_types() == frozenset()
        assert web.thread_view(0) is not None
        assert web.built_view_types() == {ViewType.THREAD}
        assert ViewType.METHOD not in web.built_view_types()
        assert ViewType.TARGET_OBJECT not in web.built_view_types()
        assert ViewType.ACTIVE_OBJECT not in web.built_view_types()

    def test_counts_builds_everything(self):
        web = ViewWeb(myfaces_trace())
        counts = web.counts()
        assert web.built_view_types() == frozenset(ViewType)
        assert counts["total"] == sum(
            counts[k] for k in ("thread", "method", "target_object",
                                "active_object"))

    def test_identical_trace_diff_stays_thread_only(self):
        """Lock-step matching of equal traces never touches secondary
        views — the laziness pay-off the motivation promises."""
        left = myfaces_trace(name="L")
        right = myfaces_trace(name="R")
        web_l, web_r = ViewWeb(left), ViewWeb(right)
        result = view_diff(left, right, web_left=web_l, web_right=web_r)
        assert result.num_diffs() == 0
        assert web_l.built_view_types() == {ViewType.THREAD}
        assert web_r.built_view_types() == {ViewType.THREAD}

    def test_index_columns_are_compact(self):
        from array import array
        web = ViewWeb(myfaces_trace())
        for view in web.all_views():
            assert isinstance(view.indices, array)
            assert view.indices.typecode == "I"
