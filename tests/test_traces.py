"""Tests for Trace and TraceBuilder (stack tracking, rule recording)."""

import pytest

from repro.core.events import Call, End, Fork, Init, Return
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import prim

from helpers import simple_trace, two_thread_trace


class TestTraceBuilder:
    def test_eids_are_indices(self):
        trace = simple_trace([1, 2, 3])
        for index, entry in enumerate(trace.entries):
            assert entry.eid == index

    def test_call_context_is_callers(self):
        b = TraceBuilder()
        tid = b.main_tid
        o = b.record_init(tid, "A", ())
        b.record_call(tid, o, "A.m", ())
        trace = b.build()
        call_entry = trace.entries[1]
        # METH-E records the call in the *calling* context.
        assert call_entry.method == TraceBuilder.ROOT_METHOD
        assert isinstance(call_entry.event, Call)

    def test_nested_call_context(self):
        b = TraceBuilder()
        tid = b.main_tid
        o = b.record_init(tid, "A", ())
        b.record_call(tid, o, "A.outer", ())
        b.record_call(tid, o, "A.inner", ())
        inner_get = b.record_get(tid, o, "f", prim(1))
        b.record_return(tid)
        after_return = b.record_get(tid, o, "f", prim(1))
        entries = b.build().entries
        assert entries[inner_get].method == "A.inner"
        assert entries[after_return].method == "A.outer"

    def test_return_records_method_and_value(self):
        b = TraceBuilder()
        tid = b.main_tid
        o = b.record_init(tid, "A", ())
        b.record_call(tid, o, "A.m", ())
        b.record_return(tid, prim(7))
        entry = b.build().entries[-1]
        assert isinstance(entry.event, Return)
        assert entry.event.method == "A.m"
        assert entry.event.value.serialization == 7

    def test_return_with_empty_stack_raises(self):
        b = TraceBuilder()
        with pytest.raises(RuntimeError):
            b.record_return(b.main_tid)

    def test_fork_captures_ancestry(self):
        b = TraceBuilder()
        tid = b.main_tid
        o = b.record_init(tid, "A", ())
        b.record_call(tid, o, "A.spawner", ())
        child = b.record_fork(tid)
        fork_entry = b.build().entries[-1]
        assert isinstance(fork_entry.event, Fork)
        assert fork_entry.event.child_tid == child
        # One ancestry level (spawned from main), capturing the call stack.
        assert len(fork_entry.event.ancestry) == 1
        assert fork_entry.event.ancestry[0][-1].method == "A.spawner"

    def test_nested_fork_ancestry_depth(self):
        b = TraceBuilder()
        child = b.record_fork(b.main_tid)
        grandchild = b.record_fork(child)
        fork_entries = [e for e in b.build().entries
                        if isinstance(e.event, Fork)]
        assert len(fork_entries[0].event.ancestry) == 1
        assert len(fork_entries[1].event.ancestry) == 2
        assert grandchild != child

    def test_end_event(self):
        b = TraceBuilder()
        b.record_end(b.main_tid)
        entry = b.build().entries[-1]
        assert isinstance(entry.event, End)
        assert entry.event.tid == b.main_tid

    def test_init_registers_creation_seq(self):
        b = TraceBuilder()
        tid = b.main_tid
        a1 = b.record_init(tid, "A", ())
        a2 = b.record_init(tid, "A", ())
        b1 = b.record_init(tid, "B", ())
        assert (a1.creation_seq, a2.creation_seq, b1.creation_seq) == (1, 2, 1)

    def test_register_thread_allocates_fresh_tid(self):
        b = TraceBuilder()
        tid = b.register_thread()
        assert tid != b.main_tid
        b.record_init(tid, "A", ())
        assert b.build().entries[0].tid == tid


class TestTrace:
    def test_len_iter_getitem(self):
        trace = simple_trace([1, 2, 3])
        assert len(trace) == 5  # init + 3 sets + end
        assert list(trace)[0] is trace[0]
        assert isinstance(trace.entries[0].event, Init)

    def test_slice_returns_trace(self):
        trace = simple_trace([1, 2, 3], name="t")
        sub = trace[1:3]
        assert isinstance(sub, Trace)
        assert len(sub) == 2
        assert sub.name == "t"

    def test_thread_ids_in_order(self):
        trace = two_thread_trace([1], [2])
        assert trace.thread_ids() == [0, 1]

    def test_event_kinds_histogram(self):
        trace = simple_trace([1, 2])
        kinds = trace.event_kinds()
        assert kinds["init"] == 1
        assert kinds["set"] == 2
        assert kinds["end"] == 1

    def test_methods(self):
        trace = simple_trace([1])
        assert TraceBuilder.ROOT_METHOD in trace.methods()

    def test_render_limit(self):
        trace = simple_trace(range(10))
        text = trace.render(limit=3)
        assert "more entries" in text


def _interned_trace(values, name=""):
    """A trace carrying a key column (built through a session table)."""
    from repro.core.keytable import KeyTable
    b = TraceBuilder(name=name, key_table=KeyTable())
    tid = b.main_tid
    obj = b.record_init(tid, "Cell", (), serialization="cell")
    for value in values:
        b.record_set(tid, obj, "v", prim(value))
    b.record_end(tid)
    return b.build()


class TestContentDigest:
    def test_equal_content_equal_digest(self):
        assert simple_trace([1, 2]).content_digest() == \
            simple_trace([1, 2]).content_digest()

    def test_name_and_metadata_are_provenance(self):
        # Content-addressed: renaming or annotating a trace does not
        # change what any engine would compute from it.
        a = simple_trace([1, 2], name="a")
        b = simple_trace([1, 2], name="b")
        b.metadata["origin"] = "elsewhere"
        assert a.content_digest() == b.content_digest()
        assert a.fingerprint() != b.fingerprint()  # name is in the fp

    def test_digest_tracks_values(self):
        assert simple_trace([1, 2]).content_digest() != \
            simple_trace([1, 3]).content_digest()

    def test_interned_and_uninterned_digest_identically(self):
        assert _interned_trace([1, 2]).content_digest() == \
            simple_trace([1, 2]).content_digest()

    def test_survives_serialisation(self, tmp_path):
        from repro.analysis.serialize import load_trace, save_trace
        trace = simple_trace([1, 2, 3], name="t")
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        assert load_trace(path).content_digest() == trace.content_digest()

    def test_fingerprint_collision_regression(self):
        """The PR-4 bugfix: equal (name, length, tids, kinds) but
        different methods/values collided under fingerprint() — the
        strong digest must tell such traces apart (this test fails for
        any digest built only from the fingerprint's fields)."""
        b1 = TraceBuilder(name="same")
        o1 = b1.record_init(b1.main_tid, "A", ())
        b1.record_call(b1.main_tid, o1, "A.first", ())
        b1.record_return(b1.main_tid, prim(1))
        b1.record_end(b1.main_tid)
        left = b1.build()

        b2 = TraceBuilder(name="same")
        o2 = b2.record_init(b2.main_tid, "A", ())
        b2.record_call(b2.main_tid, o2, "A.second", ())
        b2.record_return(b2.main_tid, prim(2))
        b2.record_end(b2.main_tid)
        right = b2.build()

        # Same shape: the cheap fingerprint cannot tell them apart ...
        assert left.fingerprint() == right.fingerprint()
        # ... which is exactly why it is provenance-only; the strong
        # digest (store metadata, cache keys, `store diff` hint) must.
        assert left.content_digest() != right.content_digest()

    def test_digest_cached_once(self):
        trace = simple_trace([1])
        first = trace.content_digest()
        assert trace.content_digest() is first  # cached string object


class TestSliceKeyColumn:
    def assert_synced(self, sliced):
        """key_ids[i] must be the interned id of entries[i].key()."""
        table = sliced.key_table
        assert len(sliced.key_ids) == len(sliced.entries)
        for entry, kid in zip(sliced.entries, sliced.key_ids):
            assert table.key_of(kid) == entry.key()

    def test_plain_slice_keeps_column_synced(self):
        trace = _interned_trace([1, 2, 3, 4, 5])
        self.assert_synced(trace[2:5])

    @pytest.mark.parametrize("index", [
        slice(None, None, 2), slice(1, 6, 2), slice(None, None, -1),
        slice(6, 1, -2), slice(None, None, 3)])
    def test_extended_slices_keep_column_synced(self, index):
        trace = _interned_trace([1, 2, 3, 4, 5])
        sliced = trace[index]
        assert [e.eid for e in sliced.entries] == \
            [e.eid for e in trace.entries[index]]
        self.assert_synced(sliced)

    def test_uninterned_slice_has_no_column(self):
        sliced = simple_trace([1, 2, 3])[::2]
        assert sliced.key_ids is None

    def test_desynchronised_column_is_rejected(self):
        built = _interned_trace([1, 2, 3])
        trace = Trace(list(built.entries), key_table=built.key_table,
                      key_ids=built.key_ids)
        trace.entries.append(trace.entries[-1])  # convention violation
        with pytest.raises(ValueError, match="mutated"):
            trace[::2]
        with pytest.raises(ValueError, match="mutated"):
            trace[1:2]
