"""Row capture: what a builder records, read back lazily or by column.

A :class:`~repro.core.traces.TraceBuilder` records one flat row per
event and builds entries only when something reads them.  These tests
pin that contract:

* random builder scripts materialise exactly the entries, content
  digest and key ids of an eager reference builder written here (the
  shape of the builder the rows replaced), and one fixed script keeps
  the digest it had then;
* the column hooks of captured and v3-loaded traces (eids, view keys,
  object/thread metadata) equal what ``KEY_MAPPINGS`` and the entry
  walk compute, on whole traces and slices, without building entries;
* a Table 1 ``run_scenario`` builds at most as many entries as its
  diffs report differences;
* readers of differing entries work by position on sliced traces
  (``impact_of``, ``render_diff_report``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.impact import ImpactReport, impact_of
from repro.analysis.report import render_diff_report
from repro.analysis.serialize import dumps_trace_bytes, loads_trace
from repro.api import Session
from repro.capture import TraceFilter, trace_call
from repro.core import traces as traces_module
from repro.core.entries import TraceEntry
from repro.core.events import (Call, End, FieldGet, FieldSet, Fork, Init,
                               Return, StackFrame)
from repro.core.keytable import KeyTable
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import ValueRep, prim
from repro.core.view_diff import view_diff
from repro.core.views import KEY_MAPPINGS, ViewType
from repro.core.web import ViewWeb, _gather_metadata, view_index
from repro.workloads.harness import SCENARIOS

TABLE1 = ("Daikon", "Xalan-1725", "Xalan-1802", "Derby-1633")


# -- an eager reference builder ------------------------------------------------

class EagerBuilder:
    """Builds every entry, event and stack frame as it records."""

    def __init__(self, key_table: KeyTable | None = None):
        self.entries: list[TraceEntry] = []
        self.stacks: dict[int, list[StackFrame]] = {0: []}
        self.ancestry: dict[int, tuple] = {0: ()}
        self.table = key_table
        self.key_ids: list[int] = []

    def _record(self, tid: int, event) -> None:
        stack = self.stacks[tid]
        method, active = (stack[-1].method, stack[-1].callee) if stack \
            else (TraceBuilder.ROOT_METHOD, None)
        self.entries.append(TraceEntry(len(self.entries), tid, method,
                                       active, event))
        if self.table is not None:
            self.key_ids.append(self.table.intern(event.key()))

    def thread(self, ancestry: tuple = ()) -> int:
        tid = len(self.stacks)
        self.stacks[tid] = []
        self.ancestry[tid] = ancestry
        return tid

    def lineage(self, tid: int) -> tuple:
        return self.ancestry[tid] + (tuple(self.stacks[tid]),)

    def init(self, tid, class_name, args, obj):
        self._record(tid, Init(class_name, args, obj))

    def get(self, tid, obj, name, value):
        self._record(tid, FieldGet(obj, name, value))

    def set(self, tid, obj, name, value):
        self._record(tid, FieldSet(obj, name, value))

    def call(self, tid, obj, method, args):
        self._record(tid, Call(obj, method, args))
        stack = self.stacks[tid]
        stack.append(StackFrame(method, stack[-1].callee if stack else None,
                                obj))

    def ret(self, tid, value):
        frame = self.stacks[tid].pop()
        self._record(tid, Return(frame.callee, frame.method, value))

    def fork(self, tid) -> int:
        child = self.thread(self.lineage(tid))
        self._record(tid, Fork(child, self.ancestry[child]))
        return child

    def end(self, tid):
        self._record(tid, End(tid, self.lineage(tid)))


OPS = ("init", "call", "return", "get", "set", "fork", "end", "switch",
       "register", "snapshot")


def run_script(script, key_table=None, reference_table=None):
    """Drive a real builder and the reference through one script.
    Returns (built trace, reference, mid-script snapshots)."""
    real = TraceBuilder(name="script", key_table=key_table)
    ref = EagerBuilder(reference_table)
    threads = [real.main_tid]
    objects: list[ValueRep] = []
    snapshots = []
    tid = real.main_tid
    for op, a, b in script:
        if op == "init":
            class_name = ("Box", "Cell", "Node")[a % 3]
            args = (prim(b),) if b % 2 else ()
            rep = real.record_init(tid, class_name, args,
                                   serialization=None if b % 3 == 0
                                   else f"{class_name}{b}")
            ref.init(tid, class_name, args, rep)
            objects.append(rep)
        elif op == "call" and objects:
            obj = objects[a % len(objects)]
            method = f"{obj.class_name}.m{b % 3}"
            args = (prim(b), objects[b % len(objects)])[:a % 3]
            real.record_call(tid, obj, method, args)
            ref.call(tid, obj, method, args)
        elif op == "return" and real.stack_depth(tid):
            value = prim(b) if a % 2 else objects[b % len(objects)]
            real.record_return(tid, value)
            ref.ret(tid, value)
        elif op in ("get", "set") and objects:
            obj = objects[a % len(objects)]
            value = prim(b) if b % 2 else objects[b % len(objects)]
            getattr(real, f"record_{op}")(tid, obj, f"f{b % 2}", value)
            getattr(ref, op)(tid, obj, f"f{b % 2}", value)
        elif op == "fork":
            child = real.record_fork(tid)
            assert ref.fork(tid) == child
            threads.append(child)
        elif op == "end":
            real.record_end(tid)
            ref.end(tid)
        elif op == "switch":
            tid = threads[a % len(threads)]
        elif op == "register":
            extra = real.register_thread()
            assert ref.thread() == extra
            threads.append(extra)
        elif op == "snapshot":
            snapshots.append(real.build())
    return real.build(), ref, snapshots


script_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 9), st.integers(0, 9)),
    max_size=60)


class TestBuilderRows:
    @settings(max_examples=150, deadline=None)
    @given(script=script_strategy, interned=st.booleans(),
           reverse=st.booleans())
    def test_rows_materialise_the_eager_entries(self, script, interned,
                                                reverse):
        trace, ref, snapshots = run_script(
            script, KeyTable() if interned else None,
            KeyTable() if interned else None)
        # Decode order must not matter: read back to front or front to
        # back, then compare the whole sequence.
        order = range(len(trace) - 1, -1, -1) if reverse \
            else range(len(trace))
        assert [trace.entries[i] for i in order] == \
            [ref.entries[i] for i in order]
        assert list(trace.entries) == ref.entries
        assert trace.content_digest() == Trace(ref.entries).content_digest()
        if interned:
            assert list(trace.key_ids) == ref.key_ids
        else:
            assert trace.key_ids is None
        # A built trace never sees later recording.
        for snapshot in snapshots:
            assert list(snapshot.entries) == ref.entries[:len(snapshot)]

    @settings(max_examples=60, deadline=None)
    @given(script=script_strategy, start=st.integers(0, 30),
           step=st.sampled_from([1, 2, -1, -3]))
    def test_column_hooks_equal_the_entry_walk(self, script, start, step):
        trace, _ref, _ = run_script(script)
        for sub in (trace, trace[start::step]):
            assert_hooks_match(sub)

    def test_fixed_script_digest_is_pinned(self):
        """The digest this script had when the builder still built an
        entry, an event and a stack frame per event."""
        trace = fixed_script(KeyTable())
        assert trace.content_digest() == "20ebab51401978f933c1ffb3c49b5cf9"
        assert list(trace.key_ids) == list(range(18)) + [17]
        assert fixed_script().content_digest() == trace.content_digest()

    def test_rule_methods_return_eids(self):
        b = TraceBuilder()
        main = b.main_tid
        obj = b.record_init(main, "A", ())
        assert b.record_call(main, obj, "A.m", ()) == 1
        assert b.record_set(main, obj, "f", prim(1)) == 2
        assert b.record_return(main) == 3
        assert b.record_end(main) == 4
        assert b.top(main) is None


def fixed_script(key_table=None) -> Trace:
    b = TraceBuilder(name="fixed", key_table=key_table)
    main = b.main_tid
    box = b.record_init(main, "Box", (prim(1),), serialization="box")
    cell = b.record_init(main, "Cell", (), serialization=None)
    b.record_call(main, box, "Box.run", (prim("go"), cell))
    b.record_set(main, cell, "v", prim(3))
    b.record_call(main, cell, "Cell.bump", (prim(2),))
    child = b.record_fork(main)
    b.record_get(child, cell, "v", prim(3))
    b.record_call(child, box, "Box.work", ())
    grandchild = b.record_fork(child)
    b.record_set(grandchild, box, "owner", cell)
    b.record_end(grandchild)
    b.record_return(child, prim(None))
    b.record_end(child)
    b.record_return(main, prim(5))
    b.record_get(main, box, "owner", cell)
    b.record_return(main)
    outsider = b.register_thread()
    b.record_init(outsider, "Box", (prim(2),), serialization="box2")
    b.record_end(outsider)
    b.record_end(main)
    return b.build()


# -- column hooks --------------------------------------------------------------

def assert_hooks_match(trace: Trace) -> None:
    """The lazy sequence's columns, read before any entry is built,
    equal the entry walk over a list-backed copy."""
    entries = trace.entries
    built_before = entries.materialised()
    columns = {vtype: list(entries.view_keys(vtype)) for vtype in ViewType}
    eids = list(trace.eid_column())
    tids = trace.thread_ids()
    metadata = _gather_metadata(trace)
    assert entries.materialised() == built_before
    walked = Trace(list(entries))
    for vtype in ViewType:
        assert columns[vtype] == list(map(KEY_MAPPINGS[vtype],
                                          walked.entries)), vtype
    assert eids == [entry.eid for entry in walked.entries]
    assert tids == walked.thread_ids()
    assert metadata == _gather_metadata(walked)


@pytest.fixture(scope="module")
def captured():
    """One captured role per Table 1 case study, through one key table
    (Derby on the reduced database of the end-to-end benchmark)."""
    out = {}
    for name in TABLE1:
        spec = SCENARIOS[name]
        payload = spec.regressing_input
        if name == "Derby-1633":
            payload = derby_input(spec.regressing_input)
        out[name] = trace_call(
            spec.run_old, payload, name=name, key_table=KeyTable(),
            filter=TraceFilter(include_modules=spec.filter_modules)).trace
    return out


def derby_input(regressing):
    from repro.workloads.minidb.scenario import ORDER_ROWS, SETUP_STATEMENTS
    customers = 2 + ORDER_ROWS
    setup = SETUP_STATEMENTS[:2 + 24] \
        + SETUP_STATEMENTS[customers:customers + 8]
    return (setup, regressing[1])


class TestColumnHooks:
    @pytest.mark.parametrize("name", TABLE1)
    def test_captured_columns(self, captured, name):
        trace = Trace(captured[name].entries[:])  # fresh memo, same rows
        assert trace.entries.materialised() == 0
        assert trace.eid_column() == range(len(trace))
        assert_hooks_match(trace)

    @pytest.mark.parametrize("name", TABLE1)
    def test_v3_loaded_columns(self, captured, name):
        loaded = loads_trace(dumps_trace_bytes(captured[name]))
        assert loaded.entries.materialised() == 0
        assert_hooks_match(loaded)
        assert list(loaded.entries) == list(captured[name].entries)

    @pytest.mark.parametrize("name", ("Xalan-1725", "Derby-1633"))
    def test_sliced_columns(self, captured, name):
        trace = captured[name]
        loaded = loads_trace(dumps_trace_bytes(trace))
        for source in (trace, loaded):
            assert_hooks_match(source[700:2100])
            assert_hooks_match(source[::7])
        assert trace[700:2100].eid_column() == range(700, 2100)

    def test_loaded_index_builds_no_entry(self, captured):
        loaded = loads_trace(dumps_trace_bytes(captured["Daikon"]))
        web = ViewWeb(loaded)
        for vtype in ViewType:
            web.columns(vtype)
        assert web.objects and web.threads
        assert view_index(loaded).built_types() == frozenset(ViewType)
        assert loaded.entries.materialised() == 0


# -- laziness ------------------------------------------------------------------

class TestLaziness:
    @pytest.mark.parametrize("name", TABLE1)
    def test_run_scenario_builds_only_differing_entries(self, name,
                                                        monkeypatch):
        built = []
        original = traces_module._Rows.entry

        def counting_entry(self, position):
            built.append(position)
            return original(self, position)

        monkeypatch.setattr(traces_module._Rows, "entry", counting_entry)
        spec = SCENARIOS[name]
        session = Session().with_filter(
            include_modules=spec.filter_modules).with_mode(spec.mode)
        result = session.run_scenario(spec.run_old, spec.run_new,
                                      spec.regressing_input,
                                      spec.correct_input, name=name)
        assert built, "the analysis reads the differing entries"
        assert len(built) <= sum(d.num_diffs() for d in result.diffs())

    def test_stored_diff_builds_only_differing_entries(self, captured):
        spec = SCENARIOS["Xalan-1725"]
        table = KeyTable()
        new = trace_call(spec.run_new, spec.regressing_input,
                         key_table=table, filter=TraceFilter(
                             include_modules=spec.filter_modules)).trace
        left = loads_trace(dumps_trace_bytes(captured["Xalan-1725"]))
        right = loads_trace(dumps_trace_bytes(new))
        result = view_diff(left, right)
        built = left.entries.materialised() + right.entries.materialised()
        assert 0 < built <= result.num_diffs()


# -- readers of differing entries on slices -----------------------------------

@pytest.fixture(scope="module")
def xalan_slices():
    """Xalan-1725 old/new on the regressing input, from entry 3000 on."""
    spec = SCENARIOS["Xalan-1725"]
    table = KeyTable()
    trace_filter = TraceFilter(include_modules=spec.filter_modules)
    old, new = (trace_call(runner, spec.regressing_input, key_table=table,
                           filter=trace_filter).trace
                for runner in (spec.run_old, spec.run_new))
    return old[3000:], new[3000:]


def reference_impact(result) -> ImpactReport:
    """``impact_of`` written against an eid -> entry map of each side."""
    report = ImpactReport()
    for trace, eids in ((result.left, result.left_diff_eids()),
                        (result.right, result.right_diff_eids())):
        by_eid = {entry.eid: entry for entry in trace.entries}
        web = ViewWeb(trace)
        for eid in eids:
            entry = by_eid[eid]
            report.total_differences += 1
            report.methods[entry.method] = \
                report.methods.get(entry.method, 0) + 1
            report.threads[entry.tid] = report.threads.get(entry.tid, 0) + 1
            target = entry.event.target()
            if target is not None:
                info = web.object_info(target)
                name = info.class_name if info else target.class_name
                report.classes[name] = report.classes.get(name, 0) + 1
    return report


class TestSlicedReaders:
    def test_impact_of_a_slice(self, xalan_slices):
        result = view_diff(*xalan_slices)
        report = impact_of(result)
        assert report.total_differences == result.num_diffs() > 0
        assert report == reference_impact(result)

    def test_diff_report_keeps_context_on_a_slice(self, xalan_slices):
        left, right = xalan_slices
        result = view_diff(left, right)
        dense = view_diff(*(Trace([entry.__class__(pos, entry.tid,
                                                   entry.method,
                                                   entry.active,
                                                   entry.event)
                                   for pos, entry in enumerate(side)])
                            for side in (left, right)))
        text = render_diff_report(result)
        assert text == render_diff_report(dense)
        context = [line for line in text.splitlines()
                   if line.startswith("  ")]
        assert context
