"""Tests for trace events and entries (=e keys, eof sentinel)."""

import dataclasses
import pickle

import pytest

from repro.core.entries import EOF, TraceEntry, entries_equal
from repro.core.events import (Call, End, FieldGet, FieldSet, Fork, Init,
                               Return, StackFrame)
from repro.core.values import ValueRep, prim


def obj(class_name="C", location=1, seq=1, serialization=None):
    return ValueRep(class_name=class_name, serialization=serialization,
                    location=location, creation_seq=seq)


def entry(event, eid=0, tid=0, method="m", active=None):
    return TraceEntry(eid=eid, tid=tid, method=method, active=active,
                      event=event)


class TestEventKeys:
    def test_get_and_set_keys_differ(self):
        g = FieldGet(obj=obj(), field="f", value=prim(1))
        s = FieldSet(obj=obj(), field="f", value=prim(1))
        assert g.key() != s.key()

    def test_location_free_equality(self):
        a = Call(obj=obj(location=1), method="m", args=(prim(1),))
        b = Call(obj=obj(location=500), method="m", args=(prim(1),))
        assert a.key() == b.key()

    def test_args_participate(self):
        a = Call(obj=obj(), method="m", args=(prim(1),))
        b = Call(obj=obj(), method="m", args=(prim(2),))
        assert a.key() != b.key()

    def test_return_value_participates(self):
        a = Return(obj=obj(), method="m", value=prim(True))
        b = Return(obj=obj(), method="m", value=prim(False))
        assert a.key() != b.key()

    def test_init_key_contains_class_and_args(self):
        a = Init(class_name="C", args=(prim(32),), obj=obj())
        b = Init(class_name="C", args=(prim(1),), obj=obj())
        assert a.key() != b.key()

    def test_serialization_participates_via_obj(self):
        a = FieldSet(obj=obj(serialization="x"), field="f", value=prim(1))
        b = FieldSet(obj=obj(serialization="y"), field="f", value=prim(1))
        assert a.key() != b.key()

    def test_fork_key_over_ancestry(self):
        frame = StackFrame(method="m", caller=None, callee=obj())
        a = Fork(child_tid=1, ancestry=((frame,),))
        b = Fork(child_tid=9, ancestry=((frame,),))
        assert a.key() == b.key()  # child tid is per-trace, excluded
        c = Fork(child_tid=1, ancestry=((),))
        assert a.key() != c.key()

    def test_end_vs_fork(self):
        a = Fork(child_tid=1, ancestry=())
        b = End(tid=1, ancestry=())
        assert a.key() != b.key()

    def test_targets(self):
        o = obj()
        assert FieldGet(obj=o, field="f", value=prim(1)).target() is o
        assert Call(obj=o, method="m", args=()).target() is o
        assert Init(class_name="C", args=(), obj=o).target() is o
        assert Fork(child_tid=1, ancestry=()).target() is None


class TestEntries:
    def test_key_delegates_to_event(self):
        e = Call(obj=obj(), method="m", args=())
        t1 = entry(e, eid=0, tid=0, method="a")
        t2 = entry(e, eid=99, tid=3, method="b")
        assert entries_equal(t1, t2)

    def test_eof_is_special(self):
        assert EOF.is_eof
        assert EOF.key() == ("eof",)
        regular = entry(Call(obj=obj(), method="m", args=()))
        assert not regular.is_eof
        assert not entries_equal(EOF, regular)

    def test_brief_is_printable(self):
        e = entry(FieldSet(obj=obj(), field="f", value=prim(3)))
        assert "set" in e.brief()
        assert "f" in e.brief()


class TestConstruction:
    """The records build through ``slot_init``: the dataclass contract
    (signature, defaults, frozenness, equality, hashing, pickling)
    holds unchanged."""

    def test_positional_and_keyword_agree(self):
        event = FieldGet(obj(), "f", prim(1))
        assert event == FieldGet(obj=obj(), field="f", value=prim(1))
        assert hash(event) == hash(FieldGet(obj(), "f", prim(1)))
        assert entry(event) == TraceEntry(0, 0, "m", None, event)
        assert StackFrame("m", None, obj()) == StackFrame(
            method="m", caller=None, callee=obj())

    def test_defaults_and_signature_errors(self):
        rep = ValueRep("C")
        assert (rep.serialization, rep.location, rep.creation_seq) \
            == (None, None, None)
        assert ValueRep("C", location=3).location == 3
        with pytest.raises(TypeError):
            FieldGet(obj(), "f")
        with pytest.raises(TypeError):
            ValueRep("C", nope=1)

    def test_frozen(self):
        event = Call(obj(), "m", ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.method = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry(event).eid = 5

    def test_replace_and_pickle(self):
        original = entry(Return(obj(), "m", prim("x")), eid=7)
        assert dataclasses.replace(original, eid=8).eid == 8
        assert pickle.loads(pickle.dumps(original)) == original
        assert repr(pickle.loads(pickle.dumps(original))) == repr(original)
