"""Tests for the sys.settrace capture layer."""

import threading

import pytest

from repro.capture import TraceFilter, Tracer, trace_call, traced
from repro.capture.values import LiveRegistry, has_custom_repr, live_value_rep
from repro.core.events import (Call, End, FieldGet, FieldSet, Fork, Init,
                               Return)

MODULE_FILTER = TraceFilter(include_modules=(__name__,))


@traced
class Account:
    """Test subject with custom repr (meaningful value representation)."""

    def __init__(self, owner, balance):
        self.owner = owner
        self.balance = balance

    def deposit(self, amount):
        self.balance = self.balance + amount
        return self.balance

    def __repr__(self):
        return f"Account({self.owner})"


class Opaque:
    """No custom repr: representation must be empty (paper's rule for
    default Object.toString)."""

    def __init__(self):
        self.x = 1


class TestLiveValues:
    def test_primitives(self):
        registry = LiveRegistry()
        assert live_value_rep(5, registry).class_name == "Int"
        assert live_value_rep("s", registry).class_name == "Str"
        assert live_value_rep(None, registry).class_name == "Unit"

    def test_containers_are_value_like(self):
        registry = LiveRegistry()
        rep = live_value_rep([1, 2], registry)
        assert rep.class_name == "list"
        assert rep.location is None
        assert "1, 2" in rep.serialization

    def test_custom_repr_detected(self):
        assert has_custom_repr(Account("a", 0))
        assert not has_custom_repr(Opaque())

    def test_opaque_objects_have_empty_serialization(self):
        registry = LiveRegistry()
        rep = live_value_rep(Opaque(), registry)
        assert rep.serialization is None
        assert rep.location is not None

    def test_same_object_same_location(self):
        registry = LiveRegistry()
        account = Account("a", 0)
        rep1 = live_value_rep(account, registry)
        rep2 = live_value_rep(account, registry)
        assert rep1.location == rep2.location

    def test_creation_seq_per_class(self):
        registry = LiveRegistry()
        rep1 = live_value_rep(Opaque(), registry)
        rep2 = live_value_rep(Opaque(), registry)
        assert (rep1.creation_seq, rep2.creation_seq) == (1, 2)


class TestTracer:
    def run_scenario(self):
        account = Account("kim", 100)
        account.deposit(50)
        return account.balance

    def test_calls_and_returns_recorded(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER)
        assert capture.ok
        trace = capture.trace
        methods = [e.event.method for e in trace
                   if isinstance(e.event, Call)]
        assert "Account.deposit" in methods
        rets = [e for e in trace if isinstance(e.event, Return)
                and e.event.method == "Account.deposit"]
        assert rets[0].event.value.serialization == 150

    def test_init_event_recorded(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER)
        inits = [e for e in capture.trace if isinstance(e.event, Init)]
        assert any(i.event.class_name == "Account" for i in inits)

    def test_field_events_recorded(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER)
        sets = [e for e in capture.trace if isinstance(e.event, FieldSet)]
        fields = {s.event.field for s in sets}
        assert {"owner", "balance"} <= fields
        gets = [e for e in capture.trace if isinstance(e.event, FieldGet)]
        assert any(g.event.field == "balance" for g in gets)

    def test_field_recording_disabled(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER,
                             record_fields=False)
        kinds = capture.trace.event_kinds()
        assert "set" not in kinds

    def test_method_context_tracked(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER)
        sets = [e for e in capture.trace if isinstance(e.event, FieldSet)
                and e.event.field == "balance"
                and e.method == "Account.deposit"]
        assert sets

    def test_exception_captured_not_raised(self):
        def boom():
            account = Account("x", 1)
            raise ValueError("kaboom")

        capture = trace_call(boom, filter=MODULE_FILTER)
        assert not capture.ok
        assert isinstance(capture.error, ValueError)
        # The trace is still complete and balanced.
        assert len(capture.trace) > 0

    def test_filter_excludes_module(self):
        capture = trace_call(self.run_scenario,
                             filter=TraceFilter(include_modules=("nowhere",)))
        calls = [e for e in capture.trace if isinstance(e.event, Call)]
        assert calls == []

    def test_exclude_methods(self):
        deny = TraceFilter(include_modules=(__name__,),
                           exclude_methods=("Account.deposit",))
        capture = trace_call(self.run_scenario, filter=deny)
        methods = [e.event.method for e in capture.trace
                   if isinstance(e.event, Call)]
        assert "Account.deposit" not in methods

    def test_nested_tracer_rejected(self):
        with Tracer(filter=MODULE_FILTER):
            with pytest.raises(RuntimeError):
                with Tracer(filter=MODULE_FILTER):
                    pass

    def test_trace_before_exit_rejected(self):
        tracer = Tracer(filter=MODULE_FILTER)
        with tracer:
            with pytest.raises(RuntimeError):
                tracer.trace()

    def test_main_thread_end_recorded(self):
        capture = trace_call(self.run_scenario, filter=MODULE_FILTER)
        ends = [e for e in capture.trace if isinstance(e.event, End)]
        assert ends


class TestThreadCapture:
    def test_fork_and_thread_views(self):
        def scenario():
            results = []

            def worker():
                account = Account("w", 1)
                account.deposit(2)
                results.append(account.balance)

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            return results

        capture = trace_call(scenario, filter=MODULE_FILTER)
        trace = capture.trace
        forks = [e for e in trace if isinstance(e.event, Fork)]
        assert len(forks) == 1
        assert len(set(trace.thread_ids())) == 2
        # Worker events landed on the forked tid.
        child_tid = forks[0].event.child_tid
        child_calls = [e for e in trace if e.tid == child_tid
                       and isinstance(e.event, Call)]
        assert any(e.event.method == "Account.deposit"
                   for e in child_calls)

    def test_child_end_recorded(self):
        def scenario():
            thread = threading.Thread(target=lambda: None)
            thread.start()
            thread.join()

        capture = trace_call(scenario, filter=MODULE_FILTER)
        ends = [e for e in capture.trace if isinstance(e.event, End)]
        assert len(ends) == 2  # child + main

    def test_thread_started_by_a_bystander_stays_out(self):
        """A thread outside the capture that starts a thread while the
        capture runs adds no fork, no thread and no entries to it."""
        started = threading.Event()
        release = threading.Event()

        def bystander():
            started.wait(10)
            stray = threading.Thread(target=Account("stray", 0).deposit,
                                     args=(1,))
            stray.start()
            stray.join()
            release.set()

        def scenario():
            started.set()
            release.wait(10)
            return "done"

        outsider = threading.Thread(target=bystander)
        outsider.start()
        try:
            trace = trace_call(scenario, filter=MODULE_FILTER).trace
        finally:
            outsider.join(10)
        assert not outsider.is_alive()
        assert release.is_set()
        assert not [e for e in trace if isinstance(e.event, Fork)]
        assert len(set(trace.thread_ids())) == 1
        assert [type(e.event) for e in trace] == [Call, Return, End]


class TestCaptureLock:
    def test_capture_lock_is_reentrant(self):
        from repro.capture import CAPTURE_LOCK
        with CAPTURE_LOCK:
            acquired = CAPTURE_LOCK.acquire(timeout=0.1)
            assert acquired
            CAPTURE_LOCK.release()
