"""The cyclic collector pause around capture and the views diff, and
captures that leave no cyclic garbage behind."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.api import Session
from repro.capture import TraceFilter, Tracer, current_tracer, trace_call
from repro.core.collector import collector_paused
from repro.core.view_diff import view_diff
from repro.workloads.harness import SCENARIOS, run_scenario

MODULE_FILTER = TraceFilter(include_modules=(__name__,))


@pytest.fixture
def collector_off():
    """Run the test with the collector disabled, so that only reference
    counting frees anything; restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_state(request):
    """The collector as a caller left it: enabled or disabled."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


class TestPause:
    def test_nested_holds(self, collector_state):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector_state

    def test_exception_inside_a_hold(self, collector_state):
        with pytest.raises(ValueError):
            with collector_paused():
                raise ValueError("inside")
        assert gc.isenabled() is collector_state

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            with collector_paused():
                gc.collect()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_holds_on_two_threads(self):
        """The collector stays off until the last holder leaves, whichever
        thread entered first."""
        assert gc.isenabled()
        first_in = threading.Event()
        second_in = threading.Event()
        first_out = threading.Event()
        seen = {}

        def first():
            with collector_paused():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with collector_paused():
                second_in.set()
                first_out.wait(10)
                seen["after_first_left"] = gc.isenabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert first_out.is_set()
        assert seen == {"after_first_left": False}
        assert gc.isenabled()


def _report_collector(flags):
    flags.append(gc.isenabled())
    return len(flags)


def _raise_after_report(flags):
    flags.append(gc.isenabled())
    raise ValueError("captured failure")


class TestPhasesRestoreTheCollector:
    @pytest.mark.parametrize("func", [_report_collector,
                                      _raise_after_report])
    def test_trace_call(self, collector_state, func):
        flags = []
        capture = trace_call(func, flags, filter=MODULE_FILTER)
        assert flags == [False]
        assert capture.ok is (func is _report_collector)
        assert gc.isenabled() is collector_state

    @pytest.mark.parametrize("func", [_report_collector,
                                      _raise_after_report])
    def test_session_capture(self, collector_state, func):
        flags = []
        session = Session().with_filter(include_modules=(__name__,))
        capture = session.capture(func, flags, name="run")
        assert flags == [False]
        assert capture.ok is (func is _report_collector)
        assert gc.isenabled() is collector_state

    def test_view_diff(self, collector_state):
        left = trace_call(_report_collector, [], filter=MODULE_FILTER).trace
        right = trace_call(_raise_after_report, [],
                           filter=MODULE_FILTER).trace
        assert view_diff(left, right).num_diffs() > 0
        assert gc.isenabled() is collector_state

    def test_rejected_tracer_leaves_the_collector_alone(self,
                                                        collector_state):
        with Tracer(filter=MODULE_FILTER):
            with pytest.raises(RuntimeError, match="already active"):
                with Tracer(filter=MODULE_FILTER):
                    pass
        assert gc.isenabled() is collector_state


class _Holder:
    """A program object that keeps what its worker thread raised."""

    error = None


def _fail():
    raise ValueError("worker failed")


def _capture_tracer(program, refs):
    """Capture ``program`` and weak-reference the tracer that ran it."""
    def run():
        refs.append(weakref.ref(current_tracer()))
        return program()
    return trace_call(run, filter=MODULE_FILTER)


class TestNoCyclicGarbage:
    """Dropping a finished capture frees its tracer by reference counting
    alone, whatever the captured program kept."""

    def assert_tracer_freed(self, program):
        refs = []
        capture = _capture_tracer(program, refs)
        assert len(capture.trace) > 0
        del capture
        assert refs[0]() is None

    def test_function_that_raises(self, collector_off):
        self.assert_tracer_freed(_fail)

    def test_thread_started_and_joined(self, collector_off):
        def program():
            thread = threading.Thread(target=_report_collector, args=([],))
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            return thread

        self.assert_tracer_freed(program)

    def test_thread_keeps_its_exception(self, collector_off):
        """The kept traceback holds the thread's woven frames; it may keep
        the program's own cycle alive, but not the tracer."""
        def program():
            holder = _Holder()

            def worker():
                try:
                    _fail()
                except ValueError as exc:
                    holder.error = exc

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            return holder

        self.assert_tracer_freed(program)

    @pytest.mark.slow
    def test_dropped_scenario_leaves_no_cycles(self, collector_off):
        gc.collect()  # what the test harness made since the fixture
        result = run_scenario(SCENARIOS["Xalan-1725"])
        assert result.views.num_diffs > 0
        del result
        assert gc.collect() == 0
