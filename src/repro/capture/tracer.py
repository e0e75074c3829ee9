"""``sys.settrace``-based trace capture (the load-time weaver analogue).

A :class:`Tracer` is a context manager; code executed inside it has its
method calls and returns recorded into a :class:`TraceBuilder`, subject to
the pointcut filter.  Classes decorated with
:func:`repro.capture.objects.traced` additionally record object creation
and field reads/writes.  Threads that a captured thread starts are woven
too, and their fork events capture the full spawn ancestry just like the
formal FORK-E rule; threads started by anyone else stay out of the
trace.

Usage::

    with Tracer(name="old") as tracer:
        run_the_program()
    trace = tracer.trace()

or the one-shot helper :func:`trace_call`.
"""

from __future__ import annotations

import sys
import threading
from typing import NamedTuple

from repro.capture.filters import TraceFilter
from repro.capture.objects import GETATTR_HOOK, SETATTR_HOOK
from repro.capture.values import LiveRegistry, live_value_rep
from repro.core.collector import collector_paused
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import UNIT, ValueRep

#: The installed tracer, if any.
_ACTIVE: "Tracer | None" = None
_ACTIVE_LOCK = threading.Lock()

#: Serialises captures process-wide: there is one ``sys.settrace``
#: weaver per interpreter, so concurrent callers (the service's
#: workers) take turns capturing while their diffs and analyses
#: overlap.  Re-entrant, so a nested
#: capture attempt still reaches the "already active" diagnostic.
CAPTURE_LOCK = threading.RLock()

#: ``f_locals`` lookup default: a parameter not yet bound.
_UNBOUND = object()
#: Plans of the two ``@traced`` wrapper code objects.
_SET_HOOK = "set-hook"
_GET_HOOK = "get-hook"


def current_tracer() -> "Tracer | None":
    """The currently installed tracer, or None."""
    return _ACTIVE


class _CodePlan(NamedTuple):
    """What recording a call of one woven code object needs, worked out
    on its first call."""

    name: str
    #: Positional parameters other than ``self``, in order.
    arg_names: tuple[str, ...]
    is_init: bool
    #: Receiver type -> qualified method name, or "" when
    #: ``exclude_methods`` drops it (filled lazily).
    receivers: dict
    #: Qualified name of receiver-less calls ("" when excluded), and
    #: the module representation that is their active object.
    module_method: str
    module_rep: ValueRep


class Tracer:
    """Records an execution trace of the code run within the context.

    ``key_table`` interns every recorded entry's ``=e`` key at capture
    time (the ingest half of the interned data layer): the builder
    interns into a dict of its own while recording and merges it into
    ``key_table`` when the trace is built, so the finished trace
    carries its id column and diffing it never rebuilds a key.

    Cost model: ``sys.settrace`` calls :meth:`_trace` for every Python
    frame, and Python code that runs outside a trace callback runs
    slowly and fires callbacks of its own.  So every event is recorded
    from inside a callback — calls and returns from the woven frames',
    field events from those of the ``@traced`` wrappers — where CPython
    runs the recording untraced.  :meth:`_trace` decides once per code
    object and once per qualified method name;
    ``str``/``int`` representations are memoised, objects already seen
    come from the registry's identity map, and each ``=e`` key is built
    from the representations in hand.  All of it dies with the tracer.

    The ``with`` block holds :func:`~repro.core.collector.collector_paused`
    (an ``__enter__`` that raises takes no hold): the rows are acyclic,
    so the cyclic collector's passes would find nothing, and the
    captured program's own cyclic garbage waits until the block ends.
    Nothing the capture leaves behind refers back to the tracer through
    a cycle: woven frames clear their ``f_trace`` on return, and a
    woven thread drops its ``run`` wrapper and the tracer when it ends.
    """

    def __init__(self, name: str = "", filter: TraceFilter | None = None,
                 record_fields: bool = True, key_table=None):
        self.builder = TraceBuilder(name=name, key_table=key_table)
        self.registry = LiveRegistry()
        self.filter = filter if filter is not None else TraceFilter()
        self.record_fields = record_fields
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}  # threading ident -> builder tid
        #: id(code object) -> _CodePlan, a wrapper hook, or False.  Keyed
        #: by identity because code objects compare equal by content
        #: across modules; ``_codes`` pins them so no id is reused.
        self._plans: dict[int, object] = (
            {id(SETATTR_HOOK): _SET_HOOK, id(GETATTR_HOOK): _GET_HOOK}
            if record_fields else {})
        self._codes: list = []
        self._methods: dict[str, bool] = {}  # qualified name -> admitted
        self._value_reps: dict[str | int, ValueRep] = {}
        self._finished: Trace | None = None
        self._previous_trace = None
        self._original_thread_start = None

    # -- context management --------------------------------------------------

    def __enter__(self) -> "Tracer":
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError("another Tracer is already active")
            _ACTIVE = self
        collector_paused().__enter__()
        self._tids[threading.get_ident()] = self.builder.main_tid
        self._previous_trace = sys.gettrace()
        self._original_thread_start = threading.Thread.start
        threading.Thread.start = self._make_start_wrapper()
        sys.settrace(self._trace)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        sys.settrace(self._previous_trace)
        threading.Thread.start = self._original_thread_start
        with _ACTIVE_LOCK:
            _ACTIVE = None
        # Close any frames left open (e.g. after an exception) and end the
        # main thread.
        try:
            with self._lock:
                main_tid = self.builder.main_tid
                while self.builder.stack_depth(main_tid) > 0:
                    self.builder.record_return(main_tid, UNIT)
                self.builder.record_end(main_tid)
                self._finished = self.builder.build(
                    metadata={"capture": "settrace"})
        finally:
            collector_paused().__exit__(None, None, None)

    def trace(self) -> Trace:
        """The captured trace (available after the context exits)."""
        if self._finished is None:
            raise RuntimeError("trace() is available after the context ends")
        return self._finished

    # -- value representations -------------------------------------------------

    def rep(self, value: object) -> ValueRep:
        """``live_value_rep`` through the tracer's memos: exact ``str``
        and ``int`` values by value (never equal to each other, and
        ``bool``/``float`` never enter), everything else by identity."""
        cls = type(value)
        if cls is str or cls is int:
            rep = self._value_reps.get(value)
            if rep is None:
                rep = self._value_reps[value] = live_value_rep(
                    value, self.registry)
            return rep
        rep = self.registry.known.get(id(value))
        if rep is None:
            rep = live_value_rep(value, self.registry)
        return rep

    # -- thread management -------------------------------------------------------

    def _tid(self) -> int:
        # Only the capturing thread and the threads it (transitively)
        # starts run the trace function, and each is registered first.
        return self._tids[threading.get_ident()]

    def _make_start_wrapper(self):
        """``Thread.start`` while this tracer is active.  The patch is
        process-wide, so it records a fork (and weaves the new thread)
        only when the starting thread belongs to the capture; any other
        thread's start passes straight through."""
        tracer = self
        original_start = self._original_thread_start

        def start(thread: threading.Thread) -> None:
            parent_tid = tracer._tids.get(threading.get_ident())
            if parent_tid is None:
                original_start(thread)
                return
            with tracer._lock:
                child_tid = tracer.builder.record_fork(parent_tid)
            thread.run = _woven_run(tracer, thread, child_tid)
            original_start(thread)

        return start

    # -- filter decisions -----------------------------------------------------

    def _plan(self, frame):
        """Decide whether calls of ``frame``'s code are woven, caching
        the answer per code object.  Code is assumed to run under one
        module's globals, which holds for everything ``def`` creates."""
        code = frame.f_code
        module = frame.f_globals.get("__name__")
        plan = False
        # Lambdas, comprehensions and module bodies start with "<".
        if self.filter.admits_module(module) \
                and not code.co_name.startswith("<"):
            plan = _CodePlan(
                name=code.co_name,
                arg_names=tuple(name for name in
                                code.co_varnames[:code.co_argcount]
                                if name != "self"),
                is_init=code.co_name == "__init__",
                receivers={},
                module_method=self._admitted(
                    f"{module.rsplit('.', 1)[-1]}.{code.co_name}"),
                module_rep=ValueRep(class_name="<module>",
                                    serialization=module))
        self._plans[id(code)] = plan
        self._codes.append(code)
        return plan

    def _admitted(self, qualified: str) -> str:
        """``qualified`` if the filter admits that method, else ""."""
        admitted = self._methods.get(qualified)
        if admitted is None:
            admitted = self._methods[qualified] = \
                self.filter.admits_method(qualified)
        return qualified if admitted else ""

    # -- the sys.settrace callbacks -------------------------------------------

    def _trace(self, frame, event, arg):
        """Global trace function, called for every new Python frame:
        code never woven costs one dict lookup.  Records the call (and
        for a constructor the init) entry of a woven frame and a set
        entry for a ``__setattr__`` wrapper; a ``__getattribute__``
        wrapper gets :meth:`_get_return` to record its get."""
        plan = self._plans.get(id(frame.f_code))
        if not plan:
            if plan is False:
                return None
            plan = self._plan(frame)
            if not plan:
                return None
        if plan is _GET_HOOK:
            if frame.f_locals["name"].startswith("_"):
                return None
            frame.f_trace_lines = False
            return self._get_return
        f_locals = frame.f_locals
        if plan is _SET_HOOK:
            name = f_locals["name"]
            if not name.startswith("_"):
                self._record_field("set", f_locals["self"], name,
                                   f_locals["value"])
            return None

        receiver = f_locals.get("self")
        if receiver is None:
            qualified = plan.module_method
        else:
            receiver_type = type(receiver)
            qualified = plan.receivers.get(receiver_type)
            if qualified is None:
                qualified = plan.receivers[receiver_type] = self._admitted(
                    f"{receiver_type.__name__}.{plan.name}")
        if not qualified:
            return None
        args = []
        arg_keys = []
        for name in plan.arg_names:
            value = f_locals.get(name, _UNBOUND)
            if value is _UNBOUND:
                continue
            rep = self.rep(value)
            args.append(rep)
            arg_keys.append((rep.class_name, rep.serialization))
        args = tuple(args)
        args_key = tuple(arg_keys)
        if receiver is None:
            obj_rep = plan.module_rep
        else:
            obj_rep = self.rep(receiver)
        obj_key = (obj_rep.class_name, obj_rep.serialization)
        tid = self._tid()
        builder = self.builder
        with self._lock:
            if plan.is_init and receiver is not None:
                class_name = receiver_type.__name__
                builder.record_init_event(
                    tid, class_name, args, obj_rep,
                    ("init", class_name, args_key, obj_key))
            builder.record_call(tid, obj_rep, qualified, args,
                                ("call", obj_key, qualified, args_key))
        frame.f_trace_lines = False
        return self._return

    def _return(self, frame, event, arg):
        """Local trace function of woven frames: records the return."""
        if event != "return":
            return self._return
        # A returned frame that outlives the call (a traceback a program
        # keeps) must not keep the tracer alive.
        frame.f_trace = None
        rep = self.rep(arg)
        tid = self._tid()
        builder = self.builder
        with self._lock:
            top = builder.top(tid)
            if top is not None:
                method, _caller, callee = top
                builder.record_return(
                    tid, rep,
                    ("return", (callee.class_name, callee.serialization),
                     method, (rep.class_name, rep.serialization)))
        return None

    def _get_return(self, frame, event, arg):
        """Local trace function of a ``__getattribute__`` wrapper: its
        return value is the attribute read.  A read that raises records
        nothing (the frame stops being traced at the exception)."""
        frame.f_trace = None
        if event == "return" and not callable(arg):
            f_locals = frame.f_locals
            self._record_field("get", f_locals["self"], f_locals["name"],
                               arg)
        return None

    def _record_field(self, kind: str, obj: object, name: str,
                      value) -> None:
        """Record a field event (``kind`` "get" or "set") of
        ``obj.name``; ``obj`` always gets a location, even when its
        class derives from a container or primitive type."""
        obj_rep = self.registry.rep_of(obj)
        rep = self.rep(value)
        tid = self._tid()
        key = (kind, (obj_rep.class_name, obj_rep.serialization), name,
               (rep.class_name, rep.serialization))
        builder = self.builder
        with self._lock:
            if kind == "get":
                builder.record_get(tid, obj_rep, name, rep, key)
            else:
                builder.record_set(tid, obj_rep, name, rep, key)


def _woven_run(tracer: Tracer, thread: threading.Thread, tid: int):
    """``thread.run`` for a thread the capture started: runs the
    thread's own ``run`` woven as builder thread ``tid`` and closes it
    in the trace.  When the thread ends it removes itself from
    ``thread`` and drops the tracer, so a thread object that outlives
    the capture keeps neither alive."""
    original_run = thread.run

    def run() -> None:
        nonlocal tracer, original_run
        tracer._tids[threading.get_ident()] = tid
        sys.settrace(tracer._trace)
        try:
            original_run()
        finally:
            sys.settrace(None)
            with tracer._lock:
                while tracer.builder.stack_depth(tid) > 0:
                    tracer.builder.record_return(tid, UNIT)
                tracer.builder.record_end(tid)
            del thread.run
            tracer = original_run = None

    return run


class CaptureResult:
    """Outcome of :func:`trace_call`: the trace plus either the return
    value or the exception the call raised (regressing runs may throw —
    the paper's Derby case aborts during query compilation — and their
    traces are exactly what the analysis needs)."""

    __slots__ = ("trace", "result", "error")

    def __init__(self, trace: Trace, result=None,
                 error: BaseException | None = None):
        self.trace = trace
        self.result = result
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def name(self) -> str:
        return self.trace.name


def trace_call(func, *args, name: str = "",
               filter: TraceFilter | None = None,
               record_fields: bool = True, key_table=None,
               **kwargs) -> CaptureResult:
    """Run ``func(*args, **kwargs)`` under a fresh tracer.

    Exceptions raised by the call are captured in the result rather than
    propagated, so traces of failing (regressing) runs remain available.
    The call runs with the cyclic collector paused (see :class:`Tracer`),
    and the captured error's traceback does not keep the tracer alive.
    """
    tracer = Tracer(name=name, filter=filter, record_fields=record_fields,
                    key_table=key_table)
    error: BaseException | None = None
    result = None
    with tracer:
        try:
            result = func(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - capture, do not swallow silently
            error = exc
    try:
        return CaptureResult(tracer.trace(), result=result, error=error)
    finally:
        # ``error.__traceback__`` holds this frame: its locals must not
        # hold the tracer or the error.
        del tracer, error, result
