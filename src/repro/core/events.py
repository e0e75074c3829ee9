"""Trace events (Fig. 4) and the event-equality keys behind ``=e``.

The grammar distinguishes four event families::

    event e ::= FE | ME | KE | TE
    FE ::= get(rho, f, rho) | set(rho, f, rho)
    ME ::= call(rho, m, rho*) | return(rho, m, rho)
    KE ::= init(A, rho*, rho)
    TE ::= fork(S*) | end(S*)

Each event class exposes:

* ``key()`` — a hashable, *location-free* tuple implementing the event
  equality predicate ``=e`` of Fig. 9 ("the underlying primitive values of
  the events of the two entries are equal").  Two entries are ``=e``-equal
  iff their event keys are equal.
* ``target()`` — the object the event acts upon (``rho'`` in the TO view
  mapping of Fig. 7), or ``None`` for thread events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.frozen import slot_init
from repro.core.values import ValueRep


@slot_init
@dataclass(frozen=True, slots=True)
class StackFrame:
    """One stack entry ``s(m, rho, rho')``: method ``m`` invoked on object
    ``callee`` from object ``caller``."""

    method: str
    caller: ValueRep | None
    callee: ValueRep | None

    def key(self) -> tuple:
        caller = None if self.caller is None else self.caller.key()
        callee = None if self.callee is None else self.callee.key()
        return (self.method, caller, callee)

    def __repr__(self) -> str:
        # Hand-written, byte-identical to the generated dataclass repr:
        # the trace content digest hashes entry reprs, so the format is
        # part of digest stability (see TraceEntry.__repr__).
        return (f"StackFrame(method={self.method!r}, "
                f"caller={self.caller!r}, callee={self.callee!r})")


class Event:
    """Base class for all trace events."""

    __slots__ = ()

    kind: str = "event"

    def key(self) -> tuple:
        raise NotImplementedError

    def target(self) -> ValueRep | None:
        raise NotImplementedError

    def brief(self) -> str:
        raise NotImplementedError


@slot_init
@dataclass(frozen=True, slots=True)
class FieldGet(Event):
    """``get(rho, f, rho'')`` — read of field ``f`` on object ``obj``."""

    obj: ValueRep
    field: str
    value: ValueRep

    kind = "get"

    def __repr__(self) -> str:
        return (f"FieldGet(obj={self.obj!r}, field={self.field!r}, "
                f"value={self.value!r})")

    def key(self) -> tuple:
        return ("get", self.obj.key(), self.field, self.value.key())

    def target(self) -> ValueRep:
        return self.obj

    def brief(self) -> str:
        return f"get {self.obj.brief()}.{self.field} -> {self.value.brief()}"


@slot_init
@dataclass(frozen=True, slots=True)
class FieldSet(Event):
    """``set(rho, f, rho'')`` — write of field ``f`` on object ``obj``."""

    obj: ValueRep
    field: str
    value: ValueRep

    kind = "set"

    def __repr__(self) -> str:
        return (f"FieldSet(obj={self.obj!r}, field={self.field!r}, "
                f"value={self.value!r})")

    def key(self) -> tuple:
        return ("set", self.obj.key(), self.field, self.value.key())

    def target(self) -> ValueRep:
        return self.obj

    def brief(self) -> str:
        return f"set {self.obj.brief()}.{self.field} = {self.value.brief()}"


@slot_init
@dataclass(frozen=True, slots=True)
class Call(Event):
    """``call(rho, m, rho*)`` — invocation of ``method`` on ``obj``."""

    obj: ValueRep
    method: str
    args: tuple[ValueRep, ...]

    kind = "call"

    def __repr__(self) -> str:
        return (f"Call(obj={self.obj!r}, method={self.method!r}, "
                f"args={self.args!r})")

    def key(self) -> tuple:
        return ("call", self.obj.key(), self.method,
                tuple(a.key() for a in self.args))

    def target(self) -> ValueRep:
        return self.obj

    def brief(self) -> str:
        args = ", ".join(a.brief() for a in self.args)
        return f"--> {self.obj.brief()}.{self.method}({args})"


@slot_init
@dataclass(frozen=True, slots=True)
class Return(Event):
    """``return(rho, m, rho'')`` — return from ``method`` on ``obj``."""

    obj: ValueRep
    method: str
    value: ValueRep

    kind = "return"

    def __repr__(self) -> str:
        return (f"Return(obj={self.obj!r}, method={self.method!r}, "
                f"value={self.value!r})")

    def key(self) -> tuple:
        return ("return", self.obj.key(), self.method, self.value.key())

    def target(self) -> ValueRep:
        return self.obj

    def brief(self) -> str:
        return f"<-- {self.obj.brief()}.{self.method} ret={self.value.brief()}"


@slot_init
@dataclass(frozen=True, slots=True)
class Init(Event):
    """``init(A, rho*, rho)`` — creation of ``obj`` of class ``class_name``
    with constructor arguments ``args``."""

    class_name: str
    args: tuple[ValueRep, ...]
    obj: ValueRep

    kind = "init"

    def __repr__(self) -> str:
        return (f"Init(class_name={self.class_name!r}, "
                f"args={self.args!r}, obj={self.obj!r})")

    def key(self) -> tuple:
        return ("init", self.class_name,
                tuple(a.key() for a in self.args), self.obj.key())

    def target(self) -> ValueRep:
        return self.obj

    def brief(self) -> str:
        args = ", ".join(a.brief() for a in self.args)
        return f"new {self.obj.brief()}({args})"


@slot_init
@dataclass(frozen=True, slots=True)
class Fork(Event):
    """``fork(S*)`` — creation of a thread.

    ``ancestry`` records the spawn-point call stack of the new thread *and*
    recursively of each spawning ancestor ("spawn-point call stack, call
    stack of spawn-point of spawning thread, etc."), outermost ancestor
    first.  ``child_tid`` identifies the created thread within this trace;
    like locations it is excluded from the ``=e`` key.
    """

    child_tid: int
    ancestry: tuple[tuple[StackFrame, ...], ...]

    kind = "fork"

    def __repr__(self) -> str:
        return (f"Fork(child_tid={self.child_tid!r}, "
                f"ancestry={self.ancestry!r})")

    def key(self) -> tuple:
        return ("fork", tuple(tuple(f.key() for f in stack)
                              for stack in self.ancestry))

    def target(self) -> None:
        return None

    def brief(self) -> str:
        return f"fork thread-{self.child_tid}"


@slot_init
@dataclass(frozen=True, slots=True)
class End(Event):
    """``end(S*)`` — completion of a thread."""

    tid: int
    ancestry: tuple[tuple[StackFrame, ...], ...]

    kind = "end"

    def __repr__(self) -> str:
        return f"End(tid={self.tid!r}, ancestry={self.ancestry!r})"

    def key(self) -> tuple:
        return ("end", tuple(tuple(f.key() for f in stack)
                             for stack in self.ancestry))

    def target(self) -> None:
        return None

    def brief(self) -> str:
        return f"end thread-{self.tid}"


#: All concrete event classes, handy for tests and serialisation.
EVENT_CLASSES: tuple[type[Event], ...] = (
    FieldGet, FieldSet, Call, Return, Init, Fork, End,
)
