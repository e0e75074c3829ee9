"""Object instrumentation: creation and field-access events.

The :func:`traced` class decorator is the capture-layer counterpart of
the formal rules CONS-E / FIELD-ACC-E / FIELD-ASS-E: instances of a
decorated class record an ``init`` event at construction (via the
tracer's ``__init__`` hook) and ``get``/``set`` events on attribute reads
and writes while a tracer is active.

The recording itself lives in :class:`repro.capture.tracer.Tracer`.
Reads of callables (bound methods) and underscore-prefixed attributes
are not recorded — the former are dispatch plumbing, the latter are the
pointcut convention for internal state excluded from weaving (RPRISM
uses AspectJ pointcuts the same way to keep traces focused).
"""

from __future__ import annotations


def _field_hooks(original_setattr, original_getattribute):
    """The wrappers one traced class gets.  They only forward: the
    weaver recognises their code objects (:data:`SETATTR_HOOK`,
    :data:`GETATTR_HOOK`) and records the field events from its own
    ``sys.settrace`` callbacks on these frames — a set on the call
    event, a get on the return event (which carries the value).  Code
    run inside a callback is not traced itself, so recording enters no
    further traced frames, and without a tracer the wrappers cost one
    plain call."""

    def __setattr__(self, name: str, value) -> None:
        original_setattr(self, name, value)

    def __getattribute__(self, name: str):
        return original_getattribute(self, name)

    return __setattr__, __getattribute__


#: Code objects shared by every traced class's ``__setattr__`` and
#: ``__getattribute__`` wrapper.
SETATTR_HOOK, GETATTR_HOOK = (hook.__code__
                              for hook in _field_hooks(None, None))


def traced(cls: type) -> type:
    """Class decorator: weave field get/set recording into ``cls``.

    Idempotent; subclasses of a traced class inherit the weaving.
    """
    if getattr(cls, "__rprism_traced__", False):
        return cls
    cls.__setattr__, cls.__getattribute__ = _field_hooks(
        cls.__setattr__, cls.__getattribute__)
    cls.__rprism_traced__ = True
    return cls
