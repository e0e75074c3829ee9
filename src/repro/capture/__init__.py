"""Trace capture for live Python programs.

This package is the reproduction's substitute for RPRISM's AspectJ
load-time weaving: it intercepts the same event families at runtime —
method calls and returns via ``sys.settrace`` (installed in each thread
the captured program starts), object creation and field reads/writes
via the :func:`traced` class decorator, and thread forks by
instrumenting ``threading.Thread.start`` —
and records them through the same :class:`repro.core.traces.TraceBuilder`
the formal semantics uses.  Pointcut-style include/exclude filters select
which modules are woven into the trace.  One weaver exists per
interpreter, so concurrent callers take turns on :data:`CAPTURE_LOCK`.
"""

from repro.capture.filters import TraceFilter
from repro.capture.objects import traced
from repro.capture.segments import SegmentedTraceWriter, load_segments
from repro.capture.tracer import (CAPTURE_LOCK, Tracer, current_tracer,
                                  trace_call)
from repro.capture.values import live_value_rep

__all__ = [
    "CAPTURE_LOCK", "SegmentedTraceWriter", "TraceFilter", "Tracer",
    "current_tracer", "live_value_rep", "load_segments", "trace_call",
    "traced",
]
