"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Recorder` wraps the public entry points of each layer (module
attributes and class methods the session layer calls) for the length of
a ``with recorder:`` block and restores them afterwards; nothing under
``src/`` changes.  Each wrapper times one call, adds it to its layer's
busy time and call count, and charges it to the enclosing span's child
time.  An op (one call of :meth:`Recorder.op`) is the root span; the
part of its wall time that no layer span covers is reported as
``other.busy_s``, and ``trace.coverage`` is the covered share.

Layer busy times are inclusive: ``store.load_s`` contains the
``serialize.decode_s`` of the files it reads.  The benchmark is
single-threaded on the client side, so one span stack suffices.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "capture.calls": ("count", "lower"),
    "capture.entries": ("count", "lower"),
    "capture.busy_s": ("s", "lower"),
    "capture.us_per_entry": ("us", "lower"),
    "capture.slowdown": ("x", "lower"),
    "views.calls": ("count", "lower"),
    "views.busy_s": ("s", "lower"),
    "views.compares": ("count", "lower"),
    "views.us_per_entry": ("us", "lower"),
    "keytable.busy_s": ("s", "lower"),
    "regression.busy_s": ("s", "lower"),
    "serialize.encode_s": ("s", "lower"),
    "serialize.decode_s": ("s", "lower"),
    "serialize.bytes": ("bytes", "lower"),
    "store.saves": ("count", "lower"),
    "store.save_s": ("s", "lower"),
    "store.loads": ("count", "lower"),
    "store.load_s": ("s", "lower"),
    "index.busy_s": ("s", "lower"),
    "index.query_ms": ("ms", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.hit_ms": ("ms", "lower"),
    "cache.miss_ms": ("ms", "lower"),
    "service.submit_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.run_ms.diff": ("ms", "lower"),
    "service.run_ms.capture": ("ms", "lower"),
    "service.rejected": ("count", "lower"),
    "service.errors": ("count", "lower"),
    "loadgen.late_ms": ("ms", "lower"),
    "loadgen.poll_lag_ms": ("ms", "lower"),
    "other.busy_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Recorder:
    """Spans and counters around the layer entry points (see module
    doc).  Use as a context manager to install the wrappers."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_wall = 0.0
        self.op_other = 0.0
        self._child = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _timed(self, layer: str, func, after=None):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            recorder._child.append(0.0)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - started
                recorder._child.pop()
                recorder._child[-1] += seconds
                recorder.busy[layer] += seconds
                recorder.calls[layer] += 1
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def op(self, func, *args, **kwargs):
        """Run one op as the root span; returns ``(seconds, result)``."""
        self._child.append(0.0)
        started = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            covered = self._child.pop()
        self.op_wall += seconds
        self.op_other += max(0.0, seconds - covered)
        return seconds, result

    # -- installing the wrappers ---------------------------------------------

    def patch(self, owner, name: str, layer: str, after=None,
              classmethod_: bool = False) -> None:
        raw = owner.__dict__[name]
        target = getattr(owner, name)  # classmethods come back bound
        wrapper = self._timed(layer, target, after)
        self._saved.append((owner, name, raw))
        setattr(owner, name,
                staticmethod(wrapper) if classmethod_ else wrapper)

    def __enter__(self) -> "Recorder":
        import repro.api.session as session_mod
        import repro.api.store as store_mod
        from repro.core.keytable import KeyTable
        from repro.index.traceindex import TraceIndex

        counts = self.counts

        def captured(outcomes, _args):
            counts["capture.entries"] += sum(
                len(o.trace) for o in outcomes if o.trace is not None)
            counts["capture.traces"] += len(outcomes)

        def diffed(result, args):
            left, right = args[2], args[3]
            counts["views.entries"] += len(left) + len(right)
            if result.counter is not None:
                counts["views.compares"] += result.counter.total

        def encoded(_result, args):
            counts["serialize.bytes"] += _file_size(args[1])

        def decoded(_result, args):
            counts["serialize.bytes"] += _file_size(args[0])

        self.patch(session_mod, "run_capture_tasks", "capture",
                   after=captured)
        self.patch(session_mod, "cached_engine_diff", "views",
                   after=diffed)
        self.patch(KeyTable, "for_pair", "keytable", classmethod_=True)
        self.patch(session_mod, "analyze_regression", "regression")
        self.patch(store_mod.TraceStore, "save", "store.save")
        self.patch(store_mod.TraceStore, "load", "store.load")
        self.patch(store_mod, "save_trace", "serialize.encode",
                   after=encoded)
        self.patch(store_mod, "load_trace", "serialize.decode",
                   after=decoded)
        self.patch(TraceIndex, "record_diff", "index")
        self.patch(TraceIndex, "query", "index.query")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    # -- results -------------------------------------------------------------

    def metrics(self, *, untraced_capture_s: float = 0.0,
                overhead_frac: float = 0.0) -> dict[str, float]:
        """Every per-layer metric; layers a workload leaves idle read
        0.  ``untraced_capture_s`` is the time the captured callables
        took without the tracer (for ``capture.slowdown``)."""
        busy, calls, counts = self.busy, self.calls, self.counts
        capture_entries = counts["capture.entries"]
        views_entries = counts["views.entries"]
        values = {name: 0.0 for name in PER_LAYER}
        values.update({
            "capture.calls": counts["capture.traces"],
            "capture.entries": capture_entries,
            "capture.busy_s": busy["capture"],
            "capture.us_per_entry": (1e6 * busy["capture"]
                                     / capture_entries
                                     if capture_entries else 0.0),
            "capture.slowdown": (busy["capture"] / untraced_capture_s
                                 if untraced_capture_s else 0.0),
            "views.calls": calls["views"],
            "views.busy_s": busy["views"],
            "views.compares": counts["views.compares"],
            "views.us_per_entry": (1e6 * busy["views"] / views_entries
                                   if views_entries else 0.0),
            "keytable.busy_s": busy["keytable"],
            "regression.busy_s": busy["regression"],
            "serialize.encode_s": busy["serialize.encode"],
            "serialize.decode_s": busy["serialize.decode"],
            "serialize.bytes": counts["serialize.bytes"],
            "store.saves": calls["store.save"],
            "store.save_s": busy["store.save"],
            "store.loads": calls["store.load"],
            "store.load_s": busy["store.load"],
            "index.busy_s": busy["index"] + busy["index.query"],
            "index.query_ms": (1000.0 * busy["index.query"]
                               / calls["index.query"]
                               if calls["index.query"] else 0.0),
            "other.busy_s": self.op_other,
            "trace.coverage": (1.0 - self.op_other / self.op_wall
                               if self.op_wall else 0.0),
            "trace.overhead_frac": overhead_frac,
        })
        return values
