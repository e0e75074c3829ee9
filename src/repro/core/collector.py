"""A scoped pause of CPython's cyclic garbage collector.

Capture and the views diff build large, long-lived, acyclic data (row
tuples, key columns, view indexes, match pairs).  The cyclic collector
runs every few hundred net container allocations and finds none of it
to free, so both phases run with it paused.  Reference counting still
frees acyclic garbage at once; the passes skipped while paused happen
at the first allocation after the pause ends.  Cyclic garbage made
while paused waits until then.

The pause is process-wide because the collector is: holders nest and
overlap across threads, the first one in disables the collector if it
was enabled, and the last one out re-enables it.  A caller that had
disabled the collector itself finds it still disabled.
"""

from __future__ import annotations

import gc
import threading

__all__ = ["collector_paused"]


class _CollectorPause:
    """Reentrant, thread-safe context manager behind
    :func:`collector_paused`; there is one per process."""

    __slots__ = ("_lock", "_holders", "_reenable")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        #: Whether the collector was enabled when the first holder came.
        self._reenable = False

    def __enter__(self) -> None:
        with self._lock:
            if self._holders == 0:
                self._reenable = gc.isenabled()
                if self._reenable:
                    gc.disable()
            self._holders += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._reenable:
                gc.enable()


_PAUSE = _CollectorPause()


def collector_paused() -> _CollectorPause:
    """The process-wide collector pause, for a ``with`` block."""
    return _PAUSE
