"""``repro.api`` — the composable public surface of the library.

Three pieces, designed to grow independently:

* :class:`Session` — fluent configuration + explicit lifecycle
  (``capture`` / ``ingest`` / ``diff`` / ``analyze`` /
  ``run_scenario``), producing structured :class:`SessionResult`\\ s.
* the engine registry — :func:`register_engine` / :func:`get_engine` /
  :func:`available_engines` over the :class:`DiffEngine` protocol; the
  views-based semantics and every LCS baseline ship pre-registered.
* :class:`TraceStore` — persistent trace storage (capture now, diff
  later: the paper's offline workflow) in one sharded directory
  layout, with a queryable catalog sidecar (:class:`TraceIndex` from
  :mod:`repro.index`).

A batch of scenarios is a loop over :class:`Session`
(``repro batch`` runs one over stored traces).  Everything runs
in-process.  Captures take turns on the process-wide
:data:`CAPTURE_LOCK` (one ``sys.settrace`` weaver per interpreter);
the service's ``--workers`` pool is the one place threads overlap.
"""

from repro.api.engines import (DiffEngine, LcsEngine, ViewsEngine,
                               available_engines, get_engine, is_cacheable,
                               register_engine, unregister_engine)
from repro.cache import CacheStats, DiffCache, cached_engine_diff
from repro.capture import CAPTURE_LOCK
from repro.core.keytable import KeyTable
from repro.api.session import SCENARIO_ROLES, Session, SessionResult
from repro.api.store import TraceRecord, TraceStore
from repro.index import TraceIndex, TraceIndexRecord

__all__ = [
    "CAPTURE_LOCK", "CacheStats", "DiffCache", "DiffEngine", "KeyTable",
    "LcsEngine", "SCENARIO_ROLES", "Session", "SessionResult",
    "TraceIndex", "TraceIndexRecord", "TraceRecord", "TraceStore",
    "ViewsEngine", "available_engines", "cached_engine_diff",
    "get_engine", "is_cacheable", "register_engine", "unregister_engine",
]
