"""``repro.api`` — the composable public surface of the library.

Four pieces, designed to grow independently:

* :class:`Session` — fluent configuration + explicit lifecycle
  (``capture`` / ``ingest`` / ``diff`` / ``analyze`` /
  ``run_scenario``), producing structured :class:`SessionResult`\\ s.
* the engine registry — :func:`register_engine` / :func:`get_engine` /
  :func:`available_engines` over the :class:`DiffEngine` protocol; the
  views-based semantics and every LCS baseline ship pre-registered.
* :class:`TraceStore` — persistent JSONL trace storage (capture now,
  diff later: the paper's offline workflow), flat or sharded layout,
  with a queryable catalog sidecar (:class:`TraceIndex` from
  :mod:`repro.index`).
* :class:`ScenarioPipeline` — batch execution of many regression
  scenarios over a thread pool, with per-job op/timing/worker
  aggregation.

Everything runs in-process.  Captures take turns on the process-wide
:data:`CAPTURE_LOCK` (one ``sys.settrace`` weaver per interpreter);
the pipeline's threads overlap diffs and analyses.

The legacy ``repro.RPrism`` facade remains as a thin shim over
:class:`Session`.
"""

from repro.api.engines import (AnchoredEngine, DiffEngine, LcsEngine,
                               ViewsEngine, available_engines, get_engine,
                               is_cacheable, register_engine,
                               unregister_engine)
from repro.cache import CacheStats, DiffCache, cached_engine_diff
from repro.capture import CAPTURE_LOCK
from repro.core.keytable import KeyTable
from repro.api.pipeline import (JobOutcome, PipelineResult, ScenarioJob,
                                ScenarioPipeline, StoredScenarioJob,
                                run_pipeline)
from repro.api.session import SCENARIO_ROLES, Session, SessionResult
from repro.api.store import TraceRecord, TraceStore
from repro.index import TraceIndex, TraceIndexRecord

__all__ = [
    "AnchoredEngine", "CAPTURE_LOCK", "CacheStats", "DiffCache",
    "DiffEngine", "JobOutcome", "KeyTable", "LcsEngine", "PipelineResult",
    "SCENARIO_ROLES", "ScenarioJob", "ScenarioPipeline", "Session",
    "SessionResult", "StoredScenarioJob", "TraceIndex", "TraceIndexRecord",
    "TraceRecord", "TraceStore", "ViewsEngine", "available_engines",
    "cached_engine_diff", "get_engine", "is_cacheable", "register_engine",
    "run_pipeline", "unregister_engine",
]
