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
  scenarios over a worker pool, with per-job op/timing/worker
  aggregation.

How work *runs* is the execution layer's job (:mod:`repro.exec`):
sessions and pipelines take an ``executor`` (``serial`` / ``threads`` /
``processes``) that decides whether captures serialise under the
process-wide lock or fan out across worker processes, and whether
views-based diffs evaluate their thread pairs inline or in parallel.

The legacy ``repro.RPrism`` facade remains as a thin shim over
:class:`Session`.
"""

from repro.api.engines import (AnchoredEngine, DiffEngine, LcsEngine,
                               ViewsEngine, available_engines, get_engine,
                               is_cacheable, register_engine,
                               unregister_engine)
from repro.cache import CacheStats, DiffCache, cached_engine_diff
from repro.core.keytable import KeyTable
from repro.exec.capture import CaptureOutcome, CaptureTask
from repro.exec.executors import (Executor, available_executors,
                                  get_executor)
from repro.api.pipeline import (JobOutcome, PipelineResult, ScenarioJob,
                                ScenarioPipeline, StoredScenarioJob,
                                run_pipeline)
from repro.api.session import (CAPTURE_LOCK, SCENARIO_ROLES, Session,
                               SessionResult)
from repro.api.store import TraceRecord, TraceStore
from repro.index import TraceIndex, TraceIndexRecord

__all__ = [
    "AnchoredEngine", "CAPTURE_LOCK", "CacheStats", "CaptureOutcome",
    "CaptureTask",
    "DiffCache", "DiffEngine", "Executor", "JobOutcome", "KeyTable",
    "LcsEngine", "PipelineResult", "SCENARIO_ROLES", "ScenarioJob",
    "ScenarioPipeline", "Session", "SessionResult", "StoredScenarioJob",
    "TraceIndex", "TraceIndexRecord",
    "TraceRecord", "TraceStore", "ViewsEngine", "available_engines",
    "available_executors", "cached_engine_diff", "get_engine",
    "get_executor", "is_cacheable", "register_engine", "run_pipeline",
    "unregister_engine",
]
