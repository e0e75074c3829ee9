"""``repro.exec`` — the execution layer.

Work above this package (sessions, pipelines, the harness, the CLI) is
expressed as ordered task batches; an :class:`Executor` decides how a
batch runs — ``serial`` inline, ``threads`` across a prewarmed thread
pool, ``processes`` across a prewarmed process pool whose workers each
own their own ``sys.settrace`` weaver.

The process backend is a *persistent substrate*:

* **warm pools** (:func:`shared_process_executor`) — one prewarmed
  pool per worker count, shared by every session / pipeline / one-shot
  driver that names ``"processes"``, shut down at interpreter exit (or
  :func:`shutdown_warm_pools`); spin-up is paid once per process.
* **zero-copy trace shipping** (:mod:`repro.exec.shm`) — traces cross
  the boundary as binary v3 wire bytes in
  ``multiprocessing.shared_memory`` segments, refcounted and
  guaranteed-unlinked by a :class:`~repro.exec.shm.SegmentRegistry`
  (with an orphan sweep for crashed workers), falling back to inline
  bytes transparently.
* **batched leasing** (:func:`lease_chunks`) — workers lease
  near-even chunks plus a work-stealing singleton tail instead of one
  task per round trip; per-pid caches
  (:mod:`repro.exec.workerstate`) ensure a trace crosses at most once
  per worker.

Two task kinds ride the layer today:

* capture (:mod:`repro.exec.capture`) — :class:`CaptureTask` batches
  through :func:`run_capture_tasks`; process workers capture lock-free
  and ship traces home through shared memory.  The process-wide
  :data:`CAPTURE_LOCK` lives here and applies only to in-process
  execution.
* diff (:mod:`repro.exec.diffing`) — the views-based diff's execution
  phase (independent correlated-thread-pair evaluations) through
  :func:`executed_view_diff`, bit-identical to the serial path.
"""

from repro.exec.capture import (CAPTURE_LOCK, CaptureOutcome, CaptureTask,
                                RemoteCaptureError, capture_call,
                                capture_task_locally, ensure_portable,
                                resolve_callable, run_capture_tasks)
from repro.exec.diffing import executed_view_diff
from repro.exec.executors import (DEFAULT_MAX_WORKERS, Executor,
                                  ProcessExecutor, SerialExecutor,
                                  ThreadExecutor, available_executors,
                                  chunk_evenly, get_executor, lease_chunks,
                                  prewarm_thread_pool, resolve_executor,
                                  shared_process_executor,
                                  shutdown_warm_pools)
from repro.exec.shm import (SegmentRegistry, TraceShippingError,
                            parent_registry, shm_available, shm_stats)
from repro.exec.workerstate import WorkerState, worker_state

__all__ = [
    "CAPTURE_LOCK", "CaptureOutcome", "CaptureTask", "DEFAULT_MAX_WORKERS",
    "Executor", "ProcessExecutor", "RemoteCaptureError", "SegmentRegistry",
    "SerialExecutor", "ThreadExecutor", "TraceShippingError", "WorkerState",
    "available_executors", "capture_call",
    "capture_task_locally", "chunk_evenly", "ensure_portable",
    "executed_view_diff", "get_executor", "lease_chunks", "parent_registry",
    "prewarm_thread_pool", "resolve_callable", "resolve_executor",
    "run_capture_tasks", "shared_process_executor", "shm_available",
    "shm_stats", "shutdown_warm_pools", "worker_state",
]
