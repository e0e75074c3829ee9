"""Capture execution over the executor layer.

The seed serialised every capture behind one process-wide lock (a
single ``sys.settrace`` weaver exists per interpreter), so batches only
ever parallelised the diff half of each job.  This module makes the
capture half scale too: a :class:`CaptureTask` describes one run
declaratively (callable + arguments + pointcut filter), and
:func:`run_capture_tasks` evaluates a batch through any
:class:`~repro.exec.executors.Executor`:

* **in-process executors** (serial / threads) run each task under
  :data:`CAPTURE_LOCK` exactly as before — one weaver, interleaved
  captures;
* **process executors** dispatch tasks to worker processes.  Each
  worker owns its own weaver (no lock needed: pool workers evaluate one
  task at a time), captures locally, and ships the finished trace back
  as binary v3 wire bytes — key table included — so the
  parent decodes interned traces lazily, without recomputing a single
  ``=e`` key or materialising an entry it never looks at.  The
  parent then re-homes each carried key column into the session's
  ingest table (one intern per *distinct* key), preserving the session
  invariant that all its traces share one id space.

Process tasks cross a pickle boundary: callables must be module-level
(or given as ``"package.module:attr"`` references) and inputs
picklable.  :func:`ensure_portable` turns the inevitable obscure
pickling error into an actionable one up front.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.serialize import dumps_trace_bytes, loads_trace
from repro.capture.filters import TraceFilter
from repro.capture.tracer import CaptureResult, trace_call
from repro.core.keytable import KeyTable
from repro.core.traces import Trace
from repro.exec.executors import Executor, lease_chunks, resolve_executor
from repro.exec import shm
from repro.exec.shm import (adopt_segment_view, parent_registry,
                            ship_untracked, shm_available)

#: Process-wide capture serialisation for *in-process* execution (one
#: ``sys.settrace`` weaver per interpreter; re-entrant so a nested
#: capture attempt still reaches the Tracer's own "already active"
#: diagnostic).  Process workers never touch it — each worker process
#: has a weaver of its own and runs one task at a time.
CAPTURE_LOCK = threading.RLock()


class RemoteCaptureError(RuntimeError):
    """An exception re-raised from a capture worker process, carrying
    the original type name (the object itself may not be picklable)."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


def resolve_callable(ref: "Callable | str") -> Callable:
    """``"package.module:attr.path"`` -> the callable it names."""
    if callable(ref):
        return ref
    module_name, sep, attr_path = ref.partition(":")
    if not sep or not module_name or not attr_path:
        raise ValueError(f"callable reference must look like "
                         f"'package.module:attr', got {ref!r}")
    from importlib import import_module
    target = import_module(module_name)
    for attr in attr_path.split("."):
        target = getattr(target, attr)
    if not callable(target):
        raise TypeError(f"{ref!r} does not name a callable")
    return target


@dataclass(slots=True)
class CaptureTask:
    """One capture, described declaratively (and picklably).

    ``func`` is the entry point — a callable, or a
    ``"package.module:attr"`` reference resolved inside the worker.
    """

    func: "Callable | str"
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    name: str = ""
    filter: TraceFilter | None = None
    record_fields: bool = True


@dataclass(slots=True)
class CaptureOutcome:
    """What one capture task produced.

    ``worker`` identifies where the capture ran (``pid:N`` for process
    workers, ``thread:NAME`` in-process) — the pipeline surfaces it so
    parallel runs are debuggable.  ``error`` mirrors
    :class:`~repro.capture.tracer.CaptureResult`: exceptions raised by
    the traced program are captured, not propagated (regressing runs
    may throw; their traces are exactly what the analysis needs).
    """

    name: str
    trace: Trace | None = None
    result: object = None
    error: BaseException | None = None
    seconds: float = 0.0
    worker: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    def capture_result(self) -> CaptureResult:
        """This outcome as the capture layer's result type."""
        return CaptureResult(self.trace, result=self.result,
                             error=self.error)


def ensure_portable(task: CaptureTask) -> None:
    """Fail fast — with an actionable message — if ``task`` cannot
    cross the process boundary."""
    try:
        pickle.dumps(task)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        raise TypeError(
            f"capture task {task.name or task.func!r} is not picklable "
            f"({type(exc).__name__}: {exc}); process executors need "
            f"module-level callables (or 'module:attr' references) and "
            f"picklable arguments — use the serial or threads executor "
            f"for closures") from None


def _picklable_or_none(value):
    """The traced call's return value, if it can ride the wire."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - unpicklable results are dropped
        return None
    return value


def run_capture_worker(task: CaptureTask) -> dict:
    """Evaluate one capture task inside a worker process.

    Returns a wire dict: the trace as wire bytes (binary v3 by
    default, file-local key table included), the error as (type,
    message) strings, the worker pid, and the capture's wall-clock
    seconds.  No capture lock is taken — this process owns its weaver
    outright.
    """
    from repro.exec.workerstate import worker_state

    state = worker_state()
    func = resolve_callable(task.func)
    started = time.perf_counter()
    captured = trace_call(func, *task.args, name=task.name,
                          filter=task.filter,
                          record_fields=task.record_fields,
                          key_table=state.ingest_table(),
                          **task.kwargs)
    seconds = time.perf_counter() - started
    state.captures += 1
    error = None
    if captured.error is not None:
        error = (type(captured.error).__name__, str(captured.error))
    return {
        "trace": dumps_trace_bytes(captured.trace),
        "result": _picklable_or_none(captured.result),
        "error": error,
        "seconds": seconds,
        "pid": os.getpid(),
    }


def run_capture_lease(payload: dict) -> dict:
    """Evaluate one *lease* — a chunk of capture tasks — in a worker.

    One round trip covers the whole chunk, and every captured trace is
    shipped home through a single shared-memory segment (wire payloads
    concatenated; each outcome carries its ``(off, len)`` frame) when
    ``payload["ship"]`` allows and the platform cooperates, falling
    back to inline bytes otherwise.  The segment is created *untracked*
    under the parent's prefix: the parent adopts and unlinks it on
    receipt, and sweeps it if this worker dies first.

    The worker's pid-local caches make repeat content cheap: traces
    intern into the worker's warm key table, encoded wire bytes are
    memoised by content digest (produced exactly once — never
    re-encoded per send), and the decoded trace is remembered so a
    later diff lease naming the same digest never re-ships it.
    """
    from repro.exec.workerstate import worker_state

    state = worker_state()
    ship = bool(payload.get("ship", True))
    outcomes: list[dict] = []
    parts: list[bytes] = []
    for task in payload["tasks"]:
        func = resolve_callable(task.func)
        started = time.perf_counter()
        captured = trace_call(func, *task.args, name=task.name,
                              filter=task.filter,
                              record_fields=task.record_fields,
                              key_table=state.ingest_table(),
                              **task.kwargs)
        seconds = time.perf_counter() - started
        state.captures += 1
        try:
            digest = captured.trace.content_digest()
        except Exception:  # noqa: BLE001 - digests are an optimisation
            digest = ""
        blob = state.cached_wire(digest) if digest else None
        if blob is None:
            blob = dumps_trace_bytes(captured.trace)
            if digest:
                state.remember_wire(digest, blob)
        if digest:
            # A later diff lease naming this digest will find the
            # decoded trace already resident — the capture was the
            # trace's one and only boundary crossing for this worker.
            state.remember_trace(digest, captured.trace)
        error = None
        if captured.error is not None:
            error = (type(captured.error).__name__, str(captured.error))
        outcomes.append({"trace": blob, "result":
                         _picklable_or_none(captured.result),
                         "error": error, "seconds": seconds,
                         "pid": os.getpid(), "digest": digest})
        parts.append(blob)
    segment = None
    combined = b"".join(parts)
    if ship and len(combined) >= shm.SHIP_MIN_BYTES:
        shipped = ship_untracked(combined, payload["prefix"])
        if shipped is not None:
            segment = shipped
            offset = 0
            for outcome, blob in zip(outcomes, parts):
                outcome["trace"] = {"off": offset, "len": len(blob)}
                offset += len(blob)
        # else: shared memory refused — outcomes keep their inline
        # bytes; identical results, just wire cost.
    return {"outcomes": outcomes, "segment": segment,
            "counters": state.counters()}


def _decode_outcome(task: CaptureTask, wire: dict,
                    key_table: KeyTable | None,
                    keepalive=None) -> CaptureOutcome:
    """Wire dict -> outcome, re-homing the trace's carried key column
    into ``key_table`` so every trace of a session shares one id
    space.  Binary v3 payloads decode lazily — a zero-copy view over
    the lease's mapped segment, pinned by ``keepalive``; only the key
    column is touched here."""
    trace = loads_trace(wire["trace"], keepalive=keepalive)
    if key_table is not None and trace.key_table is not None \
            and trace.key_ids is not None:
        trace.key_ids = key_table.translate(trace.key_table.keys(),
                                            trace.key_ids)
        trace.key_table = key_table
    error = None
    if wire["error"] is not None:
        error = RemoteCaptureError(*wire["error"])
    return CaptureOutcome(
        name=task.name,
        trace=trace,
        result=wire["result"],
        error=error,
        seconds=wire["seconds"],
        worker=f"pid:{wire['pid']}",
    )


def capture_task_locally(task: CaptureTask,
                         key_table: KeyTable | None = None
                         ) -> CaptureOutcome:
    """Evaluate one capture task in this process, under
    :data:`CAPTURE_LOCK`."""
    func = resolve_callable(task.func)
    started = time.perf_counter()
    with CAPTURE_LOCK:
        captured = trace_call(func, *task.args, name=task.name,
                              filter=task.filter,
                              record_fields=task.record_fields,
                              key_table=key_table,
                              **task.kwargs)
    return CaptureOutcome(
        name=task.name,
        trace=captured.trace,
        result=captured.result,
        error=captured.error,
        seconds=time.perf_counter() - started,
        worker=f"thread:{threading.current_thread().name}",
    )


def run_capture_tasks(tasks: Sequence[CaptureTask],
                      executor: "Executor | str | None" = None,
                      *, key_table: KeyTable | None = None
                      ) -> list[CaptureOutcome]:
    """Evaluate a batch of capture tasks through an executor.

    Outcomes keep task order.  ``key_table`` is the caller's ingest
    table: in-process captures intern straight into it; process
    captures intern into a worker-local table whose column is
    translated into ``key_table`` on arrival.

    Pass an executor *instance* to amortise one pool across batches; a
    name spec constructs a pool for this batch and closes it after.
    """
    tasks = list(tasks)
    executor, owned = resolve_executor(executor)
    try:
        if executor.in_process:
            return executor.map(
                lambda task: capture_task_locally(task, key_table), tasks)
        for task in tasks:
            ensure_portable(task)
        return _run_capture_leases(tasks, executor, key_table)
    finally:
        if owned:
            executor.close()


def _run_capture_leases(tasks: Sequence[CaptureTask], executor: Executor,
                        key_table: KeyTable | None) -> list[CaptureOutcome]:
    """Dispatch capture tasks to a process executor as leases (one
    round trip per chunk, traces home through shared memory).

    The parent adopts — and immediately unlink-names — each lease's
    segment as a **zero-copy view**: v3 traces decode lazily straight
    off the mapping (no copy of the payload is ever made), and the
    mapping itself lives exactly as long as the decoded traces that
    reference it.  Any exception (a broken pool, an interrupt) triggers
    a prefix sweep that collects segments whose producer died mid-ship.
    """
    registry = parent_registry()
    registry.sweep()   # collect leftovers from any earlier crashed batch
    workers = getattr(executor, "max_workers", None) or 1
    chunks = lease_chunks(list(enumerate(tasks)), workers)
    ship = shm_available()
    payloads = [{"tasks": [task for _, task in chunk],
                 "prefix": registry.prefix, "ship": ship}
                for chunk in chunks]
    outcomes: "list[CaptureOutcome | None]" = [None] * len(tasks)
    try:
        for chunk, lease in zip(chunks, executor.map(run_capture_lease,
                                                     payloads)):
            blob = b""
            keepalive = None
            if lease["segment"] is not None:
                name, size = lease["segment"]
                blob, keepalive = adopt_segment_view(name, size,
                                                     registry=registry)
            for (index, task), wire in zip(chunk, lease["outcomes"]):
                frame = wire["trace"]
                if isinstance(frame, dict):
                    wire["trace"] = blob[frame["off"]:
                                         frame["off"] + frame["len"]]
                outcomes[index] = _decode_outcome(task, wire, key_table,
                                                  keepalive=keepalive)
    except BaseException:
        registry.sweep()
        raise
    return outcomes


def capture_call(func: "Callable | str", *args,
                 name: str = "",
                 filter: TraceFilter | None = None,
                 record_fields: bool = True,
                 key_table: KeyTable | None = None,
                 executor: "Executor | str | None" = None,
                 **kwargs) -> CaptureResult:
    """One-shot: :func:`repro.capture.tracer.trace_call` semantics,
    routed through the execution layer (the executor decides whether
    the capture runs under the lock or in a worker process)."""
    task = CaptureTask(func=func, args=args, kwargs=kwargs, name=name,
                       filter=filter, record_fields=record_fields)
    outcome = run_capture_tasks([task], executor, key_table=key_table)[0]
    return outcome.capture_result()
