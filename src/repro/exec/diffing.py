"""Diff execution over the executor layer.

The views-based diff is split (in :mod:`repro.core.view_diff`) into a
*planning* phase — build webs, intern columns, correlate views,
enumerate the correlated thread pairs — and an embarrassingly parallel
*execution* phase that evaluates each pair independently.  This module
routes the execution phase through an :class:`~repro.exec.executors.Executor`:

* serial — the plain :func:`~repro.core.view_diff.view_diff` path;
* threads — pair evaluations fan out across the pool, sharing the
  in-memory webs and window-key caches;
* processes — both traces are shipped once per *distinct trace* as a
  digest-keyed shared-memory segment of wire bytes (binary v3 by
  default; inline bytes when shared memory is unavailable); each
  worker rebuilds the (deterministic) plan locally — decoding lazily
  and zero-copy off the mapped segment, memoised per pid, so a warm
  worker re-reads nothing — evaluates its contiguous chunk of thread
  pairs, and sends the pair marks back.  The parent merges all marks
  in plan order.

Every route merges through :meth:`ViewDiffPlan.merge`, so the result is
bit-identical to the serial evaluation — similarity sets, match and
anchor pairs, sequences, and compare totals (property-tested in
``tests/test_exec_diffing.py``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.analysis.serialize import dumps_trace_bytes
from repro.core.diffs import DiffResult
from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter
from repro.core.traces import Trace
from repro.core.view_diff import (PairMarks, ViewDiffConfig, ViewDiffPlan,
                                  view_diff)
from repro.exec.executors import Executor, chunk_evenly, resolve_executor
from repro.exec.shm import TraceShippingError, parent_registry, shm_available
from repro.exec.workerstate import resolve_trace_handle, worker_state


#: Content-digest-keyed memo of trace wire *bytes*: a batch re-diffing
#: the same traces (the pipeline's jobs, warm cache-miss re-runs) ships
#: each trace's serialisation without re-encoding it every diff — the
#: bytes are produced exactly once and reused verbatim for segment
#: writes and inline handles alike.  Tiny and process-local — the
#: capacity bounds memory, the digest key makes it safe to share
#: across every executor-driven diff of the process (equal content,
#: equal plan marks; trace names/metadata never reach the marks the
#: workers send back).
_WIRE_MEMO_CAPACITY = 8
_wire_memo: "OrderedDict[str, bytes]" = OrderedDict()
_wire_memo_lock = threading.Lock()


def _trace_wire(trace: Trace) -> bytes:
    """``dumps_trace_bytes`` memoised by :meth:`Trace.content_digest`."""
    digest = trace.content_digest()
    with _wire_memo_lock:
        blob = _wire_memo.get(digest)
        if blob is not None:
            _wire_memo.move_to_end(digest)
            return blob
    blob = dumps_trace_bytes(trace)
    with _wire_memo_lock:
        _wire_memo[digest] = blob
        _wire_memo.move_to_end(digest)
        while len(_wire_memo) > _WIRE_MEMO_CAPACITY:
            _wire_memo.popitem(last=False)
    return blob


def _ship_trace(trace: Trace, shipped: list[str], *,
                inline: bool = False) -> dict:
    """Build a ship *handle* for ``trace``.

    The preferred handle names a shared-memory segment in the parent's
    registry — digest-keyed, so every diff of the same trace in flight
    shares one segment, and refcounted, with each name appended to
    ``shipped`` for release once the batch lands.  Falls back to (or is
    forced onto, via ``inline=True``) a handle carrying the wire bytes
    themselves.  Workers resolve either kind through
    :func:`~repro.exec.workerstate.resolve_trace_handle`, memoised per
    pid by the digest — a warm worker re-reads nothing.
    """
    digest = trace.content_digest()
    blob = _trace_wire(trace)
    if not inline and shm_available():
        name = parent_registry().create(blob, digest=digest)
        if name is not None:
            shipped.append(name)
            return {"kind": "shm", "name": name, "len": len(blob),
                    "digest": digest}
    return {"kind": "inline", "data": blob, "digest": digest}


def _release_shipped(shipped: list[str]) -> None:
    registry = parent_registry()
    for name in shipped:
        registry.release(name)
    shipped.clear()


def run_diff_chunk_worker(payload: tuple) -> list[PairMarks]:
    """Evaluate one chunk of correlated thread pairs in a worker.

    ``payload`` is ``(left_handle, right_handle, config, pairs)`` —
    both traces as ship handles (shared-memory segment or inline wire
    bytes; key tables ride inside, so the worker interns nothing at
    ingest).  The worker's plan is rebuilt locally; planning
    (correlation, interning) is deterministic, so its pair marks are
    exactly the ones the parent's plan would have produced.
    """
    left_handle, right_handle, config, pairs = payload
    state = worker_state()
    state.diff_jobs += len(pairs)
    plan = ViewDiffPlan(resolve_trace_handle(left_handle),
                        resolve_trace_handle(right_handle),
                        config=config)
    return [plan.run_pair(pair) for pair in pairs]


def executed_view_diff(left: Trace, right: Trace, *,
                       config: ViewDiffConfig | None = None,
                       counter: OpCounter | None = None,
                       key_table: KeyTable | None = None,
                       executor: "Executor | str | None" = None
                       ) -> DiffResult:
    """Views-based diff with the execution phase run by ``executor``.

    Results are bit-identical to :func:`~repro.core.view_diff.view_diff`
    for every executor; only wall-clock distribution changes.  As with
    capture batches, a name spec builds a pool for this one diff and
    closes it after; pass an instance to amortise.
    """
    executor, owned = resolve_executor(executor)
    try:
        if executor.in_process:
            return view_diff(left, right, config=config, counter=counter,
                             key_table=key_table,
                             executor=None if executor.name == "serial"
                             else executor)
        started = time.perf_counter()
        plan = ViewDiffPlan(left, right, config=config,
                            key_table=key_table)
        if len(plan.pairs) <= 1:
            # Nothing to distribute — shipping both traces to a worker
            # would only add wire cost.
            marks = [plan.run_pair(pair) for pair in plan.pairs]
            return plan.merge(marks, counter=counter, started=started)
        chunks = chunk_evenly(plan.pairs,
                              getattr(executor, "max_workers", 1))
        shipped: list[str] = []
        try:
            handles = (_ship_trace(left, shipped),
                       _ship_trace(right, shipped))
            payloads = [(handles[0], handles[1], plan.config, chunk)
                        for chunk in chunks]
            try:
                chunk_marks = executor.map(run_diff_chunk_worker, payloads)
            except TraceShippingError:
                # A segment vanished under a worker (hostile /dev/shm
                # cleaner, racing sweep).  Re-ship inline — identical
                # marks, wire cost.
                handles = (_ship_trace(left, shipped, inline=True),
                           _ship_trace(right, shipped, inline=True))
                payloads = [(handles[0], handles[1], plan.config, chunk)
                            for chunk in chunks]
                chunk_marks = executor.map(run_diff_chunk_worker, payloads)
        finally:
            _release_shipped(shipped)
        marks = [mark for marks_chunk in chunk_marks
                 for mark in marks_chunk]
        return plan.merge(marks, counter=counter, started=started)
    finally:
        if owned:
            executor.close()
