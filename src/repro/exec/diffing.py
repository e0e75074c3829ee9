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

import dataclasses
import os
import threading
import time
from collections import OrderedDict

from repro.analysis.serialize import dumps_trace_bytes
from repro.core.anchors import AnchorConfig, merge_segment_results, segment_pair
from repro.core.diffs import DiffResult, result_from_wire, result_to_wire
from repro.core.keytable import KeyTable
from repro.core.lcs import MemoryBudget, OpCounter
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


# -- anchored segmental execution --------------------------------------------


def _inner_gap_diff(engine, left: Trace, right: Trace, *,
                    config: ViewDiffConfig, counter: OpCounter,
                    budget: "MemoryBudget | None",
                    key_table: "KeyTable | None") -> DiffResult:
    """One gap through the inner engine, feeding only the keywords its
    signature accepts (pre-interning engines stay valid)."""
    from repro.api.engines import accepts_kwarg

    kwargs = {}
    if key_table is not None and accepts_kwarg(engine, "key_table"):
        kwargs["key_table"] = key_table
    if budget is not None and accepts_kwarg(engine, "budget"):
        kwargs["budget"] = budget
    return engine.diff(left, right, config=config, counter=counter,
                       **kwargs)


def run_segment_chunk_worker(payload: tuple) -> list[tuple]:
    """Diff one chunk of gap segments in a worker process.

    ``payload`` is ``(left_handle, right_handle, engine_name, config,
    jobs)`` — the *full* traces as ship handles (one shared-memory
    segment per distinct trace, or inline wire bytes) plus the gap
    bounds to slice locally; a warm worker that already holds a
    trace's digest decodes nothing.  The inner engine is resolved by registry
    name; built-ins are always available in workers.  Each job returns
    ``(gap index, result wire, worker tag)`` — slices preserve entry
    ids, so the wire is directly meaningful to the parent's own gap
    sub-traces.
    """
    from repro.api.engines import get_engine

    left_handle, right_handle, engine_name, config, jobs = payload
    state = worker_state()
    state.diff_jobs += len(jobs)
    left = resolve_trace_handle(left_handle)
    right = resolve_trace_handle(right_handle)
    engine = get_engine(engine_name)
    worker = f"pid:{os.getpid()}"
    out: list[tuple] = []
    for index, l_lo, l_hi, r_lo, r_hi in jobs:
        gap_l = left[l_lo:l_hi]
        gap_r = right[r_lo:r_hi]
        local = OpCounter()
        result = _inner_gap_diff(engine, gap_l, gap_r, config=config,
                                 counter=local, budget=None,
                                 key_table=None)
        out.append((index,
                    result_to_wire(result, counter_totals=(local.compares,
                                                           local.charged)),
                    worker))
    return out


def anchored_segment_diff(left: Trace, right: Trace, inner=None, *,
                          config: ViewDiffConfig | None = None,
                          counter: OpCounter | None = None,
                          budget: "MemoryBudget | None" = None,
                          key_table: "KeyTable | None" = None,
                          executor: "Executor | str | None" = None,
                          cache=None,
                          workers: "list[str] | None" = None
                          ) -> DiffResult:
    """Anchored segmental diff with ``inner`` run on each gap
    (:data:`~repro.api.engines.DEFAULT_GAP_INNER` — the bit-parallel
    LCS — when ``inner`` is ``None``).

    The driver behind the ``anchored:*`` meta-engines
    (:class:`repro.api.engines.AnchoredEngine`):

    1. segment the pair along patience-style ``=e`` anchor runs
       (:func:`~repro.core.anchors.segment_pair`);
    2. skip one-sided gaps outright (pure insertions/deletions);
    3. consult the gap-granular :class:`~repro.cache.SegmentCache`
       (when a :class:`~repro.cache.DiffCache` handle is supplied and
       no ``budget`` is in force) — hits credit the caller's counter
       with the gap's cold totals;
    4. run the remaining gaps through the inner engine — inline,
       across a thread pool, or chunked to worker processes with both
       traces shipped once each as digest-keyed shared-memory
       segments (inline wire text when shared memory is unavailable);
    5. merge everything into one full-trace result
       (:func:`~repro.core.anchors.merge_segment_results`).

    ``budget``-carrying calls run serial and uncached so the budget's
    high-water accounting (and any
    :class:`~repro.core.lcs.LcsMemoryError`) reflects real work.
    ``workers`` (optional) collects one tag per two-sided gap —
    ``"cache"``, ``"inline"``, ``"thread:NAME"`` or ``"pid:N"`` —
    observability for tests and benchmarks.
    """
    started = time.perf_counter()
    if inner is None:
        from repro.api.engines import DEFAULT_GAP_INNER, get_engine

        inner = get_engine(DEFAULT_GAP_INNER)
    if config is None:
        config = ViewDiffConfig()
    if counter is None:
        counter = OpCounter()
    # Gap diffs must not re-anchor (the segmentation already did).
    inner_config = dataclasses.replace(config, anchored=False) \
        if config.anchored else config
    table = None
    if config.interned:
        table = key_table if key_table is not None \
            else KeyTable.for_pair(left, right)
    segmentation = segment_pair(
        left, right, config=AnchorConfig.from_view_config(config),
        interned=config.interned, key_table=table, counter=counter)

    # Slice lazily: one-sided gaps (pure insertions/deletions) never
    # need their sub-traces materialised.
    gap_traces: dict[int, tuple[Trace, Trace]] = {}
    results: "list[DiffResult | None]" = [None] * len(segmentation.gaps)
    pending: list[tuple[int, str | None]] = []
    for index, gap in enumerate(segmentation.gaps):
        if gap.left_len == 0 or gap.right_len == 0:
            continue  # one-sided: nothing can match
        gap_traces[index] = (left[gap.left_lo:gap.left_hi],
                             right[gap.right_lo:gap.right_hi])
        pending.append((index, None))

    segcache = None
    if cache is not None and budget is None:
        from repro.cache.segments import SegmentCache

        segcache = SegmentCache(cache)
        still: list[tuple[int, str | None]] = []
        for index, _key in pending:
            gap_l, gap_r = gap_traces[index]
            key = segcache.key_for(gap_l, gap_r, inner.name, inner_config)
            hit = segcache.get(key, gap_l, gap_r)
            if hit is not None:
                counter.bump(hit.counter.compares)
                counter.charge(hit.counter.charged)
                results[index] = hit
                if workers is not None:
                    workers.append("cache")
            else:
                still.append((index, key))
        pending = still

    def finish(index: int, key: "str | None", result: DiffResult,
               totals: tuple[int, int], worker: str) -> None:
        results[index] = result
        if segcache is not None and key is not None:
            gap_l, gap_r = gap_traces[index]
            segcache.put(key, result, gap_l, gap_r,
                         counter_totals=totals)
        if workers is not None:
            workers.append(worker)

    def run_inline(items: "list[tuple[int, str | None]]") -> None:
        for index, key in items:
            gap_l, gap_r = gap_traces[index]
            before = (counter.compares, counter.charged)
            result = _inner_gap_diff(inner, gap_l, gap_r,
                                     config=inner_config,
                                     counter=counter, budget=budget,
                                     key_table=table)
            totals = (counter.compares - before[0],
                      counter.charged - before[1])
            finish(index, key, result, totals, "inline")

    executor, owned = resolve_executor(executor)
    try:
        if budget is not None or executor.name == "serial" \
                or len(pending) <= 1:
            run_inline(pending)
        elif executor.in_process:
            def run_gap(item: tuple) -> tuple:
                index, key = item
                gap_l, gap_r = gap_traces[index]
                local = OpCounter()
                result = _inner_gap_diff(inner, gap_l, gap_r,
                                         config=inner_config,
                                         counter=local, budget=None,
                                         key_table=table)
                return (index, key, result,
                        (local.compares, local.charged),
                        f"thread:{threading.current_thread().name}")

            for index, key, result, totals, worker in \
                    executor.map(run_gap, pending):
                counter.bump(totals[0])
                counter.charge(totals[1])
                finish(index, key, result, totals, worker)
        else:
            chunks = chunk_evenly(pending,
                                  getattr(executor, "max_workers", 1))
            keys = dict(pending)
            job_chunks = []
            for chunk in chunks:
                jobs = []
                for index, _key in chunk:
                    gap = segmentation.gaps[index]
                    jobs.append((index, gap.left_lo, gap.left_hi,
                                 gap.right_lo, gap.right_hi))
                job_chunks.append(jobs)
            shipped: list[str] = []
            try:
                handles = (_ship_trace(left, shipped),
                           _ship_trace(right, shipped))
                payloads = [(handles[0], handles[1], inner.name,
                             inner_config, jobs) for jobs in job_chunks]
                try:
                    chunk_results = executor.map(run_segment_chunk_worker,
                                                 payloads)
                except TraceShippingError:
                    # A segment vanished under a worker — re-ship
                    # inline; identical gap results, wire cost.
                    handles = (_ship_trace(left, shipped, inline=True),
                               _ship_trace(right, shipped, inline=True))
                    payloads = [(handles[0], handles[1], inner.name,
                                 inner_config, jobs)
                                for jobs in job_chunks]
                    chunk_results = executor.map(run_segment_chunk_worker,
                                                 payloads)
                except KeyError:
                    # The worker could not resolve the inner engine by
                    # name (an engine registered only in this process,
                    # on a spawn-start platform where workers don't
                    # inherit the registry).  The gaps are still
                    # perfectly diffable here — fall back to inline
                    # execution rather than failing the diff.
                    chunk_results = None
                    run_inline(pending)
            finally:
                _release_shipped(shipped)
            if chunk_results is not None:
                for chunk_out in chunk_results:
                    for index, wire, worker in chunk_out:
                        gap_l, gap_r = gap_traces[index]
                        result = result_from_wire(wire, gap_l, gap_r)
                        counter.bump(result.counter.compares)
                        counter.charge(result.counter.charged)
                        finish(index, keys[index], result,
                               (result.counter.compares,
                                result.counter.charged), worker)
    finally:
        if owned:
            executor.close()

    return merge_segment_results(
        left, right, segmentation, results, counter=counter,
        algorithm=f"anchored:{getattr(inner, 'name', 'engine')}",
        seconds=time.perf_counter() - started,
        peak_cells=budget.peak_cells if budget is not None else 0)
