"""Per-worker-process state for the warm execution substrate.

A warm :class:`~repro.exec.executors.ProcessExecutor` keeps its workers
alive across batches, which makes *worker-resident caches* worth
having.  Each worker process owns exactly one :class:`WorkerState`
(module-level, materialised on first use after the fork/spawn):

* ``key_table`` — the worker's ingest-time ``=e`` symbol table, reused
  across every capture the worker runs, so a repeated scenario interns
  into a warm dict instead of rebuilding a table per task;
* ``trace_cache`` — decoded traces memoised by content digest.  Diff
  chunks ship traces as shared-memory handles; a worker that has
  already decoded a digest never attaches (let alone re-parses) the
  segment again — a trace crosses the process boundary *at most once
  per worker*;
* ``wire_cache`` — the mirror memo for wire *bytes* a worker itself
  produced (capture leases re-shipping an identical trace skip the
  re-encode; bytes are produced exactly once, never re-encoded from
  text per send);
* counters — captures and diff jobs run, cache hits, shared-memory
  bytes read — which ride back to the parent in lease results and feed
  the executor's ``stats()`` (and from there the service's
  ``/v1/stats`` workers row).

Everything here also works in the parent process (the serial fallback
paths call the same resolve helpers); state is keyed by pid, so a
forked worker that inherited the parent's module state lazily replaces
it with its own on first touch.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.core.keytable import KeyTable
from repro.exec.shm import TraceShippingError, adopt_segment_view

__all__ = ["WorkerState", "resolve_trace_handle", "resolve_wire_payload",
           "worker_state"]

#: Decoded traces kept per worker (digests evict LRU past this).
TRACE_CACHE_CAPACITY = 16

#: Worker key tables are reset past this many distinct keys (a bound on
#: long-lived warm workers ingesting many unrelated scenarios).
KEY_TABLE_CAPACITY = 250_000


class WorkerState:
    """One worker process's caches and counters (see module doc)."""

    def __init__(self):
        self.pid = os.getpid()
        self.key_table = KeyTable()
        self.trace_cache: "OrderedDict[str, object]" = OrderedDict()
        self.wire_cache: "OrderedDict[str, bytes]" = OrderedDict()
        self.captures = 0
        self.diff_jobs = 0
        self.cache_hits = 0
        self.shm_bytes_in = 0

    # -- caches --------------------------------------------------------------

    def ingest_table(self) -> KeyTable:
        """The worker's capture-time key table (reset when it outgrows
        :data:`KEY_TABLE_CAPACITY` — correctness is unaffected, the
        wire format re-expresses columns file-locally anyway)."""
        if len(self.key_table) > KEY_TABLE_CAPACITY:
            self.key_table = KeyTable()
        return self.key_table

    def cached_trace(self, digest: str):
        trace = self.trace_cache.get(digest)
        if trace is not None:
            self.trace_cache.move_to_end(digest)
            self.cache_hits += 1
        return trace

    def remember_trace(self, digest: str, trace) -> None:
        self.trace_cache[digest] = trace
        self.trace_cache.move_to_end(digest)
        while len(self.trace_cache) > TRACE_CACHE_CAPACITY:
            self.trace_cache.popitem(last=False)

    def remember_wire(self, digest: str, payload: bytes) -> None:
        self.wire_cache[digest] = payload
        self.wire_cache.move_to_end(digest)
        while len(self.wire_cache) > TRACE_CACHE_CAPACITY:
            self.wire_cache.popitem(last=False)

    def cached_wire(self, digest: str) -> "bytes | None":
        payload = self.wire_cache.get(digest)
        if payload is not None:
            self.wire_cache.move_to_end(digest)
        return payload

    def counters(self) -> dict:
        return {"pid": self.pid, "captures": self.captures,
                "diff_jobs": self.diff_jobs,
                "cache_hits": self.cache_hits,
                "shm_bytes_in": self.shm_bytes_in}


_state: WorkerState | None = None


def worker_state() -> WorkerState:
    """This process's :class:`WorkerState` (fork-safe: a child that
    inherited the parent's builds its own on first touch)."""
    global _state
    if _state is None or _state.pid != os.getpid():
        _state = WorkerState()
    return _state


def _inline_payload(handle: dict) -> "bytes | str":
    """The inline handle's payload — ``data`` bytes (current wire) or
    legacy ``text`` (older parents mid-rolling-restart)."""
    data = handle.get("data")
    if data is not None:
        return data
    return handle["text"]


def resolve_wire_payload(handle: dict, state: "WorkerState | None" = None
                         ) -> "tuple[bytes | str | memoryview, object]":
    """A ship handle -> ``(wire payload, keepalive)``.

    ``inline`` handles carry the payload itself (``keepalive`` None);
    ``shm`` handles are attached read-only (the producer's registry
    owns the unlink) and returned as a **zero-copy** ``memoryview``
    over the mapped buffer, pinned by the keepalive — pass both to
    ``loads_trace`` and a binary v3 trace decodes in place, never
    copying the segment.  Raises
    :class:`~repro.exec.shm.TraceShippingError` when a segment has
    vanished — callers fall back to inline re-ships.
    """
    kind = handle.get("kind", "inline")
    if kind == "inline":
        return _inline_payload(handle), None
    if kind != "shm":
        raise TraceShippingError(f"unknown ship handle kind {kind!r}")
    view, keepalive = adopt_segment_view(handle["name"], handle["len"],
                                         unlink=False)
    if state is not None:
        state.shm_bytes_in += len(view)
    return view, keepalive


def resolve_trace_handle(handle: dict):
    """A ship handle -> a decoded :class:`~repro.core.traces.Trace`,
    memoised per worker by content digest (the at-most-once-per-worker
    guarantee).  Shared-memory v3 payloads decode lazily straight off
    the mapped segment; the memo then pins the mapping for the warm
    worker's cache lifetime."""
    from repro.analysis.serialize import loads_trace

    state = worker_state()
    digest = handle.get("digest")
    if digest:
        trace = state.cached_trace(digest)
        if trace is not None:
            return trace
    payload, keepalive = resolve_wire_payload(handle, state)
    trace = loads_trace(payload, keepalive=keepalive)
    if digest:
        state.remember_trace(digest, trace)
    return trace
