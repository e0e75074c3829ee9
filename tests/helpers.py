"""Shared fixtures/builders for the test suite: small hand-built traces
mirroring the paper's motivating example (Figs. 1, 2, 13)."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from repro.core.kernels import bitvector, scalar
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import prim


@contextmanager
def scalar_kernels():
    """Swap the bitvector kernel's ``lengths_row``, ``common_run`` and
    ``common_run_back`` for the scalar oracle loops, everywhere the
    library calls them.  Yields a dict of call counts per function, so
    a test can check the oracle really ran."""
    calls = {name: 0 for name in ("lengths_row", "common_run",
                                  "common_run_back")}

    def counted(name):
        oracle = getattr(scalar, name)

        def run(*args):
            calls[name] += 1
            return oracle(*args)
        return run

    with mock.patch.multiple(bitvector, **{name: counted(name)
                                           for name in calls}):
        yield calls


def myfaces_trace(min_range: int = 32, max_range: int = 127,
                  new_version: bool = False, name: str = "") -> Trace:
    """The Fig. 13 thread view: original when ``new_version`` is False,
    the regressing (refactored) version when True."""
    b = TraceBuilder(name=name)
    tid = b.main_tid
    log = b.record_init(tid, "Logger", (), serialization="LOG")
    sp = b.record_init(tid, "ServletProcessor", (),
                       serialization="SP")
    b.record_call(tid, log, "Logger.addMsg", (prim("Handling.."),))
    b.record_return(tid)
    b.record_call(tid, sp, "SP.setRequestType", (prim("text/html"),))
    b.record_call(tid, prim("text/html"), "Str.equals",
                  (prim("text/html"),))
    b.record_return(tid, prim(True))
    if new_version:
        binflt = b.record_init(tid, "BinaryCharFilter", (),
                               serialization="BINFLT")
        num = b.record_init(
            tid, "NumericEntityUtil", (prim(min_range), prim(max_range)),
            serialization=("NumericEntityUtil", (min_range, max_range)))
        b.record_set(tid, num, "_minCharRange", prim(min_range))
        b.record_set(tid, num, "_maxCharRange", prim(max_range))
        b.record_set(tid, binflt, "_binConv", num)
        b.record_call(tid, sp, "SP.addFilter", (binflt,))
        b.record_return(tid)
    else:
        num = b.record_init(
            tid, "NumericEntityUtil", (prim(min_range), prim(max_range)),
            serialization=("NumericEntityUtil", (min_range, max_range)))
        b.record_set(tid, num, "_minCharRange", prim(min_range))
        b.record_set(tid, num, "_maxCharRange", prim(max_range))
        b.record_set(tid, sp, "_binConv", num)
    b.record_call(tid, log, "Logger.addMsg", (prim("Set req.."),))
    b.record_return(tid)
    b.record_return(tid)  # setRequestType
    b.record_call(tid, num, "NumericEntityUtil.process", (prim("body"),))
    b.record_return(tid, prim("body"))
    b.record_end(tid)
    return b.build()


def simple_trace(values, name: str = "") -> Trace:
    """A flat trace of field sets over one object, one per value —
    convenient for LCS/differencing unit tests (the =e key tracks the
    value)."""
    b = TraceBuilder(name=name)
    tid = b.main_tid
    obj = b.record_init(tid, "Cell", (), serialization="cell")
    for value in values:
        b.record_set(tid, obj, "v", prim(value))
    b.record_end(tid)
    return b.build()


def two_thread_trace(main_values, worker_values, name: str = "") -> Trace:
    """A trace with a main thread and one forked worker."""
    b = TraceBuilder(name=name)
    tid = b.main_tid
    obj = b.record_init(tid, "Shared", (), serialization="shared")
    worker = b.record_fork(tid)
    for value in main_values:
        b.record_set(tid, obj, "m", prim(value))
    b.record_end(tid)
    for value in worker_values:
        b.record_set(worker, obj, "w", prim(value))
    b.record_end(worker)
    return b.build()


def forked_trace(name: str = "forked") -> Trace:
    """Two threads covering every event kind: a Fork and two Ends whose
    ancestry carries a stack frame, field reads and writes, calls with
    arguments, and nested-tuple serialisations — each payload shape a
    trace file has to round-trip."""
    b = TraceBuilder(name=name)
    tid = b.main_tid
    pair = b.record_init(tid, "Pair", (prim(1), prim("x")),
                         serialization=("Pair", (1, ("x", 2.5))))
    b.record_call(tid, pair, "Pair.start", (prim("go"),))
    worker = b.record_fork(tid)
    b.record_set(tid, pair, "left", prim(3))
    b.record_return(tid)
    b.record_get(worker, pair, "left", prim(3))
    b.record_call(worker, pair, "Pair.swap", (pair, prim(None)))
    b.record_return(worker, pair)
    b.record_end(worker)
    b.record_end(tid)
    return b.build()


def write_flat_store(root, traces: dict, tags: dict | None = None) -> Path:
    """A store directory as versions up to 2.0.0 could leave it (the
    flat layout, which this version refuses): one trace file per key
    and a ``store.json`` tag index, all at the root.  ``traces`` maps
    key -> trace, ``tags`` key -> tags."""
    from repro.analysis.serialize import save_trace
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    index = {}
    for key, trace in traces.items():
        name = key.replace("/", "__") + ".jsonl"
        save_trace(trace, root / name, extra_metadata={
            "store_key": key, "digest": trace.content_digest()})
        index[key] = {"file": name,
                      "tags": sorted((tags or {}).get(key, ()))}
    (root / "store.json").write_text(
        json.dumps({"version": 1, "traces": index}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
    return root
