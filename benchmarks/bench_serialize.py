"""Wire-format throughput: binary v3 lazy decode vs the v2 text baseline.

The serialisation layer is the boundary-crossing cost every capture,
service upload, and store read pays.  This bench times the one format
the library writes against the legacy text format it replaced, over
the same traces:

* **v2** — JSON lines with an interned ``=e`` key table prologue.  The
  library only *reads* it now; :func:`v2_text_baseline` below is the
  text encoder kept here as the labelled measurement baseline, and the
  library's legacy reader decodes its output;
* **v3** — the binary columnar frame: packed key table, fixed-layout
  entry rows, side JSON only for rare rich payloads.  Decode is
  **lazy**: ``loads_trace`` returns in O(header + key table) and
  entries materialise on demand straight off the input buffer.

Two decode modes are timed for v3:

* ``lazy`` — ``loads_trace`` plus the columnar touches a diff actually
  makes before building entry objects (length, thread ids).  This is
  the cost a worker pays to adopt a shipped trace.
* ``eager`` — the same, then a full walk materialising every entry:
  the worst case, comparable to what v2 always pays.

Traces: a synthetic multi-thread trace (``BENCH_SERIALIZE_ENTRIES``
entries, default 10000) plus real captured pairs from the minijs and
minidb workloads.  Identity is asserted everywhere — equal entries,
equal content digests across both formats, and equal diff result
signatures whichever format the pair travelled through.

One JSON document lands in ``results/serialize.json`` (uploaded as a
CI artifact; ``check_budgets.py`` guards its ratios).  Acceptance at
full size: v3 lazy decode ≥ 3x v2 loads, and v3 ≥ 2x smaller on the
wire.
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_result

from repro.analysis.serialize import (_ancestry_to_json, _local_key_column,
                                      _plain, _rep_to_json,
                                      dumps_trace_bytes, loads_trace)
from repro.core.lcs import OpCounter
from repro.core.traces import TraceBuilder
from repro.core.values import prim
from repro.core.view_diff import view_diff

ENTRIES = int(os.environ.get("BENCH_SERIALIZE_ENTRIES", "10000"))

#: Acceptance bars fire only at full size (small CI smokes are noisy).
ASSERT_MIN_ENTRIES = 8000
LAZY_MIN_SPEEDUP = 3.0
BYTES_MIN_RATIO = 2.0

#: Timing repeats (min-of): decode is fast, so single runs are noisy.
REPEATS = 5


def synthetic_trace(entries: int) -> "Trace":
    """A multi-thread trace with the full event mix (init, forks,
    sets/calls/returns over a modest value alphabet, ends) — shaped
    like a captured workload, sized by ``entries``."""
    builder = TraceBuilder(name="synthetic")
    main = builder.main_tid
    obj = builder.record_init(main, "Widget", (), serialization="widget")
    tids = [main] + [builder.record_fork(main) for _ in range(3)]
    op = 0
    while len(builder) < entries - len(tids):
        tid = tids[op % len(tids)]
        builder.record_set(tid, obj, f"f{op % 17}", prim(op % 251))
        builder.record_call(tid, obj, "Widget.spin", (prim(op % 97),))
        builder.record_return(tid, prim(op % 97))
        op += 1
    for tid in tids:
        builder.record_end(tid)
    return builder.build()


def minijs_pair():
    from repro.workloads.minijs.bug_registry import MINIJS_BUGS
    from repro.workloads.minijs.scenario import trace_pair
    return trace_pair(MINIJS_BUGS.get("CF-NOT-IF"), scale=8)


def minidb_pair():
    from repro.workloads.harness import SCENARIOS, capture_scenario_trace
    spec = SCENARIOS["Derby-1633"]
    return (capture_scenario_trace(spec, spec.run_old,
                                   spec.regressing_input, "old/regressing"),
            capture_scenario_trace(spec, spec.run_new,
                                   spec.regressing_input, "new/regressing"))


def _timed(op, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - started)
    return best


def _eager(trace) -> None:
    for _entry in trace.entries:
        pass


def _decode_lazy(blob) -> None:
    trace = loads_trace(blob)
    len(trace)
    trace.thread_ids()


def _decode_eager(blob) -> None:
    _eager(loads_trace(blob))


def _diff_signature(result) -> tuple:
    return (sorted(result.similar_left), sorted(result.similar_right),
            result.match_pairs, result.counter.compares)


def _event_row(event) -> dict:
    """One event as a v2 row's ``e`` object."""
    kind = event.kind
    if kind in ("get", "set"):
        return {"k": kind, "o": _rep_to_json(event.obj), "f": event.field,
                "v": _rep_to_json(event.value)}
    if kind == "call":
        return {"k": kind, "o": _rep_to_json(event.obj), "m": event.method,
                "a": [_rep_to_json(a) for a in event.args]}
    if kind == "return":
        return {"k": kind, "o": _rep_to_json(event.obj),
                "m": event.method, "v": _rep_to_json(event.value)}
    if kind == "init":
        return {"k": kind, "c": event.class_name,
                "a": [_rep_to_json(a) for a in event.args],
                "o": _rep_to_json(event.obj)}
    tid = event.child_tid if kind == "fork" else event.tid
    return {"k": kind, "tid": tid, "s": _ancestry_to_json(event.ancestry)}


def v2_text_baseline(trace) -> bytes:
    """The trace as legacy v2 text (header line, one line per key-table
    key, one row per entry) — the baseline the v3 ratios are measured
    against, byte-for-byte what the library's v2 writer emitted."""
    local_keys, column = _local_key_column(trace)
    header = {"format": 2, "name": trace.name, "entries": len(trace),
              "keys": len(local_keys), "metadata": dict(trace.metadata)}
    lines = [json.dumps(header)]
    lines.extend(json.dumps({"key": _plain(key)}) for key in local_keys)
    lines.extend(
        json.dumps({"eid": entry.eid, "tid": entry.tid, "m": entry.method,
                    "rho": _rep_to_json(entry.active),
                    "e": _event_row(entry.event), "kid": kid})
        for entry, kid in zip(trace.entries, column))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _measure(trace) -> dict:
    """Dumps/loads timings and wire bytes for one trace, both formats."""
    blobs = {2: v2_text_baseline(trace), 3: dumps_trace_bytes(trace)}
    formats = {
        "2": {
            "bytes": len(blobs[2]),
            "dumps_seconds": round(_timed(
                lambda: v2_text_baseline(trace)), 5),
            "loads_seconds": round(_timed(
                lambda: _decode_eager(blobs[2])), 5),
        },
        "3": {
            "bytes": len(blobs[3]),
            "dumps_seconds": round(_timed(
                lambda: dumps_trace_bytes(trace)), 5),
            "loads_lazy_seconds": round(_timed(
                lambda: _decode_lazy(blobs[3])), 5),
            "loads_eager_seconds": round(_timed(
                lambda: _decode_eager(blobs[3])), 5),
        },
    }

    # Bit-identity: the same trace must come back from both formats —
    # equal entries and one content digest, lazy or eager.
    reference = loads_trace(blobs[2])
    lazy = loads_trace(blobs[3])
    assert list(reference.entries) == list(trace.entries)
    assert list(lazy.entries) == list(reference.entries)
    assert (reference.content_digest()
            == lazy.content_digest()
            == trace.content_digest())

    v2_loads = formats["2"]["loads_seconds"]
    return {
        "entries": len(trace),
        "formats": formats,
        "speedups": {
            "lazy": round(v2_loads / max(
                formats["3"]["loads_lazy_seconds"], 1e-9), 3),
            "eager": round(v2_loads / max(
                formats["3"]["loads_eager_seconds"], 1e-9), 3),
        },
        "bytes_ratio": round(
            len(blobs[2]) / max(len(blobs[3]), 1), 3),
    }


def _assert_pair_identity(left, right) -> None:
    """A diff over a v3-shipped pair must equal the v2-shipped diff."""
    via_v2 = tuple(loads_trace(v2_text_baseline(t)) for t in (left, right))
    via_v3 = tuple(loads_trace(dumps_trace_bytes(t)) for t in (left, right))
    reference = view_diff(left, right, counter=OpCounter())
    for pair in (via_v2, via_v3):
        result = view_diff(*pair, counter=OpCounter())
        assert _diff_signature(result) == _diff_signature(reference)


def test_binary_v3_beats_text_decode():
    workloads = {"synthetic": _measure(synthetic_trace(ENTRIES))}

    js_left, js_right = minijs_pair()
    workloads["minijs"] = _measure(js_left)
    _assert_pair_identity(js_left, js_right)

    db_left, db_right = minidb_pair()
    workloads["minidb"] = _measure(db_left)
    _assert_pair_identity(db_left, db_right)

    synthetic = workloads["synthetic"]
    document = {
        "bench": "serialize",
        "entries": ENTRIES,
        "workloads": workloads,
        # Top-level ratios (the synthetic trace at the requested size)
        # are what check_budgets.py guards.
        "speedups": dict(synthetic["speedups"]),
        "bytes_ratio": synthetic["bytes_ratio"],
    }
    write_result("serialize.json", json.dumps(document, indent=1,
                                              sort_keys=True))

    # Acceptance bars (full size only): lazy v3 decode ≥3x the v2 text
    # parse, and ≥2x fewer bytes on the wire.
    if ENTRIES >= ASSERT_MIN_ENTRIES:
        assert synthetic["speedups"]["lazy"] >= LAZY_MIN_SPEEDUP, \
            synthetic["speedups"]
        assert synthetic["bytes_ratio"] >= BYTES_MIN_RATIO, \
            synthetic["bytes_ratio"]
