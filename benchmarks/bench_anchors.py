"""Anchored segmental diffing: compare-count reduction on large
near-identical trace pairs.

The motivating numbers for :mod:`repro.core.anchors`: a pair of long,
mostly-identical traces (the paper's whole premise) with a handful of
scattered divergences is diffed

* **unanchored** — the inner engine walks the whole pair (for the LCS
  baseline, one huge trimmed middle region; for views, one ``=e``
  compare per matched entry), and
* **anchored** — the ``anchored:*`` meta-engine splits the pair along
  patience-style ``=e`` anchor runs and only the tiny gaps are
  actually diffed.

Anchored results are asserted bit-identical
(:func:`~repro.core.diffs.result_identity`) to their inner engines
before any cost claim, for ``anchored:views`` and ``anchored:optimized``
alike; at full size the bench asserts **>=3x fewer key comparisons**
for both.

One JSON document lands in ``results/anchors.json`` (uploaded by the
CI ``anchor-smoke`` job).  Environment knobs:

* ``BENCH_ANCHOR_ENTRIES`` — entries per trace (default 40000).
* ``BENCH_ANCHOR_EDITS`` — scattered divergences (default 8).

The >=3x acceptance assertions fire only at full size
(>= 10000 entries); identity assertions always run.
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_result

from repro.api import get_engine
from repro.core.diffs import result_identity
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import prim

ENTRIES = int(os.environ.get("BENCH_ANCHOR_ENTRIES", "40000"))
EDITS = int(os.environ.get("BENCH_ANCHOR_EDITS", "8"))

#: The acceptance assertions only fire at full scale.
ASSERT_MIN_ENTRIES = 10_000
ASSERT_REDUCTION = 3.0


def build_trace(entries: int, edits: tuple[int, ...],
                name: str) -> Trace:
    """A long single-threaded trace of distinct-argument calls (the
    shape real captures have: most ``=e`` keys unique), with a small
    divergent neighbourhood around each edit position.
    """
    builder = TraceBuilder(name=name)
    tid = builder.main_tid
    service = builder.record_init(tid, "Service", (),
                                  serialization="svc")
    edited = set(edits)
    for step in range(entries):
        if step in edited:
            # A *replacement* (the regression mangles this request):
            # the gap is two-sided, so the segmental driver has a real
            # sub-diff to run.
            builder.record_call(tid, service, "Service.mangle",
                                (prim(-step),))
            builder.record_return(tid, prim(-step))
        else:
            builder.record_call(tid, service, "Service.handle",
                                (prim(step),))
            builder.record_return(tid, prim(step * 2))
    builder.record_end(tid)
    return builder.build()


def edit_positions(entries: int, edits: int) -> tuple[int, ...]:
    if edits <= 0:
        return ()
    stride = max(1, entries // (edits + 1))
    return tuple(stride * (k + 1) for k in range(edits))


def timed_diff(engine_name: str, left: Trace, right: Trace,
               **kwargs) -> tuple:
    engine = get_engine(engine_name)
    started = time.perf_counter()
    result = engine.diff(left, right, **kwargs)
    return result, time.perf_counter() - started


def test_anchored_engines_cut_key_comparisons():
    left = build_trace(ENTRIES, (), name="baseline")
    right = build_trace(ENTRIES, edit_positions(ENTRIES, EDITS),
                        name="edited")
    full_size = ENTRIES >= ASSERT_MIN_ENTRIES
    document: dict = {
        "bench": "anchors",
        "entries": ENTRIES,
        "edits": EDITS,
        "rows": [],
    }

    # -- compare-count reduction, per engine family ---------------------
    reductions = {}
    for inner_name in ("views", "optimized"):
        inner, inner_seconds = timed_diff(inner_name, left, right)
        anchored, anchored_seconds = timed_diff(
            f"anchored:{inner_name}", left, right)
        assert result_identity(anchored) == result_identity(inner), \
            inner_name
        assert anchored.num_diffs() > 0  # the edits are really seen
        reduction = inner.counter.total / max(anchored.counter.total, 1)
        reductions[inner_name] = reduction
        document["rows"].append({
            "row": f"reduction:{inner_name}",
            "inner_compares": inner.counter.total,
            "anchored_compares": anchored.counter.total,
            "reduction": round(reduction, 2),
            "inner_seconds": round(inner_seconds, 4),
            "anchored_seconds": round(anchored_seconds, 4),
        })

    document["assertions_enforced"] = full_size
    write_result("anchors.json",
                 json.dumps(document, indent=1, sort_keys=True))

    if full_size:
        for inner_name, reduction in reductions.items():
            assert reduction >= ASSERT_REDUCTION, (inner_name, document)
