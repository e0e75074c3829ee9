"""Diff-kernel throughput: bit-parallel rows vs. the scalar loop.

The ``=e`` keys are dense interned id columns — exactly the layout
word-packed bitvector LCS (Myers/Hyyrö) wants.  This bench measures,
on the 10k-entry synthetic regression pair from
:mod:`bench_interning`:

* **LCS length-throughput** (DP cells per second) of the bitvector
  kernel's ``lengths_row`` against the reference scalar loop.  The
  scalar baseline is timed on a truncated slice (a full 10k x 10k
  pure-Python row fill takes minutes) and its cells/sec extrapolated;
  the bitvector kernel runs the full columns.
* **Bit-identity**: the bitvector row equals the scalar row on a
  shared slice.
* **End-to-end**: ``lcs_diff`` wall-clock for the ``optimized``
  baseline vs. ``algorithm="hirschberg"`` on the full trace pair.

One JSON document lands in ``results/kernels.json`` (the CI
``kernel-smoke`` job uploads it; ``benchmarks/check_budgets.py``
guards its key ratios against the committed baseline).

Environment knobs (the CI smoke legs shrink nothing here — the job
runs full-size — but local iteration can):

* ``BENCH_KERNEL_ENTRIES`` — synthetic pair size in ops (default
  13400, ~10k entries per side, matching ``bench_interning``).
* ``BENCH_KERNEL_SCALAR_N`` — scalar-baseline slice length per side
  (default 1500).
* ``BENCH_KERNEL_REPEATS`` — timing repeats per measurement.

The >=10x throughput assertion only applies at full size (tiny smoke
sizes are all fixed overhead); identity assertions always run.
"""

from __future__ import annotations

import json
import os
import platform
import time

from bench_interning import synthetic_pair
from conftest import write_result

from repro.core.keytable import KeyTable
from repro.core.kernels import bitvector
from repro.core.kernels import scalar as scalar_kernel
from repro.core.lcs import OpCounter
from repro.core.lcs_diff import lcs_diff

ENTRIES = int(os.environ.get("BENCH_KERNEL_ENTRIES", "13400"))
SCALAR_N = int(os.environ.get("BENCH_KERNEL_SCALAR_N", "1500"))
REPEATS = int(os.environ.get("BENCH_KERNEL_REPEATS", "3"))

#: The acceptance assertion only fires at full scale.
ASSERT_MIN_ENTRIES = 8_000


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_kernel_throughput_and_identity():
    table = KeyTable()
    left, right = synthetic_pair(ENTRIES, table)
    keys_l = table.ids_for(left).tolist()
    keys_r = table.ids_for(right).tolist()
    n, m = len(keys_l), len(keys_r)
    full_size = (n + m) >= ASSERT_MIN_ENTRIES

    # --- scalar baseline: truncated slice, cells/sec extrapolated ----
    sn = min(SCALAR_N, n)
    sm = min(SCALAR_N, m)
    slice_l, slice_r = keys_l[:sn], keys_r[:sm]
    scalar_seconds = _best_seconds(
        lambda: scalar_kernel.lengths_row(slice_l, slice_r))
    scalar_cps = (sn * sm) / scalar_seconds
    scalar_row = scalar_kernel.lengths_row(slice_l, slice_r)

    rows = [{
        "backend": "scalar",
        "cells": sn * sm,
        "seconds": round(scalar_seconds, 6),
        "cells_per_sec": round(scalar_cps),
        "speedup_vs_scalar": 1.0,
    }]
    # Bit-identity on the scalar slice first.
    assert bitvector.lengths_row(slice_l, slice_r) == scalar_row
    seconds = _best_seconds(lambda: bitvector.lengths_row(keys_l, keys_r))
    cps = (n * m) / seconds
    # Keyed ``stdlib``, the bitvector kernel's name in the committed
    # results/kernels.json baseline that check_budgets.py compares to.
    row_speedup = cps / scalar_cps
    rows.append({
        "backend": "stdlib",
        "cells": n * m,
        "seconds": round(seconds, 6),
        "cells_per_sec": round(cps),
        "speedup_vs_scalar": round(row_speedup, 2),
    })

    # --- end-to-end: optimized baseline vs. hirschberg ---------------
    end_to_end = []
    results = {}
    for algorithm in ("optimized", "hirschberg"):
        counter = OpCounter()
        results[algorithm] = lcs_diff(left, right, algorithm=algorithm,
                                      counter=counter, key_table=table)
        seconds = _best_seconds(
            lambda: lcs_diff(left, right, algorithm=algorithm,
                             counter=OpCounter(), key_table=table))
        end_to_end.append({
            "algorithm": algorithm,
            "entries": n + m,
            "seconds": round(seconds, 6),
            "compares": counter.compares,
            "charged": counter.charged,
            "num_matches": len(results[algorithm].match_pairs),
        })
    # Different algorithms may pick different (equally long) LCSs, but
    # the match *count* is the LCS length — it must agree.
    assert (end_to_end[0]["num_matches"] == end_to_end[1]["num_matches"])
    diff_speedup = end_to_end[0]["seconds"] / max(end_to_end[1]["seconds"],
                                                  1e-9)

    document = {
        "bench": "kernels",
        "entries": n + m,
        "python": platform.python_version(),
        "lengths_row": rows,
        "end_to_end": end_to_end,
        "ratios": {
            "row_speedup": {"stdlib": round(row_speedup, 2)},
            "diff_speedup_hirschberg_vs_optimized": round(diff_speedup, 2),
        },
    }
    write_result("kernels.json",
                 json.dumps(document, indent=1, sort_keys=True))

    # Acceptance bar: >=10x LCS length-throughput over the scalar
    # per-cell loop (the `optimized` baseline's inner row fill) on the
    # full-size 10k-entry interned workload.
    if full_size:
        assert row_speedup >= 10.0, row_speedup
