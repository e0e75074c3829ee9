"""Optional numpy kernels (auto-detected; never a hard dependency).

``lengths_row`` vectorizes the row-batch LCS DP with the prefix-max
identity: with ``prev`` the previous length row and ``eq`` the 0/1
match vector of row ``i``,

    curr[j] = max(prev[j], max_{k <= j}(prev[k-1] + eq[k]))

which follows from unrolling ``curr[j] = max(prev[j], curr[j-1],
prev[j-1] + eq[j])`` using the monotonicity of LCS rows — so one
``maximum.accumulate`` per row replaces the inner Python loop, and the
produced rows are value-identical to the scalar DP's.

The kernel requires integer keys (the interned id columns); tuple
keys and small inputs fall back to the pure-stdlib kernels, so
results never depend on which path ran.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import bitvector

#: Below this many DP cells the conversion overhead dominates.
_ROW_CUTOFF = 4096


def _int_keys(keys: list) -> bool:
    return not keys or type(keys[0]) is int


def lengths_row(a_keys: list, b_keys: list) -> list[int]:
    """Final LCS length-table row, vectorized per row."""
    n, m = len(a_keys), len(b_keys)
    if n == 0 or m == 0:
        return [0] * (m + 1)
    if n * m < _ROW_CUTOFF or not _int_keys(a_keys) \
            or not _int_keys(b_keys):
        return bitvector.lengths_row(a_keys, b_keys)
    a_arr = np.asarray(a_keys, dtype=np.int64)
    b_arr = np.asarray(b_keys, dtype=np.int64)
    prev = np.zeros(m + 1, dtype=np.int32)
    tmp = np.empty(m, dtype=np.int32)
    for ai in a_arr:
        np.add(prev[:-1], b_arr == ai, out=tmp, casting="unsafe")
        np.maximum.accumulate(tmp, out=tmp)
        np.maximum(prev[1:], tmp, out=prev[1:])
    return prev.tolist()
