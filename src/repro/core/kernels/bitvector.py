"""Pure-stdlib kernels: bit-parallel LCS rows and chunked scans.

``lengths_row`` is the Hyyrö-style bit-parallel LCS recurrence (the
"bit-parallel Myers" family): one side is packed into per-symbol match
masks over a Python big int (arbitrary width, ~64 DP cells per machine
word per operation), and each symbol of the other side advances the
whole column state with a handful of word-parallel operations::

    u = v & match[c]
    v = ((v + u) | (v - u)) & mask        # v - u == v ^ u, since u ⊆ v
    LCS(a, b[:j]) = len(a) - popcount(v)  # after j update steps

``v`` holds one bit per position of ``a``; a *zero* bit marks a
position consumed by the common subsequence, so the popcount of ``v``
falls by one exactly when the LCS grows.  The per-prefix lengths this
produces are identical to the scalar row DP's, which is what lets the
Hirschberg alignment run on these rows and reproduce its splits — and
therefore its matched pairs — exactly.

:func:`bit_rows` keeps every row of the same recurrence (with the
roles of the two sides swapped): row ``i`` is the bitmask of the
columns where ``LCS(a[:i], b[:j])`` steps up, so any table cell is a
prefix popcount and :func:`repro.core.lcs.lcs_dp` traces back through
the rows without a table of boxed ints.

``common_run`` / ``common_run_back`` replace per-item equality loops
with chunked list-slice comparisons (C ``memcmp``-like speed); the
first unequal chunk is rescanned item-wise so the returned stop
position is exactly the scalar loop's.

All functions are pure: compare counting stays with the caller.
"""

from __future__ import annotations

from repro.core.kernels import scalar

#: Items compared per slice in the chunked equality scans.  Large
#: enough to amortise the slicing overhead, small enough that the
#: item-wise rescan of the final (unequal) chunk stays negligible.
SCAN_CHUNK = 256

#: Below this run bound the scalar loop wins (no slices allocated).
_SCAN_CUTOFF = 16

#: Below this many DP cells the scalar row loop wins (no packing).
_ROW_CUTOFF = 256


def _states(packed: list, scanned: list):
    """The recurrence itself: pack ``packed`` into per-symbol match
    masks and yield ``v`` after each symbol of ``scanned``."""
    match: dict = {}
    bit = 1
    for key in packed:
        match[key] = match.get(key, 0) | bit
        bit <<= 1
    mask = bit - 1
    v = mask
    get = match.get
    for key in scanned:
        u = v & get(key, 0)
        v = ((v + u) | (v - u)) & mask
        yield v


def lengths_row(a_keys: list, b_keys: list) -> list[int]:
    """Final LCS length-table row via the bit-parallel recurrence:
    ``row[j] == LCS(a_keys, b_keys[:j])``."""
    n, m = len(a_keys), len(b_keys)
    if n == 0 or m == 0:
        return [0] * (m + 1)
    if n * m < _ROW_CUTOFF:
        return scalar.lengths_row(a_keys, b_keys)
    row = [0]
    row.extend(n - v.bit_count() for v in _states(a_keys, b_keys))
    return row


def bit_rows(a_keys: list, b_keys: list) -> list[int]:
    """Every row of the LCS length table, one int per row.

    ``rows[i]`` has bit ``j`` set exactly where
    ``table[i][j + 1] > table[i][j]`` (``table[i][j]`` being
    ``LCS(a_keys[:i], b_keys[:j])``), so a table cell is a prefix
    popcount: ``table[i][j] == (rows[i] & ((1 << j) - 1)).bit_count()``.
    The same recurrence as :func:`lengths_row` with the roles swapped:
    ``b`` is packed and each symbol of ``a`` advances one row.
    """
    mask = (1 << len(b_keys)) - 1
    rows = [0]
    rows.extend(mask ^ v for v in _states(b_keys, a_keys))
    return rows


def common_run(a_keys: list, b_keys: list, i: int, j: int,
               limit: int) -> int:
    """Chunked forward equality scan; stop position identical to the
    scalar loop's."""
    if limit < _SCAN_CUTOFF:
        return scalar.common_run(a_keys, b_keys, i, j, limit)
    t = 0
    while t < limit:
        span = limit - t
        if span > SCAN_CHUNK:
            span = SCAN_CHUNK
        if a_keys[i + t:i + t + span] == b_keys[j + t:j + t + span]:
            t += span
            continue
        end = t + span
        while t < end:
            if a_keys[i + t] != b_keys[j + t]:
                return t
            t += 1
    return t


def common_run_back(a_keys: list, b_keys: list, i: int, j: int,
                    limit: int) -> int:
    """Chunked backward equality scan (``a[i-1-t] == b[j-1-t]``)."""
    if limit < _SCAN_CUTOFF:
        return scalar.common_run_back(a_keys, b_keys, i, j, limit)
    t = 0
    while t < limit:
        span = limit - t
        if span > SCAN_CHUNK:
            span = SCAN_CHUNK
        if a_keys[i - t - span:i - t] == b_keys[j - t - span:j - t]:
            t += span
            continue
        end = t + span
        while t < end:
            if a_keys[i - 1 - t] != b_keys[j - 1 - t]:
                return t
            t += 1
    return t
