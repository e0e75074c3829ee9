"""Longest-common-subsequence algorithms (the paper's baseline machinery).

The LCS-based differencing semantics of Fig. 11 and the windowed-LCS step
of LinkedSimilarEntries (Fig. 12) both reduce to LCS computations over
sequences of trace entries compared with the event-equality predicate
``=e``.  This module provides:

* :func:`lcs_dp` — the textbook Theta(nm) dynamic program with full
  traceback (the paper's baseline, including its memory appetite),
  held as bit rows.
* :func:`lcs_hirschberg` — Hirschberg's linear-space divide and conquer
  [CACM 1975], cited by the paper as "roughly twice the computation time".
* :func:`myers_lcs_length` — Myers' O((n+m)D) greedy forward search,
  returning the exact LCS *length* cheaply when the inputs are similar.
* :func:`trim_common` — the common-prefix/suffix optimisation the paper's
  "optimized LCS" baseline applies before the quadratic core.
* :func:`lcs_fast` — anchored recursive differ: exact DP on small cores,
  unique-anchor (patience) splitting on large ones.  Exact whenever the
  DP core is reached; an LCS-style approximation otherwise.
* :func:`lcs_optimized` — the baseline configuration used by the benches:
  trim + DP, with a cell *budget* reproducing the paper's out-of-memory
  failure and DP-equivalent compare *charging* when the fast path stands
  in for the quadratic core.
* :func:`lcs_bitparallel` — the name the ``"bitparallel"`` algorithm
  exports; it is :func:`lcs_hirschberg` itself.

The inner loops run on the bit-parallel kernel
(:mod:`repro.core.kernels.bitvector`): Hirschberg's length rows advance
~a word's worth of DP cells per operation, and the prefix/suffix scans
compare list slices.  Kernels are pure — counters are credited in bulk
with exactly what the scalar loops would have counted.

All functions operate on arbitrary sequences plus a ``key`` function; trace
entries pass ``TraceEntry.key`` so that equality is ``=e``.

``OpCounter`` counts entry compare operations — the paper's speedup metric
("the number of trace entry compare operations performed during the LCS
comparison divided by the number ... with RPRISM").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.kernels import bitvector


class LcsMemoryError(MemoryError):
    """Raised when an LCS computation would exceed its cell budget
    (models the paper's out-of-memory failure at 32 GB)."""

    def __init__(self, needed_cells: int, budget_cells: int):
        super().__init__(
            f"LCS table needs {needed_cells} cells, budget is {budget_cells}")
        self.needed_cells = needed_cells
        self.budget_cells = budget_cells


@dataclass(slots=True)
class OpCounter:
    """Counts element compare operations (the paper's cost metric)."""

    compares: int = 0
    #: Extra charge registered for compares that the modelled algorithm
    #: *would* perform (used when the fast differ stands in for the
    #: quadratic DP baseline; see :func:`lcs_optimized`).
    charged: int = 0

    def bump(self, amount: int = 1) -> None:
        self.compares += amount

    def charge(self, amount: int) -> None:
        self.charged += amount

    @property
    def total(self) -> int:
        return self.compares + self.charged

    def reset(self) -> None:
        self.compares = 0
        self.charged = 0


@dataclass(slots=True)
class MemoryBudget:
    """A budget on DP table cells, plus a high-water mark for reporting."""

    max_cells: int | None = None
    peak_cells: int = 0

    def request(self, cells: int) -> None:
        if self.max_cells is not None and cells > self.max_cells:
            raise LcsMemoryError(cells, self.max_cells)
        if cells > self.peak_cells:
            self.peak_cells = cells

    def peak_bytes(self, bytes_per_cell: int = 4) -> int:
        return self.peak_cells * bytes_per_cell


@dataclass(slots=True)
class LcsResult:
    """An LCS as a list of (left index, right index) matched pairs, in
    increasing order on both sides."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def left_indices(self) -> list[int]:
        return [i for i, _ in self.pairs]

    def right_indices(self) -> list[int]:
        return [j for _, j in self.pairs]

    def shifted(self, left_offset: int, right_offset: int) -> "LcsResult":
        return LcsResult([(i + left_offset, j + right_offset)
                          for i, j in self.pairs])


def _keys(seq: Sequence, key: Callable | None) -> list:
    if key is None:
        return list(seq)
    return [key(item) for item in seq]


def trim_common(a_keys: list, b_keys: list,
                counter: OpCounter | None = None) -> tuple[int, int, int]:
    """Common-prefix/suffix optimisation.

    Returns ``(prefix, a_mid, b_mid)`` where ``prefix`` is the common
    prefix length and ``a_mid`` / ``b_mid`` are the lengths of the middle
    (untrimmed) regions; the common suffix length is then
    ``len(a) - prefix - a_mid``.

    The scans run through the bitvector kernel; the counter is
    credited with exactly the scalar loop's compares (one per matched
    item, plus the mismatch probe when the scan stops short).
    """
    n, m = len(a_keys), len(b_keys)
    limit = min(n, m)
    prefix = bitvector.common_run(a_keys, b_keys, 0, 0, limit)
    if counter is not None:
        counter.bump(prefix + (1 if prefix < limit else 0))
    limit = min(n, m) - prefix
    suffix = bitvector.common_run_back(a_keys, b_keys, n, m, limit)
    if counter is not None:
        counter.bump(suffix + (1 if suffix < limit else 0))
    return prefix, n - prefix - suffix, m - prefix - suffix


def lcs_dp(a: Sequence, b: Sequence, key: Callable | None = None,
           counter: OpCounter | None = None,
           budget: MemoryBudget | None = None) -> LcsResult:
    """Exact LCS via the standard dynamic program, with full traceback.

    Time and space are Theta(nm) in the model (``budget`` can cap the
    table size to emulate memory exhaustion on long traces, and the
    fill's ``n * m`` compares are credited to the counter in bulk).
    The table is held as Hyyrö bit rows
    (:func:`~repro.core.kernels.bitvector.bit_rows`): a cell is a
    prefix popcount of its row, and the traceback below reads cells
    that way under the textbook tie rule (up when ``table[i-1][j] >=
    table[i][j-1]``), so the matched pairs are those of the scalar
    table (:func:`repro.core.kernels.scalar.dp_table`).

    The traceback starts at ``(n, m)`` and takes a match first, so it
    walks a common suffix diagonally whatever the table holds: the
    suffix is peeled before the table is filled, and equal sides need
    no table at all.  A common *prefix* may not be peeled — against
    ``[x, y]``, ``[x, x, y]`` pairs the left ``x`` with the right
    *second* ``x``.  The budget request and the compare credit are
    those of the whole table.
    """
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    n, m = len(a_keys), len(b_keys)
    if budget is not None:
        budget.request((n + 1) * (m + 1))
    if n == 0 or m == 0:
        return LcsResult()
    if counter is not None:
        counter.bump(n * m)
    i, j = n, m
    tail = None
    if a_keys[-1] == b_keys[-1]:
        suffix = bitvector.common_run_back(a_keys, b_keys, n, m, min(n, m))
        i, j = n - suffix, m - suffix
        tail = list(zip(range(i, n), range(j, m)))
        if i == 0 or j == 0:
            return LcsResult(tail)
        a_keys, b_keys = a_keys[:i], b_keys[:j]
    rows = bitvector.bit_rows(a_keys, b_keys)
    pairs: list[tuple[int, int]] = []
    row = rows[i]
    cell = row.bit_count()  # table[i][j]
    while i > 0 and j > 0:
        if a_keys[i - 1] == b_keys[j - 1]:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
            row = rows[i]
            cell -= 1
            continue
        up = (rows[i - 1] & ((1 << j) - 1)).bit_count()
        left = cell - ((row >> (j - 1)) & 1)
        if up >= left:
            i -= 1
            row = rows[i]
            cell = up
        else:
            j -= 1
            cell = left
    pairs.reverse()
    if tail:
        pairs.extend(tail)
    return LcsResult(pairs)


def _lcs_lengths_row(a_keys: list, b_keys: list,
                     counter: OpCounter | None) -> list[int]:
    """Final row of the LCS length table (linear space), from the
    bit-parallel kernel; the row loop's ``n * m`` compares are
    credited in bulk (see lcs_dp)."""
    if counter is not None:
        counter.bump(len(a_keys) * len(b_keys))
    return bitvector.lengths_row(a_keys, b_keys)


def lcs_length(a: Sequence, b: Sequence, key: Callable | None = None,
               counter: OpCounter | None = None) -> int:
    """LCS length only, in O(min(n, m)) space and Theta(nm) time."""
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    if len(b_keys) > len(a_keys):
        a_keys, b_keys = b_keys, a_keys
    return _lcs_lengths_row(a_keys, b_keys, counter)[-1]


def lcs_hirschberg(a: Sequence, b: Sequence, key: Callable | None = None,
                   counter: OpCounter | None = None) -> LcsResult:
    """Exact LCS in linear space (Hirschberg 1975).

    The length rows come from the Hyyrö bit-vector recurrence
    (:mod:`repro.core.kernels.bitvector`); they equal the scalar row
    DP's, so the split points and matched pairs are the textbook
    algorithm's, and each row fill credits its ``n * m`` compares.
    """
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    pairs: list[tuple[int, int]] = []
    _hirschberg(a_keys, b_keys, 0, 0, counter, pairs)
    return LcsResult(pairs)


#: The ``"bitparallel"`` algorithm: Hirschberg over the bit-parallel
#: rows, which is what :func:`lcs_hirschberg` is.
lcs_bitparallel = lcs_hirschberg


def _hirschberg(a_keys: list, b_keys: list, a_off: int, b_off: int,
                counter: OpCounter | None,
                out: list[tuple[int, int]]) -> None:
    n, m = len(a_keys), len(b_keys)
    if n == 0 or m == 0:
        return
    if n == 1:
        for j, bk in enumerate(b_keys):
            if counter is not None:
                counter.bump()
            if a_keys[0] == bk:
                out.append((a_off, b_off + j))
                return
        return
    mid = n // 2
    upper = _lcs_lengths_row(a_keys[:mid], b_keys, counter)
    lower = _lcs_lengths_row(a_keys[mid:][::-1], b_keys[::-1], counter)
    best_j, best = 0, -1
    for j in range(m + 1):
        score = upper[j] + lower[m - j]
        if score > best:
            best, best_j = score, j
    _hirschberg(a_keys[:mid], b_keys[:best_j], a_off, b_off, counter, out)
    _hirschberg(a_keys[mid:], b_keys[best_j:], a_off + mid, b_off + best_j,
                counter, out)


class LcsBudgetExceeded(RuntimeError):
    """Raised by :func:`myers_lcs_length` when the edit-distance frontier
    exceeds ``max_d`` (models the baseline becoming intractable)."""

    def __init__(self, max_d: int):
        super().__init__(f"edit distance exceeds cap {max_d}")
        self.max_d = max_d


def myers_lcs_length(a: Sequence, b: Sequence, key: Callable | None = None,
                     counter: OpCounter | None = None,
                     max_d: int | None = None) -> int:
    """Exact LCS length via Myers' greedy O((n+m)D) forward search.

    ``LCS length = (n + m - D) / 2`` where ``D`` is the shortest edit
    distance.  Cheap when the sequences are similar; ``max_d`` bounds the
    search frontier (raising :class:`LcsBudgetExceeded`) for degenerate
    inputs.
    """
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    prefix, a_mid, b_mid = trim_common(a_keys, b_keys, counter)
    suffix = len(a_keys) - prefix - a_mid
    a_core = a_keys[prefix:prefix + a_mid]
    b_core = b_keys[prefix:prefix + b_mid]
    n, m = len(a_core), len(b_core)
    if n == 0 or m == 0:
        return prefix + suffix
    cap = n + m if max_d is None else min(max_d, n + m)
    # v[k] = furthest x on diagonal k; dict keyed by k
    v: dict[int, int] = {1: 0}
    for d in range(cap + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, -1) < v.get(k + 1, -1)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m:
                if counter is not None:
                    counter.bump()
                if a_core[x] != b_core[y]:
                    break
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return prefix + suffix + (n + m - d) // 2
    raise LcsBudgetExceeded(cap)


def _unique_anchor(a_keys: list, b_keys: list) -> tuple[int, int] | None:
    """Find a key that occurs exactly once in each sequence, preferring one
    near the middle of ``a`` (patience-diff pivot)."""
    a_counts: dict = {}
    for k in a_keys:
        a_counts[k] = a_counts.get(k, 0) + 1
    b_counts: dict = {}
    b_pos: dict = {}
    for j, k in enumerate(b_keys):
        b_counts[k] = b_counts.get(k, 0) + 1
        b_pos[k] = j
    mid = len(a_keys) // 2
    best: tuple[int, int] | None = None
    best_score = None
    for i, k in enumerate(a_keys):
        if a_counts[k] == 1 and b_counts.get(k) == 1:
            score = abs(i - mid)
            if best_score is None or score < best_score:
                best_score = score
                best = (i, b_pos[k])
    return best


def lcs_fast(a: Sequence, b: Sequence, key: Callable | None = None,
             counter: OpCounter | None = None,
             dp_cell_limit: int = 1_000_000) -> LcsResult:
    """Anchored recursive common-subsequence computation.

    Strategy: strip common prefix/suffix; if the remaining core fits in
    ``dp_cell_limit`` DP cells, solve it exactly; otherwise split at a
    unique common anchor (patience pivot) and recurse.  When no anchor
    exists the longer side is bisected against the best nearby match.

    Exact LCS whenever recursion bottoms out in DP cores (the common
    case); otherwise a high-quality common subsequence.
    """
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    pairs: list[tuple[int, int]] = []
    _lcs_fast(a_keys, b_keys, 0, 0, counter, dp_cell_limit, pairs)
    return LcsResult(pairs)


def _lcs_fast(a_keys: list, b_keys: list, a_off: int, b_off: int,
              counter: OpCounter | None, cell_limit: int,
              out: list[tuple[int, int]]) -> None:
    prefix, a_mid, b_mid = trim_common(a_keys, b_keys, counter)
    for i in range(prefix):
        out.append((a_off + i, b_off + i))
    suffix = len(a_keys) - prefix - a_mid
    core_a = a_keys[prefix:prefix + a_mid]
    core_b = b_keys[prefix:prefix + b_mid]
    if core_a and core_b:
        if a_mid * b_mid <= cell_limit:
            core = lcs_dp(core_a, core_b, counter=counter)
            for i, j in core.pairs:
                out.append((a_off + prefix + i, b_off + prefix + j))
        else:
            anchor = _unique_anchor(core_a, core_b)
            if anchor is None:
                # No unique pivot: bisect ``a`` and align the split point
                # to the nearest equal key in ``b`` (greedy).
                i = a_mid // 2
                j = _nearest_match(core_a[i], core_b, b_mid // 2, counter)
                if j is None:
                    j = b_mid // 2
                    _lcs_fast(core_a[:i], core_b[:j], a_off + prefix,
                              b_off + prefix, counter, cell_limit, out)
                    _lcs_fast(core_a[i:], core_b[j:], a_off + prefix + i,
                              b_off + prefix + j, counter, cell_limit, out)
                else:
                    _lcs_fast(core_a[:i], core_b[:j], a_off + prefix,
                              b_off + prefix, counter, cell_limit, out)
                    out.append((a_off + prefix + i, b_off + prefix + j))
                    _lcs_fast(core_a[i + 1:], core_b[j + 1:],
                              a_off + prefix + i + 1, b_off + prefix + j + 1,
                              counter, cell_limit, out)
            else:
                i, j = anchor
                _lcs_fast(core_a[:i], core_b[:j], a_off + prefix,
                          b_off + prefix, counter, cell_limit, out)
                out.append((a_off + prefix + i, b_off + prefix + j))
                _lcs_fast(core_a[i + 1:], core_b[j + 1:],
                          a_off + prefix + i + 1, b_off + prefix + j + 1,
                          counter, cell_limit, out)
    for i in range(suffix):
        out.append((a_off + len(a_keys) - suffix + i,
                    b_off + len(b_keys) - suffix + i))


def _nearest_match(target_key, b_keys: list, around: int,
                   counter: OpCounter | None) -> int | None:
    """Index of the occurrence of ``target_key`` in ``b_keys`` nearest to
    position ``around``, or None."""
    for distance in range(max(around + 1, len(b_keys) - around)):
        for j in (around - distance, around + distance):
            if 0 <= j < len(b_keys):
                if counter is not None:
                    counter.bump()
                if b_keys[j] == target_key:
                    return j
    return None


def lcs_optimized(a: Sequence, b: Sequence, key: Callable | None = None,
                  counter: OpCounter | None = None,
                  budget: MemoryBudget | None = None,
                  dp_cell_limit: int = 4_000_000) -> LcsResult:
    """The paper's baseline: exact LCS with common-prefix/suffix trimming.

    The middle region runs through the quadratic DP when it fits in
    ``dp_cell_limit`` cells (counting real compares); otherwise the fast
    anchored differ computes the alignment and the DP compare cost
    (``mid_a * mid_b``) is *charged* to the counter, so speedup metrics
    reflect the modelled quadratic baseline.  ``budget`` bounds the middle
    region as if the DP table were allocated, reproducing the paper's
    memory-exhaustion failure mode on very long traces.
    """
    a_keys = _keys(a, key)
    b_keys = _keys(b, key)
    prefix, a_mid, b_mid = trim_common(a_keys, b_keys, counter)
    if budget is not None:
        budget.request((a_mid + 1) * (b_mid + 1))
    core_a = a_keys[prefix:prefix + a_mid]
    core_b = b_keys[prefix:prefix + b_mid]
    if a_mid * b_mid <= dp_cell_limit:
        core = lcs_dp(core_a, core_b, counter=counter)
    else:
        core = lcs_fast(core_a, core_b, counter=None,
                        dp_cell_limit=dp_cell_limit)
        if counter is not None:
            counter.charge(a_mid * b_mid)
    pairs = [(i, i) for i in range(prefix)]
    pairs.extend(core.shifted(prefix, prefix).pairs)
    suffix = len(a_keys) - prefix - a_mid
    for i in range(suffix):
        pairs.append((len(a_keys) - suffix + i, len(b_keys) - suffix + i))
    return LcsResult(pairs)
