"""Anchored segmental differencing: patience-style ``=e`` anchors.

The paper's premise is that a regression trace pair is *mostly
identical* — yet every whole-pair differencing pass still walks the full
O(n·m) problem even when 95% of the entries align trivially.  This
module turns the interned ``=e`` id columns of
:class:`~repro.core.keytable.KeyTable` into *anchors*: maximal aligned
runs of entries that any reasonable alignment must match, selected the
way patience diff selects its pivots.

Selection pipeline (:func:`select_anchor_runs`):

1. **Candidates** — keys whose occurrence count is equal on both sides
   and at most ``max_occurrence`` (1 is classic patience: unique in
   both; larger values admit histogram-style low-frequency keys, k-th
   occurrence paired with k-th occurrence).  Candidate discovery is
   pure hashing — it performs no ``=e`` compares.
2. **LIS** — the longest chain of candidates increasing on both sides
   (patience algorithm, O(k log k)), discarding crossing pairs so the
   anchors are a monotonic correspondence.
3. **Coalescing & extension** — chain pairs adjacent on both sides fuse
   into runs, and each run is greedily extended outward while the
   neighbouring entries stay ``=e``-equal (these *are* real compares
   and are charged to the :class:`~repro.core.lcs.OpCounter`).
4. **min-run filter** — runs shorter than ``min_run`` are dropped: a
   lone anchor in conflicting context (the classic patience failure
   mode) is cheaper to re-derive inside its gap than to trust.

:func:`segment_pair` slices a trace pair along the surviving runs into
an alternating sequence of *common runs* and *gaps*; the one segmental
driver, :func:`segmental_diff` (behind
:func:`~repro.core.lcs_diff.lcs_diff` with ``anchors=`` and the
``anchored:*`` engines of :mod:`repro.api.engines`), then runs a full
differencing engine on each gap independently and
:func:`merge_segment_results` folds the per-gap results back into one
full-trace :class:`~repro.core.diffs.DiffResult` — matched pairs are
already expressed in original entry ids (trace slices preserve
``eid``\\ s), similarity sets union, and difference sequences are
re-segmented over the whole pair so the merged result is
indistinguishable from a whole-pair evaluation.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.diffs import DiffResult, build_sequences
from repro.core.kernels import bitvector
from repro.core.keytable import KeyTable
from repro.core.lcs import MemoryBudget, OpCounter
from repro.core.traces import Trace


@dataclass(slots=True, frozen=True)
class AnchorConfig:
    """Tunable parameters of anchor selection."""

    #: Anchor runs shorter than this (after coalescing and extension)
    #: are dropped — short runs are the ones whose context can
    #: contradict them.
    min_run: int = 2
    #: Keys occurring at most this many times on *both* sides (with
    #: equal counts) are anchor candidates.  1 is classic patience
    #: (unique-unique); larger values admit histogram-style
    #: low-frequency keys.
    max_occurrence: int = 1
    #: Method names predicted unstable (e.g. by
    #: :func:`repro.static.impact.predict_impact`): entries of these
    #: methods are excluded from anchor *candidacy*, biasing anchor
    #: selection toward predicted-stable regions.  Extension may still
    #: grow a run into a hinted region — those entries are verified
    #: ``=e``-equal, so results are unchanged; only where anchors land
    #: (and hence the compare counts) shifts.
    exclude_methods: tuple[str, ...] = ()

    @classmethod
    def from_view_config(cls, config) -> "AnchorConfig":
        """The anchor knobs carried by a
        :class:`~repro.core.view_diff.ViewDiffConfig` (duck-typed to
        avoid the import cycle — ``view_diff`` imports this module)."""
        return cls(min_run=config.anchor_min_run,
                   max_occurrence=config.anchor_max_occurrence,
                   exclude_methods=tuple(
                       getattr(config, "anchor_method_hints", ()) or ()))


@dataclass(slots=True, frozen=True)
class AnchorRun:
    """One maximal aligned common run: ``left_keys[left + k] ==
    right_keys[right + k]`` for ``k in range(length)``."""

    left: int
    right: int
    length: int


@dataclass(slots=True, frozen=True)
class Gap:
    """One divergent region between consecutive anchor runs
    (half-open position ranges; either side may be empty)."""

    left_lo: int
    left_hi: int
    right_lo: int
    right_hi: int

    @property
    def left_len(self) -> int:
        return self.left_hi - self.left_lo

    @property
    def right_len(self) -> int:
        return self.right_hi - self.right_lo


@dataclass(slots=True)
class Segmentation:
    """A trace pair split into aligned common runs and divergent gaps.

    ``runs`` and ``gaps`` are both ordered and strictly increasing on
    both sides; together they cover each sequence exactly once (gaps
    where both sides are empty are omitted).
    """

    runs: list[AnchorRun] = field(default_factory=list)
    gaps: list[Gap] = field(default_factory=list)
    left_len: int = 0
    right_len: int = 0
    #: How many candidate anchor pairs selection started from, and how
    #: many survived the LIS — the ``--anchor-stats`` numbers.
    candidates: int = 0
    chained: int = 0

    def anchored_entries(self) -> int:
        """Entries per side covered by anchor runs."""
        return sum(run.length for run in self.runs)

    def gap_entries(self) -> tuple[int, int]:
        return (sum(gap.left_len for gap in self.gaps),
                sum(gap.right_len for gap in self.gaps))

    def largest_gap(self) -> tuple[int, int]:
        if not self.gaps:
            return (0, 0)
        worst = max(self.gaps, key=lambda g: g.left_len * g.right_len)
        return (worst.left_len, worst.right_len)

    def render(self) -> str:
        anchored = self.anchored_entries()
        gap_l, gap_r = self.gap_entries()
        big_l, big_r = self.largest_gap()
        lines = [
            f"anchors: {len(self.runs)} run(s) covering "
            f"{anchored}/{self.left_len} left and "
            f"{anchored}/{self.right_len} right entries",
            f"  candidates: {self.candidates} pair(s), "
            f"{self.chained} after LIS ordering",
            f"  gaps: {len(self.gaps)} ({gap_l} left / {gap_r} right "
            f"entries, largest {big_l}x{big_r})",
        ]
        return "\n".join(lines)


# -- selection ---------------------------------------------------------------


def anchor_candidates(keys_l: Sequence, keys_r: Sequence,
                      max_occurrence: int = 1) -> list[tuple[int, int]]:
    """Candidate anchor pairs, sorted by left position.

    A key qualifies when it occurs the *same* number of times on both
    sides and at most ``max_occurrence`` times; its k-th left
    occurrence pairs with its k-th right occurrence.  Pure hashing —
    no ``=e`` compares are performed.
    """
    overflow = max_occurrence + 1

    def positions(keys: Sequence) -> dict:
        at: dict = {}
        for pos, key in enumerate(keys):
            got = at.get(key)
            if got is None:
                at[key] = [pos]
            elif len(got) < overflow:
                # Positions beyond the overflow cap are never read (the
                # key is already disqualified), so don't store them.
                got.append(pos)
        return at

    left_at = positions(keys_l)
    right_at = positions(keys_r)
    pairs: list[tuple[int, int]] = []
    for key, lpos in left_at.items():
        if len(lpos) > max_occurrence:
            continue
        rpos = right_at.get(key)
        if rpos is None or len(rpos) != len(lpos):
            continue
        pairs.extend(zip(lpos, rpos))
    pairs.sort()
    return pairs


def _increasing_chain(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The longest subsequence of ``pairs`` (sorted by left position,
    left positions distinct) whose right positions strictly increase —
    the patience-sort LIS, O(k log k)."""
    if not pairs:
        return []
    tails: list[int] = []          # minimal tail right-position per length
    tails_at: list[int] = []       # index into pairs achieving that tail
    back = [-1] * len(pairs)
    for index, (_left, right) in enumerate(pairs):
        at = bisect_left(tails, right)
        if at == len(tails):
            tails.append(right)
            tails_at.append(index)
        else:
            tails[at] = right
            tails_at[at] = index
        back[index] = tails_at[at - 1] if at else -1
    chain: list[tuple[int, int]] = []
    index = tails_at[-1]
    while index != -1:
        chain.append(pairs[index])
        index = back[index]
    chain.reverse()
    return chain


def _coalesce(chain: list[tuple[int, int]]) -> list[AnchorRun]:
    """Fuse chain pairs adjacent on both sides into runs."""
    runs: list[AnchorRun] = []
    for left, right in chain:
        if runs:
            last = runs[-1]
            if left == last.left + last.length \
                    and right == last.right + last.length:
                runs[-1] = AnchorRun(last.left, last.right,
                                     last.length + 1)
                continue
        runs.append(AnchorRun(left, right, 1))
    return runs


def _extend(runs: list[AnchorRun], keys_l: Sequence, keys_r: Sequence,
            counter: OpCounter | None) -> list[AnchorRun]:
    """Greedily extend each run outward while neighbours stay equal
    (real ``=e`` compares — charged), merging runs that meet.

    The probe scans run through the bitvector kernel
    (:mod:`repro.core.kernels`); the counter is credited with exactly
    the scalar loops' compares — one per extension step, plus the
    probe that stopped a scan short of its bound.
    """
    extended: list[AnchorRun] = []
    for position, run in enumerate(runs):
        left, right, length = run.left, run.right, run.length
        if extended:
            prev = extended[-1]
            floor_l = prev.left + prev.length
            floor_r = prev.right + prev.length
        else:
            floor_l = floor_r = 0
        limit = min(left - floor_l, right - floor_r)
        back = bitvector.common_run_back(keys_l, keys_r, left, right, limit)
        if counter is not None:
            counter.bump(back + (1 if back < limit else 0))
        left -= back
        right -= back
        length += back
        if position + 1 < len(runs):
            ceil_l = runs[position + 1].left
            ceil_r = runs[position + 1].right
        else:
            ceil_l = len(keys_l)
            ceil_r = len(keys_r)
        limit = min(ceil_l - left, ceil_r - right) - length
        ahead = bitvector.common_run(keys_l, keys_r, left + length,
                                     right + length, limit)
        if counter is not None:
            counter.bump(ahead + (1 if ahead < limit else 0))
        length += ahead
        if extended:
            prev = extended[-1]
            if left == prev.left + prev.length \
                    and right == prev.right + prev.length:
                extended[-1] = AnchorRun(prev.left, prev.right,
                                         prev.length + length)
                continue
        extended.append(AnchorRun(left, right, length))
    return extended


def _select(keys_l: Sequence, keys_r: Sequence,
            config: AnchorConfig | None,
            counter: OpCounter | None,
            exclude_left: "set[int] | None" = None,
            exclude_right: "set[int] | None" = None
            ) -> tuple[list[AnchorRun], int, int]:
    """The one selection pipeline both public entry points share:
    ``(surviving runs, candidate count, chained count)``.

    ``exclude_left``/``exclude_right`` are position sets barred from
    anchor candidacy (the method-hint bias; see
    :attr:`AnchorConfig.exclude_methods`)."""
    if config is None:
        config = AnchorConfig()
    pairs = anchor_candidates(keys_l, keys_r, config.max_occurrence)
    if exclude_left or exclude_right:
        exclude_left = exclude_left or set()
        exclude_right = exclude_right or set()
        pairs = [(left, right) for left, right in pairs
                 if left not in exclude_left
                 and right not in exclude_right]
    chain = _increasing_chain(pairs)
    runs = [run for run in _extend(_coalesce(chain), keys_l, keys_r,
                                   counter)
            if run.length >= config.min_run]
    return runs, len(pairs), len(chain)


def select_anchor_runs(keys_l: Sequence, keys_r: Sequence,
                       config: AnchorConfig | None = None,
                       counter: OpCounter | None = None,
                       exclude_left: "set[int] | None" = None,
                       exclude_right: "set[int] | None" = None
                       ) -> list[AnchorRun]:
    """The full selection pipeline (see module docstring); ``keys``
    may be interned id columns or raw ``=e`` key tuples — anything
    hashable and comparable."""
    return _select(keys_l, keys_r, config, counter,
                   exclude_left=exclude_left,
                   exclude_right=exclude_right)[0]


def segment_sequences(keys_l: Sequence, keys_r: Sequence,
                      config: AnchorConfig | None = None,
                      counter: OpCounter | None = None,
                      exclude_left: "set[int] | None" = None,
                      exclude_right: "set[int] | None" = None
                      ) -> Segmentation:
    """Segment two key sequences along their selected anchor runs."""
    runs, candidates, chained = _select(keys_l, keys_r, config, counter,
                                        exclude_left=exclude_left,
                                        exclude_right=exclude_right)
    gaps: list[Gap] = []
    at_l = at_r = 0
    for run in runs:
        if run.left > at_l or run.right > at_r:
            gaps.append(Gap(at_l, run.left, at_r, run.right))
        at_l = run.left + run.length
        at_r = run.right + run.length
    if at_l < len(keys_l) or at_r < len(keys_r):
        gaps.append(Gap(at_l, len(keys_l), at_r, len(keys_r)))
    return Segmentation(runs=runs, gaps=gaps, left_len=len(keys_l),
                        right_len=len(keys_r), candidates=candidates,
                        chained=chained)


def segment_pair(left: Trace, right: Trace,
                 config: AnchorConfig | None = None,
                 interned: bool = True,
                 key_table: KeyTable | None = None,
                 counter: OpCounter | None = None) -> Segmentation:
    """Segment a trace pair on its ``=e`` keys.

    With ``interned`` (the default) both traces are expressed as dense
    id columns of one shared :class:`KeyTable` (``key_table`` if given,
    derived from the pair otherwise); interning is a bijection on keys,
    so the segmentation is identical to the tuple-key path's.
    """
    if interned:
        table = key_table if key_table is not None \
            else KeyTable.for_pair(left, right)
        keys_l = table.ids_for(left).tolist()
        keys_r = table.ids_for(right).tolist()
    else:
        keys_l = [entry.key() for entry in left.entries]
        keys_r = [entry.key() for entry in right.entries]
    exclude_l = exclude_r = None
    if config is not None and config.exclude_methods:
        hinted = set(config.exclude_methods)
        exclude_l = {pos for pos, entry in enumerate(left.entries)
                     if entry.method in hinted}
        exclude_r = {pos for pos, entry in enumerate(right.entries)
                     if entry.method in hinted}
    return segment_sequences(keys_l, keys_r, config=config,
                             counter=counter,
                             exclude_left=exclude_l,
                             exclude_right=exclude_r)


# -- merging -----------------------------------------------------------------


def merge_segment_results(left: Trace, right: Trace,
                          segmentation: Segmentation,
                          gap_results: "list[DiffResult | None]",
                          counter: OpCounter,
                          algorithm: str = "anchored",
                          seconds: float = 0.0,
                          peak_cells: int = 0) -> DiffResult:
    """Fold per-gap diff results and anchor runs into one full-trace
    :class:`DiffResult`.

    ``gap_results`` aligns with ``segmentation.gaps``; ``None`` entries
    stand for gaps that needed no diff (one side empty — every entry is
    a plain insertion/deletion).  Gap results are expressed in original
    entry ids already (trace slices preserve ``eid``), so merging is
    pure bookkeeping: marks union, matched pairs concatenate in
    positional order, and difference sequences are rebuilt over the
    whole pair exactly the way a whole-pair evaluation builds them.
    """
    if len(gap_results) != len(segmentation.gaps):
        raise ValueError(
            f"{len(gap_results)} gap result(s) for "
            f"{len(segmentation.gaps)} gap(s)")
    similar_left: set[int] = set()
    similar_right: set[int] = set()
    match_pairs: list[tuple[int, int]] = []
    anchor_pairs: list[tuple[int, int]] = []

    # Interleave runs and gap results in positional order (both are
    # strictly increasing on both sides; a gap that starts where a run
    # starts has an empty left side and precedes it on the right).
    ordered: list[tuple[tuple[int, int], object]] = [
        ((run.left, run.right), run) for run in segmentation.runs]
    ordered.extend(((gap.left_lo, gap.right_lo), index)
                   for index, gap in enumerate(segmentation.gaps))
    ordered.sort(key=lambda item: item[0])

    entries_l = left.entries
    entries_r = right.entries
    for _position, item in ordered:
        if isinstance(item, AnchorRun):
            for offset in range(item.length):
                left_eid = entries_l[item.left + offset].eid
                right_eid = entries_r[item.right + offset].eid
                similar_left.add(left_eid)
                similar_right.add(right_eid)
                match_pairs.append((left_eid, right_eid))
            continue
        result = gap_results[item]
        if result is None:
            continue
        similar_left |= result.similar_left
        similar_right |= result.similar_right
        match_pairs.extend(result.match_pairs)
        anchor_pairs.extend(result.anchor_pairs)

    sequences = build_sequences(left, right, match_pairs, similar_left,
                                similar_right)
    return DiffResult(
        left=left,
        right=right,
        similar_left=similar_left,
        similar_right=similar_right,
        match_pairs=match_pairs,
        anchor_pairs=anchor_pairs,
        sequences=sequences,
        counter=counter,
        algorithm=algorithm,
        seconds=seconds,
        peak_cells=peak_cells,
    )


# -- the segmental driver ----------------------------------------------------


def segmental_diff(left: Trace, right: Trace,
                   gap_diff: Callable[..., DiffResult], *,
                   algorithm: str,
                   anchors: AnchorConfig | None = None,
                   interned: bool = True,
                   key_table: KeyTable | None = None,
                   counter: OpCounter | None = None,
                   budget: MemoryBudget | None = None) -> DiffResult:
    """Anchored segmental diff: segment the pair, diff each gap, merge.

    ``gap_diff(gap_left, gap_right, counter=, budget=, key_table=)``
    diffs one two-sided gap; every gap runs serially in the calling
    thread against the pair's key table (derived from the pair when
    ``interned`` and none is given), the caller's ``counter`` and its
    ``budget``.  One-sided gaps (pure insertions or deletions) are
    never diffed.  ``algorithm`` labels the merged result.
    """
    started = time.perf_counter()
    if counter is None:
        counter = OpCounter()
    table = None
    if interned:
        table = key_table if key_table is not None \
            else KeyTable.for_pair(left, right)
    segmentation = segment_pair(left, right, config=anchors,
                                interned=interned, key_table=table,
                                counter=counter)
    gap_results: list[DiffResult | None] = []
    for gap in segmentation.gaps:
        if gap.left_len == 0 or gap.right_len == 0:
            gap_results.append(None)
            continue
        gap_results.append(gap_diff(
            left[gap.left_lo:gap.left_hi],
            right[gap.right_lo:gap.right_hi],
            counter=counter, budget=budget, key_table=table))
    return merge_segment_results(
        left, right, segmentation, gap_results, counter=counter,
        algorithm=algorithm, seconds=time.perf_counter() - started,
        peak_cells=budget.peak_cells if budget is not None else 0)
