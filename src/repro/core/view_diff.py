"""Views-based trace differencing (Sec. 3.3, Fig. 12) — the contribution.

Each pair of correlated thread views is evaluated in lock step:

* STEP-VIEW-MATCH — equal heads (``=e``) are removed and placed in the
  similarity set ``sigma``.
* STEP-VIEW-NOMATCH — on differing heads, secondary views *linked* to
  nearby entries are explored (``LinkedSimilarEntries``): entries within a
  constant distance ``delta`` of the current positions whose views of some
  type are correlated (X_chi) have the LCS computed over fixed windows
  (``omega``) of those views.  Entries in the windowed LCS are marked
  similar ("anchors" in Fig. 13) even when they are far apart in the
  thread views — this is what makes the approach resilient to reordered
  operations.  The evaluation then skips to the next point of
  correspondence and resumes lock-step scanning.

The implementation is linear in time and space: windows are constant-size,
each (view-pair, window) is explored at most once, and the
next-correspondence search's overshoot is bounded by the distance actually
skipped.  Nothing is done twice that is known to repeat: a NOMATCH step
generates no candidate that repeats a bucket it has already seen (per
right view only the first slot of each window bucket, and a left
``(type, view, bucket)`` group already expanded in the step adds only
its same-distance candidate); the window LCS
(:func:`~repro.core.lcs.lcs_dp`) peels the common suffix; and the
pending anchors are a heap, so the next-correspondence search reads the
nearest one instead of re-filtering a list.

The engine runs on integer columns.  Each trace's view index
(:mod:`repro.core.web`, built once per trace and view type) places
every trace position in its view of each type; the correlator turns
X_chi into one view-id map per type; and the exploration compares
view ids and ``=e`` key ids without touching a trace entry.  Marks are
trace positions until the result leaves the engine, where they become
eids (the two coincide except on sliced or projected traces).

RPRISM's relaxed correlation (Sec. 5) is implemented here: when two
entries sit at the *same distance* from the current (known-correlated)
positions, their method/object views are treated as correlated even if
their names differ — providing tolerance to rename/split/merge
refactorings.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from repro.core.anchors import AnchorConfig, select_anchor_runs
from repro.core.correlation import ViewCorrelator
from repro.core.diffs import DiffResult, DifferenceSequence, gap_sequences
from repro.core.kernels import bitvector
from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter, lcs_dp
from repro.core.traces import Trace
from repro.core.views import ViewType
from repro.core.web import ViewWeb


@dataclass(slots=True)
class ViewDiffConfig:
    """Tunable parameters of the views-based differencing semantics."""

    #: omega — radius of the fixed-size windows over secondary views that
    #: the LCS is computed on (Fig. 9's ``win``).
    window: int = 12
    #: delta — how far around the differing entries tau_1/tau_3 to look
    #: for entries with correlated secondary views
    #: (SIMILAR-FROM-LINKED-VIEWS's first two antecedent lines).
    radius: int = 4
    #: Secondary view types explored by LinkedSimilarEntries.
    view_types: tuple[ViewType, ...] = (
        ViewType.METHOD, ViewType.TARGET_OBJECT, ViewType.ACTIVE_OBJECT)
    #: Enable RPRISM's relaxed same-distance correlation (Sec. 5).
    relaxed: bool = True
    #: Cap on distinct correlated view pairs explored per nomatch point.
    max_secondary_pairs: int = 4
    #: Cap on next-correspondence overshoot; ``None`` means scan to the end
    #: (still amortised-linear, see module docstring).
    scan_limit: int | None = None
    #: Cell cap for aligning the two skipped segments of a NOMATCH step
    #: with a small LCS (recovers equal entries inside the skipped
    #: region).  Each entry joins at most one such LCS, so the pass stays
    #: linear; 0 disables it.
    skip_lcs_cells: int = 4096
    #: Compare interned key-table ids instead of ``=e`` key tuples.
    #: Interning is a bijection on keys, so the similarity sets are
    #: identical either way; ``False`` restores the tuple path.
    interned: bool = True
    #: Anchored evaluation (:mod:`repro.core.anchors`): precompute
    #: patience-style ``=e`` anchor runs per correlated thread pair and
    #: bulk-match them without per-entry compares whenever the
    #: lock-step scan reaches a run start exactly aligned.  The scan's
    #: state trajectory — and therefore sigma, the matched pairs, the
    #: anchors, and the sequences — is identical to the unanchored
    #: evaluation; only the compare count drops.
    anchored: bool = False
    #: Anchor runs shorter than this are not trusted
    #: (:attr:`~repro.core.anchors.AnchorConfig.min_run`).
    anchor_min_run: int = 2
    #: Occurrence cap for anchor candidate keys
    #: (:attr:`~repro.core.anchors.AnchorConfig.max_occurrence`).
    anchor_max_occurrence: int = 1
    #: Method names predicted unstable (typically
    #: ``PredictedImpact.method_hints()`` from
    #: :mod:`repro.static.impact`): with ``anchored``, entries of these
    #: methods are barred from anchor candidacy so anchors land in
    #: predicted-stable regions.  Results are identical either way
    #: (anchored evaluation is trajectory-preserving); only anchor
    #: placement and compare counts shift.
    anchor_method_hints: tuple[str, ...] = ()


_first = itemgetter(0)
_second = itemgetter(1)

#: A stable small-int tag per view type, for exploration buckets and
#: window-cache tokens.
_TYPE_TAGS = {vtype: tag for tag, vtype in enumerate(ViewType)}


@dataclass(frozen=True, slots=True)
class _Secondary:
    """One secondary view type, as the exploration reads it: both
    sides' columns (:class:`~repro.core.web.TypeIndex`) and the
    correlator's view-id map."""

    tag: int
    view_of_l: array
    position_l: array
    members_l: list[array]
    view_of_r: array
    position_r: array
    members_r: list[array]
    #: left view id -> correlated right view id, or -1.
    partner: list[int]


def _in_methods(web: ViewWeb, rows, methods: set[str]) -> set[int]:
    """Indices into ``rows`` (trace positions) of the entries whose
    method is in ``methods``, read off the method-view columns."""
    columns = web.columns(ViewType.METHOD)
    hinted = {vid for vid, method in enumerate(columns.keys)
              if method in methods}
    view_of = columns.view_of
    return {index for index, position in enumerate(rows)
            if view_of[position] in hinted}


class _ThreadPairDiffer:
    """Lock-step evaluation of one correlated thread-view pair.

    The differ works on trace *positions* throughout: the thread views
    are member columns of the THREAD index, and the similarity marks
    and pairs it writes are positions, which the plan maps to eids when
    the result leaves the engine (:meth:`ViewDiffPlan.merge`).
    """

    def __init__(self, plan: "ViewDiffPlan", ltid: int, rtid: int,
                 counter: OpCounter, similar_left: set[int],
                 similar_right: set[int],
                 anchor_pairs: list[tuple[int, int]]):
        self.plan = plan
        self.config = config = plan.config
        self.counter = counter
        self.similar_left = similar_left
        self.similar_right = similar_right
        self.anchor_pairs = anchor_pairs
        threads_l = plan.web_l.columns(ViewType.THREAD)
        threads_r = plan.web_r.columns(ViewType.THREAD)
        self.lvid = threads_l.by_key[ltid]
        self.rvid = threads_r.by_key[rtid]
        # The two thread views (member positions), plus the columns
        # that place any trace position inside its thread view.
        self.lidx = threads_l.members[self.lvid]
        self.ridx = threads_r.members[self.rvid]
        self._thread_of_l = threads_l.view_of
        self._thread_of_r = threads_r.view_of
        self._thread_pos_l = threads_l.position
        self._thread_pos_r = threads_r.position
        # Per-view key caches: position -> =e key (interned id or tuple).
        keys_l, keys_r = plan.keys_l, plan.keys_r
        self.lkeys = [keys_l[p] for p in self.lidx]
        self.rkeys = [keys_r[p] for p in self.ridx]
        # key -> sorted positions, for the next-correspondence search.
        self.rpos: dict = {}
        for pos, key in enumerate(self.rkeys):
            self.rpos.setdefault(key, []).append(pos)
        # (type tag, left view id, right view id, window bucket) tuples
        # already explored, so each window is LCS'd at most once; a
        # bucket is ``view position // max(omega, 1)``.
        self._explored: set[tuple] = set()
        self._bucket = max(config.window, 1)
        self.runs: list[tuple[int, int, int]] = []
        # Anchored positions (apl, apr) in the two thread views found by
        # secondary view exploration: this step's, in the order found,
        # and the earlier steps' still ahead of the scan, as a heap of
        # (apl + apr, insertion seq, (apl, apr)) holding each pair once
        # (see _next_correspondence).
        self._new_anchors: list[tuple[int, int]] = []
        self._pending_anchors: list[tuple[int, int, tuple[int, int]]] = []
        self._anchors_seen: set[tuple[int, int]] = set()
        # Anchored evaluation: (run start left, run start right) ->
        # run length, bulk-matched compare-free when the scan lands on
        # a start exactly aligned (see ViewDiffConfig.anchored).
        self._anchor_starts: dict[tuple[int, int], int] = {}
        # Run starts per diagonal (right - left), sorted by left
        # position: the bulk lock-step scan must stop exactly where
        # the scalar trajectory would take the anchor fast path.
        self._diag_starts: dict[int, list[int]] = {}
        if config.anchored:
            exclude_l = exclude_r = None
            if config.anchor_method_hints:
                hinted = set(config.anchor_method_hints)
                exclude_l = _in_methods(plan.web_l, self.lidx, hinted)
                exclude_r = _in_methods(plan.web_r, self.ridx, hinted)
            runs = select_anchor_runs(
                self.lkeys, self.rkeys,
                AnchorConfig.from_view_config(config), counter=counter,
                exclude_left=exclude_l,
                exclude_right=exclude_r)
            self._anchor_starts = {(run.left, run.right): run.length
                                   for run in runs}
            for run in runs:
                self._diag_starts.setdefault(
                    run.right - run.left, []).append(run.left)
            for starts in self._diag_starts.values():
                starts.sort()

    # -- driver --------------------------------------------------------------

    def run(self) -> list[tuple[int, int]]:
        """Evaluate the pair, returning the monotonic match pairs
        (left position, right position).  The same matches, as runs
        ``(left, right, length)`` of thread-view positions in scan
        order, are left in ``self.runs``."""
        lkeys, rkeys = self.lkeys, self.rkeys
        indices_l, indices_r = self.lidx, self.ridx
        similar_left, similar_right = self.similar_left, self.similar_right
        n, m = len(lkeys), len(rkeys)
        match_pairs: list[tuple[int, int]] = []
        runs = self.runs
        anchor_starts = self._anchor_starts
        diag_starts = self._diag_starts
        common_run = bitvector.common_run
        i = j = 0
        while i < n and j < m:
            if anchor_starts:
                # Anchored fast path: an aligned common run is matched
                # wholesale, exactly as L consecutive STEP-VIEW-MATCH
                # steps would — minus their L entry compares.  The
                # bookkeeping is bulk slice/zip work, O(1) compare
                # credit (zero: the run was verified at selection).
                run_length = anchor_starts.get((i, j))
                if run_length:
                    left_run = indices_l[i:i + run_length].tolist()
                    right_run = indices_r[j:j + run_length].tolist()
                    similar_left.update(left_run)
                    similar_right.update(right_run)
                    match_pairs.extend(zip(left_run, right_run))
                    runs.append((i, j, run_length))
                    i += run_length
                    j += run_length
                    continue
            self.counter.bump()
            if lkeys[i] == rkeys[j]:
                # STEP-VIEW-MATCH, bulk-extended: the whole equal run
                # is consumed through the kernel scan.  The scan may
                # not cross the next anchor start on this diagonal —
                # the scalar trajectory would bulk-match there with
                # zero compares — and is credited one compare per
                # matched entry, exactly the per-step bumps; the
                # stopping mismatch (or anchor/bounds check) is
                # re-examined by the next loop iteration, which bumps
                # it when (and only when) the scalar loop would.
                limit = n - i if n - i <= m - j else m - j
                if diag_starts:
                    starts = diag_starts.get(j - i)
                    if starts:
                        at = bisect_left(starts, i + 1)
                        if at < len(starts) and starts[at] - i < limit:
                            limit = starts[at] - i
                run = 1 + common_run(lkeys, rkeys, i + 1, j + 1,
                                     limit - 1)
                self.counter.bump(run - 1)
                # One int per matched entry, shared by the similarity
                # set and the pair list.
                left_run = indices_l[i:i + run].tolist()
                right_run = indices_r[j:j + run].tolist()
                similar_left.update(left_run)
                similar_right.update(right_run)
                match_pairs.extend(zip(left_run, right_run))
                runs.append((i, j, run))
                i += run
                j += run
                continue
            # STEP-VIEW-NOMATCH
            self._linked_similar_entries(i, j)
            ni, nj = self._next_correspondence(i, j)
            if (ni, nj) == (i, j):  # pragma: no cover - defensive
                ni, nj = i + 1, j + 1
            self._align_skipped(i, ni, j, nj, match_pairs)
            i, j = ni, nj
        return match_pairs

    def _align_skipped(self, i: int, ni: int, j: int, nj: int,
                       match_pairs: list[tuple[int, int]]) -> None:
        """Recover equal entries inside the skipped NOMATCH region with a
        small bounded LCS over the two skipped segments."""
        cells = self.config.skip_lcs_cells
        width_l = ni - i
        width_r = nj - j
        if cells <= 0 or width_l == 0 or width_r == 0 or \
                width_l * width_r > cells:
            return
        lcs = lcs_dp(self.lkeys[i:ni], self.rkeys[j:nj],
                     counter=self.counter)
        for wi, wj in lcs.pairs:
            left = self.lidx[i + wi]
            right = self.ridx[j + wj]
            self.similar_left.add(left)
            self.similar_right.add(right)
            match_pairs.append((left, right))
            self.runs.append((i + wi, j + wj, 1))

    # -- LinkedSimilarEntries (SIMILAR-FROM-LINKED-VIEWS) ----------------------

    def _linked_similar_entries(self, i: int, j: int) -> None:
        """Explore secondary views linked near positions (i, j) and mark
        windowed-LCS entries as similar.

        Entries tau_5 / tau_6 within ``radius`` of the two heads are
        visited in order; a view pair of some secondary type is explored
        when X_chi correlates the two entries' views (``partner[left
        view] == right view``) or, under the relaxed rule, when both
        entries sit at the same distance from the heads.  Each
        (view pair, window bucket) is explored at most once per thread
        pair; a repeat is not counted against ``max_secondary_pairs``.

        Explorations run in (tau_5, tau_6, view type) order and the cap
        is checked before each tau_6 slot, but candidates known to
        repeat an earlier bucket of this step are never generated: per
        right view only the first slot of each window bucket is a
        correlated candidate, and a left (type, view, bucket) group
        already expanded at an earlier tau_5 adds only its
        same-distance candidate.
        """
        config = self.config
        secondary = self.plan.secondary()
        lidx, ridx = self.lidx, self.ridx
        radius = config.radius
        cap = config.max_secondary_pairs
        width = self._bucket
        explored = self._explored
        explored_now = 0
        lo_l = max(0, i - radius)
        hi_l = min(len(lidx), i + radius + 1)
        lo_r = max(0, j - radius)
        hi_r = min(len(ridx), j + radius + 1)
        # Per secondary type: tau_6's (view id, view position) per right
        # slot, and right view id -> [(slot, view position)] holding the
        # first slot of each of that view's window buckets.
        right = []
        for sec in secondary:
            view_of_r, position_r = sec.view_of_r, sec.position_r
            slots = []
            firsts: dict[int, list[tuple[int, int]]] = {}
            buckets = set()
            for pr in range(lo_r, hi_r):
                p6 = ridx[pr]
                vr = view_of_r[p6]
                pos_r = position_r[p6]
                slots.append((vr, pos_r))
                if vr >= 0 and (vr, pos_r // width) not in buckets:
                    buckets.add((vr, pos_r // width))
                    firsts.setdefault(vr, []).append((pr, pos_r))
            right.append((slots, firsts))
        # Left (type, view, bucket) groups already expanded this step.
        expanded = set()
        relaxed = config.relaxed
        for pl in range(lo_l, hi_l):
            p5 = lidx[pl]
            # The same-distance slot, when the relaxed rule applies.
            same = j + pl - i
            if not relaxed or not lo_r <= same < hi_r:
                same = -1
            candidates = []
            for k, sec in enumerate(secondary):
                vl = sec.view_of_l[p5]
                if vl < 0:
                    continue
                pos_l = sec.position_l[p5]
                partner = sec.partner[vl]
                slots, firsts = right[k]
                group = (k, vl, pos_l // width)
                if group not in expanded:
                    expanded.add(group)
                    for pr, pos_r in firsts.get(partner, ()):
                        candidates.append((pr, k, vl, partner, pos_l,
                                           pos_r))
                if same >= 0:
                    vr, pos_r = slots[same - lo_r]
                    if vr >= 0 and vr != partner:
                        candidates.append((same, k, vl, vr, pos_l, pos_r))
            candidates.sort()
            slot = -1
            for pr, k, vl, vr, pos_l, pos_r in candidates:
                if pr != slot:
                    if explored_now >= cap:
                        return
                    slot = pr
                sec = secondary[k]
                bucket = (sec.tag, vl, vr, pos_l // width, pos_r // width)
                if bucket in explored:
                    continue
                explored.add(bucket)
                self._explore_view_pair(sec, vl, vr, pos_l, pos_r)
                explored_now += 1

    def _explore_view_pair(self, sec: _Secondary, vl: int, vr: int,
                           pos_l: int, pos_r: int) -> None:
        """Windowed LCS over one correlated secondary-view pair, centred
        on view positions ``pos_l`` / ``pos_r``."""
        plan = self.plan
        index_l, keys_l = plan.window(sec.tag, vl, sec.members_l[vl],
                                      pos_l, plan.keys_l,
                                      plan.window_keys_l)
        index_r, keys_r = plan.window(sec.tag, vr, sec.members_r[vr],
                                      pos_r, plan.keys_r,
                                      plan.window_keys_r)
        pairs = lcs_dp(keys_l, keys_r, counter=self.counter).pairs
        lefts = [index_l[wi] for wi, _ in pairs]
        rights = [index_r[wj] for _, wj in pairs]
        self.similar_left.update(lefts)
        self.similar_right.update(rights)
        self.anchor_pairs.extend(zip(lefts, rights))
        # Pairs of entries that both live in the main thread views
        # become correspondence candidates.
        thread_of_l, thread_of_r = self._thread_of_l, self._thread_of_r
        thread_pos_l, thread_pos_r = self._thread_pos_l, self._thread_pos_r
        lvid, rvid = self.lvid, self.rvid
        self._new_anchors.extend([
            (thread_pos_l[left], thread_pos_r[right])
            for left, right in zip(lefts, rights)
            if thread_of_l[left] == lvid and thread_of_r[right] == rvid])

    # -- next point of correspondence -----------------------------------------

    def _next_correspondence(self, i: int, j: int) -> tuple[int, int]:
        """Find the nearest (i', j') >= (i, j) with equal heads, taking the
        closer of the scan-discovered pair and any anchor pair; entries in
        between remain outside sigma (the skipped differences of
        STEP-VIEW-NOMATCH)."""
        lkeys, rkeys = self.lkeys, self.rkeys
        n, m = len(lkeys), len(rkeys)
        best: tuple[int, int] | None = None
        best_cost: int | None = None
        # The nearest anchor candidate at or ahead of (i, j), the first
        # found on a tie.  The scan only moves forward, so an anchor
        # behind it is dropped for good: this step's anchors join the
        # heap only when ahead and not already in it, and the heap top
        # is popped until it is ahead.
        heap = self._pending_anchors
        if self._new_anchors:
            seen = self._anchors_seen
            for anchor in self._new_anchors:
                if anchor[0] >= i and anchor[1] >= j and anchor not in seen:
                    seen.add(anchor)
                    heappush(heap, (anchor[0] + anchor[1], len(seen),
                                    anchor))
            self._new_anchors.clear()
        while heap:
            cost, _seq, anchor = heap[0]
            if anchor[0] >= i and anchor[1] >= j:
                best, best_cost = anchor, cost - i - j
                break
            heappop(heap)
        # Forward scan over left positions, bisecting into right positions.
        limit = n
        if self.config.scan_limit is not None:
            limit = min(n, i + self.config.scan_limit)
        for ip in range(i, limit):
            left_cost = ip - i
            if best_cost is not None and left_cost >= best_cost:
                break
            positions = self.rpos.get(lkeys[ip])
            if not positions:
                continue
            self.counter.bump()
            at = bisect_left(positions, j)
            if at == len(positions):
                continue
            jp = positions[at]
            cost = left_cost + (jp - j)
            if best_cost is None or cost < best_cost:
                best, best_cost = (ip, jp), cost
        if best is None:
            return (n, m)
        return best


@dataclass(slots=True)
class PairMarks:
    """Everything one correlated thread pair's evaluation produced.

    Marks are *independent* per pair — the lock-step evaluation only
    ever writes into the similarity sets, never reads them — which is
    what lets the execution phase run pairs in any order and still merge
    to a result bit-identical to the in-order evaluation.  ``compares``
    carries the pair's entry-compare count so counters aggregate
    order-independently.

    Marks hold trace *positions*, not eids: :meth:`ViewDiffPlan.merge`
    maps them (positions and eids coincide except on sliced or
    projected traces).
    """

    ltid: int
    rtid: int
    similar_left: set[int] = field(default_factory=set)
    similar_right: set[int] = field(default_factory=set)
    match_pairs: list[tuple[int, int]] = field(default_factory=list)
    anchor_pairs: list[tuple[int, int]] = field(default_factory=list)
    compares: int = 0
    #: The matches as runs ``(left, right, length)`` of thread-view
    #: positions, in scan order: sequences are cut between runs.
    runs: list[tuple[int, int, int]] = field(default_factory=list)


class ViewDiffPlan:
    """The planning phase of a views-based diff.

    Construction does all the pair-independent work: adopt the two
    view webs (whose columns live on the traces, so they are built once
    per trace however many diffs it takes part in), correlate the
    webs' views, and enumerate the correlated thread pairs
    (``plan.pairs``).  The execution phase is then :meth:`run_pair`
    per enumerated pair, in any order, and :meth:`merge` folds the
    :class:`PairMarks` back together deterministically (always in
    ``plan.pairs`` order).
    """

    def __init__(self, left: Trace, right: Trace,
                 config: ViewDiffConfig | None = None,
                 web_left: ViewWeb | None = None,
                 web_right: ViewWeb | None = None,
                 key_table: KeyTable | None = None):
        self.left = left
        self.right = right
        self.config = config if config is not None else ViewDiffConfig()
        self.web_l = web_left if web_left is not None else ViewWeb(left)
        self.web_r = web_right if web_right is not None else ViewWeb(right)
        # The two full-trace =e key columns (interned ids, or key tuples
        # when ``config.interned`` is off) are built on the first
        # run_pair, so a pair with no correlated threads never pays the
        # two O(n) passes.
        self.keys_l = self.keys_r = None
        self._key_table = key_table
        self._secondary: list[_Secondary] | None = None
        self.correlator = ViewCorrelator(self.web_l, self.web_r)
        #: Correlated thread pairs with a thread view on both sides —
        #: the execution phase's work list.
        threads_l = self.web_l.columns(ViewType.THREAD).by_key
        threads_r = self.web_r.columns(ViewType.THREAD).by_key
        self.pairs: list[tuple[int, int]] = [
            (ltid, rtid)
            for ltid, rtid in self.correlator.thread_pairs()
            if ltid in threads_l and rtid in threads_r]
        #: Secondary-view window caches, shared across this plan's
        #: pair evaluations: (type tag, view id, lo, hi) -> (member
        #: positions, keys).
        self.window_keys_l: dict = {}
        self.window_keys_r: dict = {}

    def _ensure_keys(self) -> None:
        """Build both traces' ``=e`` key columns once, on the first pair
        evaluation."""
        if self.keys_l is not None:
            return
        if self.config.interned:
            table = self._key_table if self._key_table is not None \
                else KeyTable.for_pair(self.left, self.right)
            self.keys_r = table.ids_for(self.right)
            self.keys_l = table.ids_for(self.left)
        else:
            self.keys_r = [entry.key() for entry in self.right.entries]
            self.keys_l = [entry.key() for entry in self.left.entries]

    def secondary(self) -> list[_Secondary]:
        """The secondary view types' columns and view-id maps, built on
        the first NOMATCH step (a diff of equal traces never builds
        them)."""
        if self._secondary is None:
            self._secondary = [self._secondary_type(vtype)
                               for vtype in self.config.view_types]
        return self._secondary

    def _secondary_type(self, vtype: ViewType) -> _Secondary:
        left = self.web_l.columns(vtype)
        right = self.web_r.columns(vtype)
        return _Secondary(
            tag=_TYPE_TAGS[vtype],
            view_of_l=left.view_of, position_l=left.position,
            members_l=left.members,
            view_of_r=right.view_of, position_r=right.position,
            members_r=right.members,
            partner=self.correlator.view_map(vtype))

    def window(self, tag: int, vid: int, members, position: int, keys,
               cache: dict):
        """The (member positions, key list) of one secondary-view
        window of radius omega around view position ``position``,
        memoised per (view, lo, hi) across every thread-pair differ of
        the trace pair."""
        omega = self.config.window
        lo = max(0, position - omega)
        hi = min(len(members), position + omega + 1)
        token = (tag, vid, lo, hi)
        got = cache.get(token)
        if got is None:
            index = members[lo:hi]
            got = cache[token] = (index, [keys[p] for p in index])
        return got

    def run_pair(self, pair: tuple[int, int]) -> PairMarks:
        """Execution phase for one correlated thread pair: the
        lock-step evaluation, into pair-private marks."""
        self._ensure_keys()
        ltid, rtid = pair
        marks = PairMarks(ltid=ltid, rtid=rtid)
        counter = OpCounter()
        differ = _ThreadPairDiffer(
            self, ltid, rtid, counter, marks.similar_left,
            marks.similar_right, marks.anchor_pairs)
        marks.match_pairs = differ.run()
        marks.runs = differ.runs
        marks.compares = counter.total
        return marks

    def merge(self, marks: "list[PairMarks]",
              counter: OpCounter | None = None,
              started: float | None = None) -> DiffResult:
        """Fold per-pair marks into the final :class:`DiffResult`.

        ``marks`` must be ordered like ``plan.pairs``; the
        union/concatenation below then reproduces the one-pass
        evaluation exactly.  Sequences are cut
        from the thread views by position; marks become eids only in
        the returned result.
        """
        if counter is None:
            counter = OpCounter()
        similar_left: set[int] = set()
        similar_right: set[int] = set()
        anchor_pairs: list[tuple[int, int]] = []
        all_match_pairs: list[tuple[int, int]] = []
        for mark in marks:
            similar_left |= mark.similar_left
            similar_right |= mark.similar_right
            anchor_pairs.extend(mark.anchor_pairs)
            all_match_pairs.extend(mark.match_pairs)
            counter.bump(mark.compares)
        entries_l = self.left.entries
        entries_r = self.right.entries
        threads_l = self.web_l.columns(ViewType.THREAD)
        threads_r = self.web_r.columns(ViewType.THREAD)
        # Sequences are segmented only after every thread pair has
        # contributed to sigma, so cross-thread anchors are honoured
        # everywhere.
        sequences: list[DifferenceSequence] = []
        for mark in marks:
            rows_l = threads_l.members[threads_l.by_key[mark.ltid]]
            rows_r = threads_r.members[threads_r.by_key[mark.rtid]]
            # Inside a run every match is adjacent to the next, so the
            # only gaps lie between one run's end and the next's start.
            ends = [(-1, -1)]
            ends.extend((i + length - 1, j + length - 1)
                        for i, j, length in mark.runs)
            starts = [(i, j) for i, j, _length in mark.runs]
            starts.append((len(rows_l), len(rows_r)))
            sequences.extend(gap_sequences(
                zip(ends, starts),
                _differing(entries_l, rows_l, similar_left),
                _differing(entries_r, rows_r, similar_right)))

        # Uncorrelated threads: every entry is a difference.
        matched_left_tids = {mark.ltid for mark in marks}
        matched_right_tids = {mark.rtid for mark in marks}
        for tid in self.left.thread_ids():
            vid = threads_l.by_key.get(tid)
            if tid in matched_left_tids or vid is None:
                continue
            rows = threads_l.members[vid]
            entries = _differing(entries_l, rows, similar_left)(0, len(rows))
            if entries:
                sequences.append(DifferenceSequence(
                    kind="delete", left_entries=entries, right_entries=[]))
        for tid in self.right.thread_ids():
            vid = threads_r.by_key.get(tid)
            if tid in matched_right_tids or vid is None:
                continue
            rows = threads_r.members[vid]
            entries = _differing(entries_r, rows, similar_right)(0, len(rows))
            if entries:
                sequences.append(DifferenceSequence(
                    kind="insert", left_entries=[], right_entries=entries))

        # Positions -> eids, read off the eid columns; nothing to map
        # when both sides' eids are their positions (captures).
        eids_l = self.left.eid_column()
        eids_r = self.right.eid_column()
        if eids_l != range(len(eids_l)) or eids_r != range(len(eids_r)):
            to_l, to_r = eids_l.__getitem__, eids_r.__getitem__
            similar_left = set(map(to_l, similar_left))
            similar_right = set(map(to_r, similar_right))
            all_match_pairs = _map_pairs(all_match_pairs, to_l, to_r)
            anchor_pairs = _map_pairs(anchor_pairs, to_l, to_r)

        elapsed = 0.0 if started is None else time.perf_counter() - started
        return DiffResult(
            left=self.left,
            right=self.right,
            similar_left=similar_left,
            similar_right=similar_right,
            match_pairs=sorted(all_match_pairs),
            anchor_pairs=anchor_pairs,
            sequences=sequences,
            counter=counter,
            algorithm="views",
            seconds=elapsed,
        )


def _map_pairs(pairs: list[tuple[int, int]], to_l, to_r,
               ) -> list[tuple[int, int]]:
    """``[(to_l(a), to_r(b)) for a, b in pairs]``, at C speed."""
    return list(zip(map(to_l, map(_first, pairs)),
                    map(to_r, map(_second, pairs))))


def _differing(entries, rows, similar: set[int]):
    """``gap_sequences`` row reader: the entries at ``rows[lo:hi]``
    whose positions are outside ``similar``."""
    def take(lo: int, hi: int) -> list:
        return [entries[p] for p in rows[lo:hi] if p not in similar]
    return take


def view_diff(left: Trace, right: Trace,
              config: ViewDiffConfig | None = None,
              counter: OpCounter | None = None,
              web_left: ViewWeb | None = None,
              web_right: ViewWeb | None = None,
              key_table: KeyTable | None = None) -> DiffResult:
    """Difference two traces with the views-based semantics of Fig. 12.

    Every pair of correlated thread views (X_TH) is evaluated under the
    lock-step semantics; the per-pair similarity sets are unioned into the
    final ``sigma`` and the differences derived by subtraction.  Threads
    with no correlated partner contribute all their entries as
    insertions/deletions.

    With ``config.interned`` (the default) both traces are expressed as
    dense id columns of one shared :class:`KeyTable` — ``key_table`` if
    given, the table the traces already carry when it is common to both,
    a fresh pair table otherwise — and every ``=e`` compare below is an
    int compare.  The similarity sets are identical to the tuple path's.
    """
    started = time.perf_counter()
    plan = ViewDiffPlan(left, right, config=config, web_left=web_left,
                        web_right=web_right, key_table=key_table)
    marks = [plan.run_pair(pair) for pair in plan.pairs]
    return plan.merge(marks, counter=counter, started=started)
