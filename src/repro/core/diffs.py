"""Differencing results: the similarity set sigma, difference runs, and
difference sequences.

Both differencing semantics (Figs. 11 and 12) produce a set ``sigma`` of
entries considered *similar* between the left and right traces; the set of
differences is derived from ``sigma`` by set subtraction against the
original traces.  RPRISM then organises contiguous runs of differences
into *difference sequences* — "each representing one higher-level semantic
difference that manifests as a contiguous set of differences" — which are
the units reported to developers and consumed by the regression-cause
analysis of Sec. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.entries import EOF, TraceEntry
from repro.core.lcs import OpCounter
from repro.core.traces import Trace

_first = itemgetter(0)
_second = itemgetter(1)


@dataclass(slots=True)
class DifferenceSequence:
    """One contiguous semantic difference between the two traces.

    ``kind`` is ``"delete"`` (entries only in the left/original trace),
    ``"insert"`` (only in the right/new trace) or ``"modify"`` (both).
    """

    kind: str
    left_entries: list[TraceEntry]
    right_entries: list[TraceEntry]

    def size(self) -> int:
        """Number of raw differences in this sequence (both sides)."""
        return len(self.left_entries) + len(self.right_entries)

    def left_keys(self) -> frozenset:
        return frozenset(e.key() for e in self.left_entries)

    def right_keys(self) -> frozenset:
        return frozenset(e.key() for e in self.right_entries)

    def all_keys(self) -> frozenset:
        return self.left_keys() | self.right_keys()

    def methods(self) -> frozenset[str]:
        """Method views this sequence touches (used in signatures and
        reports)."""
        return frozenset(e.method for e in self.left_entries) | frozenset(
            e.method for e in self.right_entries)

    def signature(self) -> tuple:
        """Cross-trace-pair identity for the set algebra of Sec. 4."""
        return (self.kind, self.left_keys(), self.right_keys())

    def span(self) -> tuple[int | None, int | None]:
        """(first left eid, first right eid) for ordering and reports."""
        left = self.left_entries[0].eid if self.left_entries else None
        right = self.right_entries[0].eid if self.right_entries else None
        return (left, right)

    def brief(self, limit: int = 6) -> str:
        lines = [f"~ {self.kind} ({len(self.left_entries)} old / "
                 f"{len(self.right_entries)} new entries)"]
        for entry in self.left_entries[:limit]:
            lines.append(f"  - {entry.brief()}")
        if len(self.left_entries) > limit:
            lines.append(f"  - ... ({len(self.left_entries) - limit} more)")
        for entry in self.right_entries[:limit]:
            lines.append(f"  + {entry.brief()}")
        if len(self.right_entries) > limit:
            lines.append(f"  + ... ({len(self.right_entries) - limit} more)")
        return "\n".join(lines)


@dataclass(slots=True)
class DiffResult:
    """Outcome of differencing a (left, right) trace pair."""

    left: Trace
    right: Trace
    #: eids of left/right entries in the similarity set ``sigma``.
    similar_left: set[int]
    similar_right: set[int]
    #: Monotonic correspondence pairs (left eid, right eid) from lock-step
    #: matching / the LCS; used to segment difference sequences.
    match_pairs: list[tuple[int, int]]
    #: Entries marked similar through secondary-view exploration
    #: (the "anchors" of Fig. 13); subset of the similarity sets.
    anchor_pairs: list[tuple[int, int]] = field(default_factory=list)
    sequences: list[DifferenceSequence] = field(default_factory=list)
    counter: OpCounter = field(default_factory=OpCounter)
    algorithm: str = ""
    seconds: float = 0.0
    peak_cells: int = 0

    # -- difference accessors ------------------------------------------------

    def left_diff_eids(self) -> list[int]:
        similar = self.similar_left
        return [eid for eid in self.left.eid_column() if eid not in similar]

    def right_diff_eids(self) -> list[int]:
        similar = self.similar_right
        return [eid for eid in self.right.eid_column()
                if eid not in similar]

    def left_diff_entries(self) -> list[TraceEntry]:
        """The differing left entries, in trace order; only these are
        built on a lazy trace."""
        return differing_entries(self.left, self.similar_left)

    def right_diff_entries(self) -> list[TraceEntry]:
        return differing_entries(self.right, self.similar_right)

    def num_diffs(self) -> int:
        """Total number of raw differences (both sides) — the paper's
        "Num Diffs." column."""
        left = len(self.left) - len(self.similar_left)
        right = len(self.right) - len(self.similar_right)
        return left + right

    def num_similar(self) -> int:
        return len(self.similar_left) + len(self.similar_right)

    def total_entries(self) -> int:
        return len(self.left) + len(self.right)

    def num_sequences(self) -> int:
        return len(self.sequences)

    def compares(self) -> int:
        return self.counter.total

    def mean_sequence_size(self) -> float:
        if not self.sequences:
            return 0.0
        return sum(s.size() for s in self.sequences) / len(self.sequences)

    def render(self, limit: int = 20) -> str:
        lines = [
            f"diff {self.left.name or 'left'} vs {self.right.name or 'right'}"
            f" [{self.algorithm}]: {self.num_diffs()} differences in "
            f"{len(self.sequences)} sequences",
        ]
        for seq in self.sequences[:limit]:
            lines.append(seq.brief())
        if len(self.sequences) > limit:
            lines.append(f"... ({len(self.sequences) - limit} more sequences)")
        return "\n".join(lines)


def differing_entries(trace: Trace, similar: set[int]) -> list[TraceEntry]:
    """The entries of ``trace`` whose eids are outside ``similar``, in
    trace order.  Reads the eid column and fetches the differing
    entries by position, so a lazy trace builds only those."""
    entries = trace.entries
    return [entries[position]
            for position, eid in enumerate(trace.eid_column())
            if eid not in similar]


# -- wire codec (the diff cache's disk tier) --------------------------------

#: Version stamp of the :func:`result_to_wire` encoding; bumped whenever
#: the shape changes so stale cache entries read as misses, not garbage.
RESULT_WIRE_VERSION = 1


def result_to_wire(result: DiffResult,
                   counter_totals: "tuple[int, int] | None" = None) -> dict:
    """A :class:`DiffResult` as a JSON-encodable dict.

    Entries are stored *by eid only* — a cached result is always
    rehydrated against the caller's own trace objects
    (:func:`result_from_wire`), so the wire form stays small (no trace
    bodies) and a hit hands back sequences built from the very entries
    the caller is holding.

    ``counter_totals`` overrides the stored ``(compares, charged)``
    pair: ``result.counter`` may be a caller's *shared* accumulator
    spanning several diffs, and a cache entry must record only this
    diff's own cost (the cache layer passes the measured delta).
    """
    if counter_totals is None:
        counter_totals = (result.counter.compares, result.counter.charged)
    return {
        "version": RESULT_WIRE_VERSION,
        "algorithm": result.algorithm,
        "seconds": result.seconds,
        "peak_cells": result.peak_cells,
        "similar_left": sorted(result.similar_left),
        "similar_right": sorted(result.similar_right),
        "match_pairs": [list(pair) for pair in result.match_pairs],
        "anchor_pairs": [list(pair) for pair in result.anchor_pairs],
        "sequences": [{"kind": seq.kind,
                       "left": [e.eid for e in seq.left_entries],
                       "right": [e.eid for e in seq.right_entries]}
                      for seq in result.sequences],
        "counter": {"compares": counter_totals[0],
                    "charged": counter_totals[1]},
    }


class _EidLookup:
    """Finds entries of one trace by eid through its eid column.

    A contiguous ``range`` column (captures, v3 loads and their step-1
    slices) resolves an eid by arithmetic; any other column through one
    ``{eid: position}`` dict.  Entries are fetched by position, so a
    lazy trace builds only the ones asked for.
    """

    __slots__ = ("entries", "start", "stop", "positions")

    def __init__(self, trace: Trace):
        self.entries = trace.entries
        column = trace.eid_column()
        if isinstance(column, range) and column.step == 1:
            self.start, self.stop = column.start, column.stop
            self.positions = None
        else:
            self.start = self.stop = 0
            self.positions = {eid: position
                              for position, eid in enumerate(column)}

    def holds(self, eids: list) -> bool:
        """Whether every eid of ``eids`` names an entry of the trace: a
        bounds check over a range column, a membership check otherwise."""
        if self.positions is not None:
            return all(map(self.positions.__contains__, eids))
        return not eids or (self.start <= min(eids)
                            and max(eids) < self.stop)

    def pick(self, eids) -> list[TraceEntry]:
        """The entries named by ``eids``, in order; the ``EOF`` sentinel
        passes through (the differs may pad with it)."""
        entries, positions = self.entries, self.positions
        start, stop = self.start, self.stop
        picked = []
        for eid in eids:
            if eid == EOF.eid:
                picked.append(EOF)
                continue
            if positions is None:
                position = eid - start if start <= eid < stop else None
            else:
                position = positions.get(eid)
            if position is None:
                raise ValueError(f"diff-result wire references eid "
                                 f"{eid} absent from the trace pair")
            picked.append(entries[position])
        return picked


def result_from_wire(wire: dict, left: Trace, right: Trace) -> DiffResult:
    """Inverse of :func:`result_to_wire`, rehydrated over the caller's
    ``left``/``right`` traces.

    Raises ``ValueError`` on any mismatch — unknown wire version, or an
    eid the traces do not contain (a digest collision or a hand-edited
    cache file) — so cache layers can treat a bad entry as a miss
    rather than returning a corrupt result.  Eids are checked against
    the traces' eid columns and only the entries the sequences name are
    built, so rehydration costs about as much as the differences.
    """
    if not isinstance(wire, dict) \
            or wire.get("version") != RESULT_WIRE_VERSION:
        version = wire.get("version") if isinstance(wire, dict) else wire
        raise ValueError(
            f"unsupported diff-result wire version: {version!r}")
    by_left = _EidLookup(left)
    by_right = _EidLookup(right)
    try:
        sequences = [DifferenceSequence(
            kind=seq["kind"],
            left_entries=by_left.pick(seq["left"]),
            right_entries=by_right.pick(seq["right"]))
            for seq in wire["sequences"]]
        similar_left = wire["similar_left"]
        similar_right = wire["similar_right"]
        match_pairs = list(map(tuple, wire["match_pairs"]))
        anchor_pairs = list(map(tuple, wire["anchor_pairs"]))
        pairs = match_pairs + anchor_pairs
        if set(map(len, pairs)) - {2}:
            raise ValueError("diff-result wire holds a pair that is not "
                             "(left eid, right eid)")
        if not (by_left.holds(similar_left)
                and by_right.holds(similar_right)
                and by_left.holds(list(map(_first, pairs)))
                and by_right.holds(list(map(_second, pairs)))):
            raise ValueError("diff-result wire references eids absent "
                             "from the trace pair")
        counter = OpCounter(compares=wire["counter"]["compares"],
                            charged=wire["counter"]["charged"])
        return DiffResult(
            left=left,
            right=right,
            similar_left=set(similar_left),
            similar_right=set(similar_right),
            match_pairs=match_pairs,
            anchor_pairs=anchor_pairs,
            sequences=sequences,
            counter=counter,
            algorithm=wire["algorithm"],
            seconds=wire["seconds"],
            peak_cells=wire["peak_cells"],
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed diff-result wire: {error}") from None


def result_identity(result: DiffResult) -> tuple:
    """Everything *semantically* observable about a result — similarity
    sets, matched and anchor pairs, and difference sequences — as one
    comparable value, excluding the cost accounting (compare counters,
    peak cells, timing) and the algorithm label.

    This is what "the anchored engine is bit-identical to its inner
    engine" means: the two compute the same differences while charging
    different costs (fewer ``=e`` compares is the anchored path's whole
    point), so identity is asserted over this tuple rather than
    :func:`result_signature` (which includes the counters).
    """
    return (tuple(sorted(result.similar_left)),
            tuple(sorted(result.similar_right)),
            tuple(map(tuple, result.match_pairs)),
            tuple(map(tuple, result.anchor_pairs)),
            tuple((seq.kind,
                   tuple(e.eid for e in seq.left_entries),
                   tuple(e.eid for e in seq.right_entries))
                  for seq in result.sequences))


def result_signature(result: DiffResult) -> tuple:
    """Everything semantically observable about a result, as one
    comparable value (wall-clock excluded) — what the cache tests and
    benchmark mean by "bit-identical".

    It is :func:`result_identity` plus the members of the
    :func:`result_to_wire` form that identity leaves out (counter,
    algorithm, peak cells, wire version) as sorted ``(name, value)``
    pairs, built straight from the result.
    """
    counter = result.counter
    return result_identity(result) + (
        (("charged", counter.charged), ("compares", counter.compares)),
        (("algorithm", result.algorithm),
         ("peak_cells", result.peak_cells),
         ("version", RESULT_WIRE_VERSION)))


def build_sequences(left: Trace, right: Trace,
                    match_pairs: list[tuple[int, int]],
                    similar_left: set[int], similar_right: set[int],
                    ) -> list[DifferenceSequence]:
    """Group raw differences into difference sequences.

    Walks the (monotonic) correspondence mapping over the whole traces;
    the differing entries between consecutive matched pairs form one
    sequence.
    """
    eids_l = left.eid_column()
    eids_r = right.eid_column()
    # Positions of matched pairs within the entry rows.
    pos_l = {eid: i for i, eid in enumerate(eids_l)}
    pos_r = {eid: i for i, eid in enumerate(eids_r)}
    boundaries = [(-1, -1)]
    for l_eid, r_eid in match_pairs:
        if l_eid in pos_l and r_eid in pos_r:
            boundaries.append((pos_l[l_eid], pos_r[r_eid]))
    boundaries.append((len(eids_l), len(eids_r)))
    return gap_sequences(zip(boundaries, boundaries[1:]),
                         _gap_reader(left.entries, eids_l, similar_left),
                         _gap_reader(right.entries, eids_r, similar_right))


def _gap_reader(entries, eids, similar: set[int]):
    """``gap_sequences`` row reader: the entries among rows ``lo..hi-1``
    whose eids are outside ``similar``, fetched by position."""
    def take(lo: int, hi: int) -> list:
        return [entries[p] for p in range(lo, hi) if eids[p] not in similar]
    return take


def gap_sequences(frames, left_gap, right_gap) -> list[DifferenceSequence]:
    """The difference sequences between consecutive matched rows.

    ``frames`` yields, in order, the ``((left row, right row), (left
    row, right row))`` positions of two matches with no match between
    them; the first frame starts at ``(-1, -1)`` and the last ends at
    ``(len(left rows), len(right rows))``.  ``left_gap(lo, hi)`` /
    ``right_gap(lo, hi)`` return the differing entries among rows
    ``lo..hi-1`` of their side.
    """
    sequences: list[DifferenceSequence] = []
    for (prev_l, prev_r), (next_l, next_r) in frames:
        if next_l - prev_l <= 1 and next_r - prev_r <= 1:
            continue  # adjacent matches: no gap on either side
        left = left_gap(prev_l + 1, next_l)
        right = right_gap(prev_r + 1, next_r)
        if not left and not right:
            continue
        if left and right:
            kind = "modify"
        elif left:
            kind = "delete"
        else:
            kind = "insert"
        sequences.append(DifferenceSequence(
            kind=kind, left_entries=left, right_entries=right))
    return sequences
