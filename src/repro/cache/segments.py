"""Segment-granular diff memoisation.

The whole-result tier of :class:`~repro.cache.diffcache.DiffCache` is
keyed by the *full* traces' content digests: edit one scenario line and
every cached result of that trace misses.  Anchored segmental diffing
(:mod:`repro.core.anchors`) restores locality — each divergent gap is a
self-contained sub-diff — and this module gives those gaps their own
cache identity:

* :func:`segment_digest` — a *position-relative* content digest of a
  gap sub-trace, built from the same entry material as
  :meth:`~repro.core.traces.Trace.content_digest` but with every entry
  id rebased to the gap's first entry.  An edit early in a scenario
  shifts the absolute ``eid`` of every later entry; rebasing keeps the
  digests of unchanged gaps stable, so a warm rerun recomputes only the
  gaps whose *content* changed.
* :class:`SegmentCache` — a thin adapter over a shared
  :class:`DiffCache` handle that stores each gap's result wire with
  eids rebased the same way and re-absolutises them on a hit against
  the caller's gap sub-traces.  Stored totals carry the gap's cold
  ``(compares, charged)`` cost, so warm reruns credit the caller's
  :class:`~repro.core.lcs.OpCounter` per segment.

Both tiers share one directory/LRU — segment keys are prefixed so they
can never collide with whole-result keys.
"""

from __future__ import annotations

import hashlib

from repro.cache.diffcache import DiffCache, canonical_config
from repro.core.diffs import DiffResult, result_from_wire, result_to_wire
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig


def segment_digest(trace: Trace) -> str:
    """Position-relative content digest of a (gap sub-)trace.

    Covers the same entry material as
    :meth:`~repro.core.traces.Trace.content_digest` — thread ids,
    methods, active objects, full events — but rebases each entry id to
    the segment's first entry, so equal gap content digests equal
    regardless of where in the full trace the gap sits.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(b"segment-content-v1;")
    entries = trace.entries
    digest.update(len(entries).to_bytes(8, "little"))
    base = entries[0].eid if entries else 0
    for entry in entries:
        digest.update(
            f"{entry.eid - base}|{entry.tid}|{entry.method}|"
            f"{entry.active!r}|{entry.event!r};".encode("utf-8", "replace"))
    return digest.hexdigest()


def segment_key(left: Trace, right: Trace, engine_name: str,
                config: ViewDiffConfig | None) -> str:
    """The content-addressed key of one gap diff (namespaced apart from
    whole-result keys)."""
    blob = "|".join(("segment", segment_digest(left),
                     segment_digest(right), engine_name,
                     canonical_config(config)))
    return hashlib.blake2b(blob.encode("utf-8"),
                           digest_size=16).hexdigest()


def _shift_eid(eid: int, delta: int) -> int:
    # The EOF sentinel (eid -1) is positionless; never rebase it.
    return eid if eid < 0 else eid + delta


def shift_result_wire(wire: dict, left_delta: int,
                      right_delta: int) -> dict:
    """A copy of a result wire with every entry id shifted — the
    rebasing that makes segment cache entries position-independent
    (store with negative deltas, load with positive ones)."""
    shifted = dict(wire)
    shifted["similar_left"] = [_shift_eid(e, left_delta)
                               for e in wire["similar_left"]]
    shifted["similar_right"] = [_shift_eid(e, right_delta)
                                for e in wire["similar_right"]]
    shifted["match_pairs"] = [[_shift_eid(l, left_delta),
                               _shift_eid(r, right_delta)]
                              for l, r in wire["match_pairs"]]
    shifted["anchor_pairs"] = [[_shift_eid(l, left_delta),
                                _shift_eid(r, right_delta)]
                               for l, r in wire["anchor_pairs"]]
    shifted["sequences"] = [
        {"kind": seq["kind"],
         "left": [_shift_eid(e, left_delta) for e in seq["left"]],
         "right": [_shift_eid(e, right_delta) for e in seq["right"]]}
        for seq in wire["sequences"]]
    return shifted


def _first_eid(trace: Trace) -> int:
    column = trace.eid_column()
    return column[0] if len(column) else 0


class SegmentCache:
    """Gap-granular memoisation over a shared :class:`DiffCache`.

    One adapter per diff; the underlying handle (and its directory and
    LRU) is the same one the whole-result tier uses, so pipelines that
    share a cache share segment entries too.
    """

    def __init__(self, cache: DiffCache):
        self.cache = cache

    def key_for(self, left: Trace, right: Trace, engine_name: str,
                config: ViewDiffConfig | None) -> str:
        return segment_key(left, right, engine_name, config)

    @staticmethod
    def _bases(left: Trace, right: Trace) -> tuple[int, int]:
        """The first eid of each gap, read off the eid columns (no
        entry is built)."""
        return (_first_eid(left), _first_eid(right))

    def get(self, key: str, left: Trace, right: Trace
            ) -> DiffResult | None:
        """The cached gap result, re-absolutised against the caller's
        gap sub-traces; ``None`` on a (counted) miss, including
        entries that do not rehydrate."""
        base_l, base_r = self._bases(left, right)

        def rehydrate(raw) -> DiffResult:
            try:
                shifted = shift_result_wire(raw, base_l, base_r)
            except (KeyError, TypeError) as error:
                raise ValueError(
                    f"malformed segment wire: {error}") from None
            return result_from_wire(shifted, left, right)

        return self.cache.get_via(key, rehydrate)

    def put(self, key: str, result: DiffResult, left: Trace,
            right: Trace,
            counter_totals: "tuple[int, int] | None" = None) -> None:
        """Store one gap result, rebased to segment-relative ids.

        ``counter_totals`` is the gap's own cold ``(compares,
        charged)`` cost (the caller measures it around the inner
        engine run); hits credit it back per segment.
        """
        base_l, base_r = self._bases(left, right)
        wire = shift_result_wire(
            result_to_wire(result, counter_totals=counter_totals),
            -base_l, -base_r)
        self.cache.put_wire(key, wire, engine=result.algorithm)
