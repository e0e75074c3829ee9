"""View correlation functions X_chi (Sec. 3.1).

Correlation functions decide whether a view in the left trace semantically
corresponds to a view in the right trace.  One function exists per view
type:

* ``X_TH`` — thread views: all thread pairs are scored by the similarity
  of their spawn ancestry (the call stacks captured at each ancestor's
  spawn point), and a best-match assignment is formed.  The main threads
  (empty ancestry) always correlate.
* ``X_CM`` — method views: two methods correlate iff their fully qualified
  signatures are equal.
* ``X_TO`` / ``X_AO`` — object views: two objects correlate iff their
  value representations are equal, or their (class name, class-specific
  creation sequence number) pairs are equal.

The correlators work on *entries* rather than view names because the
decision may be context-sensitive (value representations live on the
entries).  ``correlate(entry_l, entry_r, vtype)`` returns the pair of view
names, or ``None`` when the views do not correspond — mirroring the
``<bottom, bottom>`` case of Fig. 9.

The differencing engine does not call the entry-level functions: per
view type it asks once for :meth:`ViewCorrelator.view_map`, a column
from left view id to correlated right view id derived from the same
thread map, object map and method-name equality, and correlates
entries by comparing ints.  ``correlate_keys`` / ``correlate`` remain
the reference X_chi the view maps are tested against.

The relaxed, distance-based correlation RPRISM adds on top (Sec. 5) is
implemented in :mod:`repro.core.view_diff`, which knows the anchor points
the relaxation is measured from.
"""

from __future__ import annotations

from typing import Callable

from repro.core.entries import TraceEntry
from repro.core.keytable import KeyTable
from repro.core.values import ValueRep
from repro.core.views import ViewName, ViewType
from repro.core.web import ObjectInfo, ThreadInfo, ViewWeb


def _ancestry_keys(info: ThreadInfo,
                   frame_key: Callable) -> list[tuple]:
    """Per-level spawn-stack comparison keys, computed once per thread
    (the seed rebuilt every ``frame.key()`` tuple inside the O(T^2)
    scoring loop)."""
    return [tuple(frame_key(frame) for frame in stack)
            for stack in info.ancestry]


def _keyed_similarity(a_stacks: list[tuple], b_stacks: list[tuple]) -> float:
    """Ancestry similarity over precomputed per-level key stacks."""
    if not a_stacks and not b_stacks:
        return 1.0
    if not a_stacks or not b_stacks:
        return 0.0
    levels = max(len(a_stacks), len(b_stacks))
    total = 0.0
    for stack_a, stack_b in zip(a_stacks, b_stacks):
        if not stack_a and not stack_b:
            total += 1.0
            continue
        frames = max(len(stack_a), len(stack_b))
        common = 0
        for ka, kb in zip(stack_a, stack_b):
            if ka == kb:
                common += 1
            else:
                break
        total += common / frames if frames else 1.0
    return total / levels


def ancestry_similarity(a: ThreadInfo, b: ThreadInfo) -> float:
    """Similarity score between two threads' spawn ancestries.

    Compares the per-ancestor spawn stacks outermost-first, scoring each
    level by the longest common prefix of frame keys; levels beyond the
    shorter ancestry score zero.  The result is normalised to [0, 1], with
    1 meaning identical ancestry (including both being main threads).
    """
    frame_key = lambda frame: frame.key()  # noqa: E731
    return _keyed_similarity(_ancestry_keys(a, frame_key),
                             _ancestry_keys(b, frame_key))


class ViewCorrelator:
    """Pairwise view correlation between a left and a right trace web.

    Every comparison key the correlator builds — stack-frame keys for
    X_TH, representation and creation keys for X_TO / X_AO — is
    interned through a *correlator-private* :class:`KeyTable`, so
    scoring compares and hashes dense ints.  The table is private on
    purpose: these keys are only ever compared within one correlator,
    and interning them into a long-lived shared table (a session's
    ingest table) would grow it with every diff.
    """

    def __init__(self, left: ViewWeb, right: ViewWeb,
                 key_table: KeyTable | None = None):
        self.left = left
        self.right = right
        self.key_table = key_table if key_table is not None else KeyTable()
        self._thread_map = self._correlate_threads()
        self._object_map = self._correlate_objects()
        self._view_maps: dict[ViewType, list[int]] = {}

    def _key(self, value):
        """Intern a comparison key."""
        return self.key_table.intern(value)

    # -- thread correlation (X_TH) ------------------------------------------

    def _correlate_threads(self) -> dict[int, int]:
        """Best-match assignment over all thread pairs by ancestry score."""
        intern = self.key_table.intern
        frame_key = lambda frame: intern(frame.key())  # noqa: E731
        left_threads = [(lt, _ancestry_keys(lt, frame_key))
                        for lt in self.left.threads.values()]
        right_threads = [(rt, _ancestry_keys(rt, frame_key))
                         for rt in self.right.threads.values()]
        scored: list[tuple[float, int, int]] = []
        for lt, lt_stacks in left_threads:
            for rt, rt_stacks in right_threads:
                score = _keyed_similarity(lt_stacks, rt_stacks)
                if score > 0.0:
                    scored.append((score, lt.tid, rt.tid))
        # Greedy assignment, highest score first; ties broken by tid order
        # so the mapping is deterministic.
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        mapping: dict[int, int] = {}
        used_right: set[int] = set()
        for _score, ltid, rtid in scored:
            if ltid in mapping or rtid in used_right:
                continue
            mapping[ltid] = rtid
            used_right.add(rtid)
        return mapping

    def thread_pairs(self) -> list[tuple[int, int]]:
        """All correlated (left tid, right tid) pairs."""
        return sorted(self._thread_map.items())

    def correlated_thread(self, ltid: int) -> int | None:
        return self._thread_map.get(ltid)

    # -- object correlation (X_TO / X_AO) -----------------------------------

    def _correlate_objects(self) -> dict[int, int]:
        """Map left object locations to right object locations.

        Priority 1: equal non-empty value representations (class name +
        serialisation).  Priority 2: equal (class name, creation sequence
        number).  Each right object is used at most once.
        """
        by_rep: dict[object, list[int]] = {}
        by_seq: dict[object, int] = {}
        for info in self.right.objects.values():
            if info.serialization is not None:
                rep_key = self._key((info.class_name, info.serialization))
                by_rep.setdefault(rep_key, []).append(info.location)
            if info.creation_seq is not None:
                seq_key = self._key((info.class_name, info.creation_seq))
                by_seq[seq_key] = info.location
        mapping: dict[int, int] = {}
        used_right: set[int] = set()
        # Deterministic order: by left location.
        for location in sorted(self.left.objects):
            info = self.left.objects[location]
            chosen: int | None = None
            if info.serialization is not None:
                rep_key = self._key((info.class_name, info.serialization))
                for candidate in by_rep.get(rep_key, ()):
                    if candidate not in used_right:
                        chosen = candidate
                        break
            if chosen is None and info.creation_seq is not None:
                seq_key = self._key((info.class_name, info.creation_seq))
                candidate = by_seq.get(seq_key)
                if candidate is not None and candidate not in used_right:
                    chosen = candidate
            if chosen is not None:
                mapping[location] = chosen
                used_right.add(chosen)
        return mapping

    def correlated_object(self, left_location: int) -> int | None:
        return self._object_map.get(left_location)

    def object_pairs(self) -> list[tuple[int, int]]:
        return sorted(self._object_map.items())

    # -- view-id maps (the engine's X_chi) -----------------------------------

    def view_map(self, vtype: ViewType) -> list[int]:
        """X_chi over view ids: ``view_map(vtype)[v]`` is the id of the
        right view of type ``vtype`` correlated with left view ``v``
        (ids of :meth:`ViewWeb.columns`), or ``-1`` when there is none.

        Two entries' views of this type correlate exactly when
        ``view_map[left view id] == right view id`` — the answer
        :meth:`correlate_keys` gives, computed once per view instead
        of once per entry pair.
        """
        mapping = self._view_maps.get(vtype)
        if mapping is None:
            if vtype is ViewType.THREAD:
                partner = self._thread_map.get
            elif vtype is ViewType.METHOD:
                partner = None
            elif vtype in (ViewType.TARGET_OBJECT, ViewType.ACTIVE_OBJECT):
                partner = self._object_map.get
            else:
                raise ValueError(f"unknown view type: {vtype}")
            right = self.right.columns(vtype).by_key
            keys = self.left.columns(vtype).keys
            if partner is not None:
                keys = map(partner, keys)
            mapping = [right.get(key, -1) for key in keys]
            self._view_maps[vtype] = mapping
        return mapping

    # -- the generic X_chi entry point ---------------------------------------

    def correlate_keys(self, entry_l: TraceEntry, entry_r: TraceEntry,
                       vtype: ViewType) -> tuple | None:
        """``X_chi(tau_l, tau_r)`` over raw view keys: the correlated
        ``(kappa_l, kappa_r)`` pair of type ``vtype`` containing the two
        entries, or ``None`` (no ViewName objects are built).  The
        reference for :meth:`view_map`."""
        if vtype is ViewType.THREAD:
            if self._thread_map.get(entry_l.tid) == entry_r.tid:
                return (entry_l.tid, entry_r.tid)
            return None
        if vtype is ViewType.METHOD:
            if entry_l.method == entry_r.method:
                return (entry_l.method, entry_r.method)
            return None
        if vtype is ViewType.TARGET_OBJECT:
            return self._object_key_pair(entry_l.event.target(),
                                         entry_r.event.target())
        if vtype is ViewType.ACTIVE_OBJECT:
            return self._object_key_pair(entry_l.active, entry_r.active)
        raise ValueError(f"unknown view type: {vtype}")

    def correlate(self, entry_l: TraceEntry, entry_r: TraceEntry,
                  vtype: ViewType) -> tuple[ViewName, ViewName] | None:
        """``X_chi(tau_l, tau_r)``: the correlated view-name pair of type
        ``vtype`` containing the two entries, or ``None``."""
        keys = self.correlate_keys(entry_l, entry_r, vtype)
        if keys is None:
            return None
        return (ViewName(vtype, keys[0]), ViewName(vtype, keys[1]))

    def _object_key_pair(self, left_obj: ValueRep | None,
                         right_obj: ValueRep | None) -> tuple | None:
        if (left_obj is None or right_obj is None
                or left_obj.location is None or right_obj.location is None):
            return None
        if self._object_map.get(left_obj.location) == right_obj.location:
            return (left_obj.location, right_obj.location)
        return None

    # -- bulk correlated view pairs ------------------------------------------

    def correlated_view_pairs(self, vtype: ViewType) -> list[
            tuple[ViewName, ViewName]]:
        """All correlated view-name pairs of the given type that exist as
        materialised views in both webs."""
        pairs: list[tuple[ViewName, ViewName]] = []
        if vtype is ViewType.THREAD:
            for ltid, rtid in self.thread_pairs():
                ln = ViewName(vtype, ltid)
                rn = ViewName(vtype, rtid)
                if self.left.view(ln) and self.right.view(rn):
                    pairs.append((ln, rn))
        elif vtype is ViewType.METHOD:
            left_names = set(self.left.view_names_of_type(vtype))
            for rn in self.right.view_names_of_type(vtype):
                ln = ViewName(vtype, rn.key)
                if ln in left_names:
                    pairs.append((ln, rn))
            pairs.sort(key=lambda p: str(p[0].key))
        else:
            for lloc, rloc in self.object_pairs():
                ln = ViewName(vtype, lloc)
                rn = ViewName(vtype, rloc)
                if self.left.view(ln) and self.right.view(rn):
                    pairs.append((ln, rn))
        return pairs


def object_identity_key(info: ObjectInfo) -> tuple:
    """Cross-version identity heuristic used in tests and reports."""
    if info.serialization is not None:
        return ("rep", info.class_name, info.serialization)
    return ("seq", info.class_name, info.creation_seq)
