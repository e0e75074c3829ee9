"""The view web: every view of a trace, linked through trace positions.

The web sits on a *per-trace view index* (:func:`view_index`), cached
on the :class:`~repro.core.traces.Trace` next to its digest and thread
list, so every web and every diff over one trace shares one index.
The index is *lazy and columnar*: the columns of a
:class:`~repro.core.views.ViewType` are built by one O(n) pass over
the entries the first time something asks for that type
(:class:`TypeIndex`), and the per-object / per-thread correlation
metadata of Sec. 3.1 is gathered in its own single pass on first
access.  A diff that never explores, say, active-object views never
pays for building them; ``built_view_types()`` exposes what has
actually been built (the laziness contract the tests pin down).

The differencing engine reads the integer columns directly.
:class:`~repro.core.views.View` objects are materialised only for the
public accessors (``typed_view``, ``views_of_type``, ``counts``, ...).
The index holds no reference back to its trace: a trace -> index ->
trace cycle would keep traces alive until a full collection.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass

from repro.core.entries import TraceEntry
from repro.core.events import Fork, Init, StackFrame
from repro.core.traces import Trace
from repro.core.values import ValueRep
from repro.core.views import (KEY_MAPPINGS, View, ViewName, ViewType,
                              view_names)


@dataclass(frozen=True, slots=True)
class ObjectInfo:
    """Correlation-relevant facts about one object in one trace."""

    location: int
    class_name: str
    creation_seq: int | None
    serialization: object
    init_eid: int | None


@dataclass(frozen=True, slots=True)
class ThreadInfo:
    """Correlation-relevant facts about one thread in one trace."""

    tid: int
    #: Spawn ancestry captured by the fork event that created this thread
    #: (empty for the main thread).
    ancestry: tuple[tuple[StackFrame, ...], ...]
    fork_eid: int | None


class TypeIndex:
    """The views of one type over one trace, as integer columns.

    Views are numbered by first appearance (the *view id*).  For trace
    position ``p``: ``view_of[p]`` is the id of the view holding the
    entry (``-1`` when the entry belongs to no view of this type) and
    ``position[p]`` is its position inside that view.  ``members[v]``
    lists the trace positions of view ``v`` in order, ``keys[v]`` is its
    key ``kappa`` and ``by_key`` inverts ``keys``.
    """

    __slots__ = ("keys", "by_key", "view_of", "position", "members")

    def __init__(self, key_column):
        by_key: dict = {}
        new_view = by_key.setdefault
        view_of = [-1 if key is None else new_view(key, len(by_key))
                   for key in key_column]
        members: list[list[int]] = [[] for _ in by_key]
        position = [-1] * len(view_of)
        for pos, vid in enumerate(view_of):
            if vid >= 0:
                column = members[vid]
                position[pos] = len(column)
                column.append(pos)
        # Ids and positions are below the trace length: 2 bytes a row
        # cover every trace under 32k entries.
        typecode = "h" if len(view_of) < 1 << 15 else "i"
        self.keys = list(by_key)
        self.by_key = by_key
        self.view_of = array(typecode, view_of)
        self.position = array(typecode, position)
        self.members = [array("I", column) for column in members]


#: Serialises index builds; builds are rare (once per type per trace),
#: so one process-wide lock costs nothing measurable.
_BUILD_LOCK = threading.Lock()


class ViewIndex:
    """Everything the views engine derives from one trace, built lazily.

    Methods take the trace (or its entries) as an argument instead of
    holding it, so the index can live on the trace without a cycle.
    """

    __slots__ = ("_types", "_objects", "_threads")

    def __init__(self):
        self._types: dict[ViewType, TypeIndex] = {}
        self._objects: dict[int, ObjectInfo] | None = None
        self._threads: dict[int, ThreadInfo] | None = None

    def built_types(self) -> frozenset[ViewType]:
        return frozenset(self._types)

    def typed(self, vtype: ViewType, entries) -> TypeIndex:
        """The columns of ``vtype``, built on first demand."""
        index = self._types.get(vtype)
        if index is None:
            key_of = KEY_MAPPINGS.get(vtype)
            if key_of is None:
                raise ValueError(f"unknown view type: {vtype!r}")
            with _BUILD_LOCK:
                index = self._types.get(vtype)
                if index is None:
                    index = TypeIndex(map(key_of, entries))
                    self._types[vtype] = index
        return index

    def metadata(self, trace: Trace) -> tuple[dict[int, ObjectInfo],
                                              dict[int, ThreadInfo]]:
        """The object and thread metadata of Sec. 3.1, one pass."""
        if self._threads is None:
            with _BUILD_LOCK:
                if self._threads is None:
                    self._objects, self._threads = _gather_metadata(trace)
        return self._objects, self._threads


def view_index(trace: Trace) -> ViewIndex:
    """The trace's view index, created on first use and cached on the
    trace (traces are immutable by convention)."""
    index = trace._view_index
    if index is None:
        with _BUILD_LOCK:
            index = trace._view_index
            if index is None:
                index = trace._view_index = ViewIndex()
    return index


def _gather_metadata(trace: Trace) -> tuple[dict[int, ObjectInfo],
                                            dict[int, ThreadInfo]]:
    objects: dict[int, ObjectInfo] = {}
    seen_tids: dict[int, ThreadInfo] = {}
    for entry in trace.entries:
        _note_metadata(entry, objects, seen_tids)
    # Threads that never appear in a fork event (e.g. the main thread)
    # still deserve ThreadInfo records.
    for tid in trace.thread_ids():
        if tid not in seen_tids:
            seen_tids[tid] = ThreadInfo(tid=tid, ancestry=(), fork_eid=None)
    return objects, seen_tids


def _note_metadata(entry: TraceEntry, objects: dict[int, ObjectInfo],
                   seen_tids: dict[int, ThreadInfo]) -> None:
    event = entry.event
    if isinstance(event, Init):
        obj = event.obj
        if obj.location is not None and obj.location not in objects:
            objects[obj.location] = ObjectInfo(
                location=obj.location,
                class_name=obj.class_name,
                creation_seq=obj.creation_seq,
                serialization=obj.serialization,
                init_eid=entry.eid,
            )
    elif isinstance(event, Fork):
        seen_tids[event.child_tid] = ThreadInfo(
            tid=event.child_tid,
            ancestry=event.ancestry,
            fork_eid=entry.eid,
        )
    # Objects first observed outside an init (e.g. pre-existing
    # receivers) are registered lazily from any event target.
    target = event.target()
    if (target is not None and target.location is not None
            and target.location not in objects):
        objects[target.location] = ObjectInfo(
            location=target.location,
            class_name=target.class_name,
            creation_seq=target.creation_seq,
            serialization=target.serialization,
            init_eid=None,
        )


class ViewWeb:
    """All views of a single trace, plus object/thread metadata.

    A thin handle over the trace's :class:`ViewIndex`: ``columns(vtype)``
    hands the engine the integer columns, and the public accessors
    materialise :class:`View` objects on demand (one per view, reused).
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.index = view_index(trace)
        self._views: dict[tuple[ViewType, int], View] = {}

    # -- columns ----------------------------------------------------------

    def built_view_types(self) -> frozenset[ViewType]:
        """The view types built so far (laziness introspection)."""
        return self.index.built_types()

    def columns(self, vtype: ViewType) -> TypeIndex:
        """The integer columns of one view type (built on demand)."""
        return self.index.typed(vtype, self.trace.entries)

    @property
    def objects(self) -> dict[int, ObjectInfo]:
        return self.index.metadata(self.trace)[0]

    @property
    def threads(self) -> dict[int, ThreadInfo]:
        return self.index.metadata(self.trace)[1]

    # -- lookup -----------------------------------------------------------

    def _view(self, vtype: ViewType, columns: TypeIndex, vid: int) -> View:
        view = self._views.get((vtype, vid))
        if view is None:
            view = self._views.setdefault((vtype, vid), View(
                ViewName(vtype, columns.keys[vid]), self.trace, columns,
                vid))
        return view

    def view(self, name: ViewName) -> View | None:
        return self.typed_view(name.vtype, name.key)

    def typed_view(self, vtype: ViewType, key) -> View | None:
        """Raw-key lookup (``<chi, kappa>`` without a ViewName object)."""
        columns = self.columns(vtype)
        vid = columns.by_key.get(key)
        if vid is None:
            return None
        return self._view(vtype, columns, vid)

    def views_of_type(self, vtype: ViewType) -> list[View]:
        columns = self.columns(vtype)
        return [self._view(vtype, columns, vid)
                for vid in range(len(columns.keys))]

    def view_names_of_type(self, vtype: ViewType) -> list[ViewName]:
        return [ViewName(vtype, key) for key in self.columns(vtype).keys]

    def all_views(self) -> list[View]:
        views = []
        for vtype in ViewType:
            views.extend(self.views_of_type(vtype))
        return views

    def thread_view(self, tid: int) -> View | None:
        return self.typed_view(ViewType.THREAD, tid)

    def method_view(self, method: str) -> View | None:
        return self.typed_view(ViewType.METHOD, method)

    def target_object_view(self, location: int) -> View | None:
        return self.typed_view(ViewType.TARGET_OBJECT, location)

    def active_object_view(self, location: int) -> View | None:
        return self.typed_view(ViewType.ACTIVE_OBJECT, location)

    def views_of_entry(self, entry: TraceEntry) -> list[View]:
        """Navigate the web: all views an entry belongs to (Sec. 2.4)."""
        found = []
        for name in view_names(entry):
            view = self.view(name)
            if view is not None:
                found.append(view)
        return found

    def object_info(self, rep: ValueRep) -> ObjectInfo | None:
        if rep.location is None:
            return None
        return self.objects.get(rep.location)

    # -- statistics (Table 2) ----------------------------------------------

    def counts(self) -> dict[str, int]:
        """View counts in the shape of the paper's Table 2."""
        by_type = {vtype: len(self.columns(vtype).keys)
                   for vtype in ViewType}
        return {
            "total": sum(by_type.values()),
            "thread": by_type[ViewType.THREAD],
            "method": by_type[ViewType.METHOD],
            "target_object": by_type[ViewType.TARGET_OBJECT],
            "active_object": by_type[ViewType.ACTIVE_OBJECT],
        }
