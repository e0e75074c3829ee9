"""Trace containers.

A trace ``gamma = tau_1 . ... . tau_n`` is a sequence of trace entries;
``len(trace)`` is ``|gamma|``.  Traces are identified by a ``name``
(the paper's superscript, e.g. ``gamma^L`` / ``gamma^R``).

``TraceBuilder`` is the write-side used by the interpreter and the capture
layer: it assigns entry identifiers, tracks per-thread call stacks, and owns
the per-trace :class:`~repro.core.values.ObjectRegistry`.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.entries import TraceEntry
from repro.core.events import (Call, End, Event, FieldGet, FieldSet, Fork,
                               Init, Return, StackFrame)
from repro.core.values import UNIT, ObjectRegistry, ValueRep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.keytable import KeyTable


class LazyEntrySequence:
    """A list-like sequence of :class:`TraceEntry` built on demand.

    ``source`` builds entries: ``source.entry(position)`` constructs the
    entry at an absolute backing position.  Every constructed entry is
    memoised in a cache shared by all slices of the sequence, so an
    entry is built at most once per trace no matter how the trace is
    sliced.  Two sources exist: a :class:`TraceBuilder`'s rows (a
    captured or interpreted trace) and the serialisation-v3 decoder
    (:mod:`repro.analysis.serialize`).  ``owner`` pins whatever object
    keeps the backing buffer alive (e.g. a mapped shared-memory
    segment).

    A source may also offer *columns*, each covering every backing
    position, that let consumers read a trace without building its
    entries:

    * ``source.eids`` — the eid column (``range(n)`` when eids are the
      positions, as for every capture);
    * ``source.tids`` — the thread-id column;
    * ``source.view_keys(vtype)`` — the raw view key ``kappa`` of each
      entry (``None`` where the entry is in no view of that type),
      exactly what :data:`repro.core.views.KEY_MAPPINGS` computes;
    * ``source.metadata_rows(positions)`` — ``(eid, is_init, target,
      fork)`` per position, ``fork`` being ``(child_tid, ancestry)``
      for fork entries and ``None`` otherwise (the Sec. 3.1 metadata).

    The accessors below return those columns in sequence order (slices
    included), or ``None`` when the source lacks one.
    """

    __slots__ = ("source", "_positions", "_cache", "owner")

    def __init__(self, source, length: int | None = None, *, owner=None,
                 _positions: range | None = None,
                 _cache: "list | None" = None):
        self.source = source
        if _positions is None:
            _positions = range(length or 0)
        self._positions = _positions
        self._cache = [None] * len(_positions) if _cache is None else _cache
        self.owner = owner

    def __len__(self) -> int:
        return len(self._positions)

    def _entry_at(self, position: int) -> TraceEntry:
        entry = self._cache[position]
        if entry is None:
            entry = self._cache[position] = self.source.entry(position)
        return entry

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LazyEntrySequence(self.source, owner=self.owner,
                                     _positions=self._positions[index],
                                     _cache=self._cache)
        return self._entry_at(self._positions[index])

    def __iter__(self) -> Iterator[TraceEntry]:
        cache = self._cache
        build = self.source.entry
        for position in self._positions:
            entry = cache[position]
            if entry is None:
                entry = cache[position] = build(position)
            yield entry

    def __eq__(self, other):
        if isinstance(other, (list, tuple, LazyEntrySequence)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"LazyEntrySequence({len(self)} entr(ies), "
                f"{self.materialised()} materialised)")

    def materialised(self) -> int:
        """How many entries of this sequence have been built so far."""
        cache = self._cache
        return sum(1 for p in self._positions if cache[p] is not None)

    # -- column hooks --------------------------------------------------------

    def _in_order(self, column):
        """A backing column restricted to this sequence, in order."""
        positions = self._positions
        if positions.step == 1:
            if len(positions) == len(self._cache):
                return column
            return column[positions.start:positions.stop]
        return [column[position] for position in positions]

    def eid_column(self):
        """The eids in sequence order (a ``range`` when they are the
        positions of a capture), or ``None``."""
        column = getattr(self.source, "eids", None)
        return None if column is None else self._in_order(column)

    def iter_tids(self):
        """The thread-id column in sequence order, without building a
        single entry — ``None`` when the source supplies no column."""
        column = getattr(self.source, "tids", None)
        return None if column is None else self._in_order(column)

    def view_keys(self, vtype):
        """The raw view keys of ``vtype`` in sequence order, or
        ``None``."""
        hook = getattr(self.source, "view_keys", None)
        column = None if hook is None else hook(vtype)
        return None if column is None else self._in_order(column)

    def metadata_rows(self):
        """``(eid, is_init, target, fork)`` per entry, or ``None``."""
        hook = getattr(self.source, "metadata_rows", None)
        return None if hook is None else hook(self._positions)


class Trace:
    """An immutable-by-convention sequence of trace entries.

    Immutability is what makes the derived data safe to cache: the
    distinct-thread list, the fingerprint, the content digest and the
    view index (:func:`repro.core.web.view_index`) are computed at most
    once, and :class:`TraceBuilder` (the only sanctioned mutator) snapshots
    the entry list on every :meth:`TraceBuilder.build`, so a built trace
    never sees later recording.

    ``key_table`` / ``key_ids`` carry the interned ``=e`` representation
    when the trace was ingested through a
    :class:`~repro.core.keytable.KeyTable` (capture with a session
    table, or a format-v2 trace file): ``key_ids[i]`` is the dense id of
    ``entries[i].key()`` in ``key_table``.  Both are ``None`` for
    uninterned traces — every consumer falls back to key tuples.
    """

    __slots__ = ("name", "entries", "metadata", "_key_table", "key_ids",
                 "_thread_ids", "_fingerprint", "_content_digest",
                 "_view_index")

    def __init__(self, entries: Iterable[TraceEntry] = (), name: str = "",
                 metadata: dict | None = None,
                 key_table: "KeyTable | None" = None,
                 key_ids: "array | None" = None):
        self.name = name
        # Lazy sequences stay lazy (copying into a list would defeat
        # the on-demand decode); anything else is snapshotted so the
        # trace owns its entries.
        if isinstance(entries, LazyEntrySequence):
            self.entries = entries
        else:
            self.entries = list(entries)
        self.metadata: dict = metadata or {}
        self._key_table = key_table
        self.key_ids = key_ids
        self._thread_ids: list[int] | None = None
        self._fingerprint: str | None = None
        self._content_digest: str | None = None
        # The per-trace view index (repro.core.web.view_index), built
        # on first demand and cached like the digest and thread list.
        self._view_index = None

    @property
    def key_table(self) -> "KeyTable | None":
        """The trace's interned ``=e`` table (or None).

        Lazy decoders pass a zero-argument *thunk* instead of a table;
        the first access materialises it and caches the result, so a
        v3-loaded trace whose table is never consulted never parses
        its key section at all.
        """
        table = self._key_table
        if callable(table):
            table = table()
            self._key_table = table
        return table

    @key_table.setter
    def key_table(self, table: "KeyTable | None") -> None:
        self._key_table = table

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Materialise the selected positions once and apply them to
            # *both* columns: entries (a list) and key_ids (an array, or
            # any caller-provided sequence) must select the exact same
            # positions — including under extended slices (step != 1) —
            # or interned compares on the sliced trace would silently
            # use the wrong ids.
            column = None
            if self.key_ids is not None:
                if len(self.key_ids) != len(self.entries):
                    raise ValueError(
                        f"trace {self.name!r}: key column carries "
                        f"{len(self.key_ids)} id(s) for "
                        f"{len(self.entries)} entries — the trace was "
                        f"mutated after interning; rebuild it instead")
                picked = range(*index.indices(len(self.entries)))
                column = array("I", (self.key_ids[i] for i in picked))
            return Trace(self.entries[index], name=self.name,
                         metadata=dict(self.metadata),
                         key_table=self.key_table,
                         key_ids=column)
        return self.entries[index]

    def eid_column(self):
        """The entries' eids in trace order, read from the sequence's
        eid column when it has one (a ``range`` for a capture and its
        slices), so no entry is built."""
        entries = self.entries
        if isinstance(entries, LazyEntrySequence):
            column = entries.eid_column()
            if column is not None:
                return column
        return [entry.eid for entry in entries]

    def thread_ids(self) -> list[int]:
        """Distinct thread identifiers, in order of first appearance
        (computed once; traces are immutable by convention)."""
        if self._thread_ids is None:
            tids = self.entries.iter_tids() \
                if isinstance(self.entries, LazyEntrySequence) else None
            if tids is None:
                tids = (entry.tid for entry in self.entries)
            seen: dict[int, None] = {}
            for tid in tids:
                if tid not in seen:
                    seen[tid] = None
            self._thread_ids = list(seen)
        return list(self._thread_ids)

    def fingerprint(self) -> str:
        """A cheap *provenance* fingerprint (name, length, per-entry
        thread and event kind), cached after the first call.

        **Provenance only** — never an identity.  Two traces with the
        same shape (equal names, lengths, thread columns, and event
        kinds) but different methods, arguments, or values share a
        fingerprint, so it must not be used as a cache key or an
        equality hint; that is :meth:`content_digest`'s job.  The
        fingerprint survives in store metadata because it is priced to
        be callable on every save and is useful for tracing where a
        file came from.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=12)
            digest.update(self.name.encode("utf-8", "replace"))
            digest.update(len(self.entries).to_bytes(8, "little"))
            for entry in self.entries:
                digest.update(b"%d:%s;" % (entry.tid,
                                           entry.event.kind.encode()))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def content_digest(self) -> str:
        """A strong content digest, suitable as a cache key.

        Covers the complete entry sequence: eids, thread ids, methods,
        active object representations, and the full events — a strict
        superset of the ``=e`` key (object locations, creation sequence
        numbers, and the entry identifiers feed the views, the
        correlators, and the eid-addressed diff results even though
        ``=e`` excludes them).  Deliberately *excludes* the trace
        ``name`` and ``metadata`` (provenance, not content), and is
        independent of whether the trace carries an interned key
        column — the same content always digests the same, so
        v2-loaded and freshly captured traces meet in one cache entry.
        Digest equality therefore implies the traces are
        indistinguishable to every differencing engine, which is what
        lets a cached result rehydrate exactly.

        Invalidation semantics: traces are immutable by convention
        (see the class docstring), so the digest is computed once and
        cached.  Code that mutates ``entries`` in place violates that
        convention and must rebuild the trace (``Trace(entries, ...)``)
        to get a fresh digest; the
        :class:`~repro.cache.DiffCache` relies on this.
        """
        if self._content_digest is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"trace-content-v1;")
            digest.update(len(self.entries).to_bytes(8, "little"))
            for entry in self.entries:
                # Frozen-dataclass reprs are deterministic functions of
                # the field values (strings, ints, floats, None, and
                # nested tuples/dataclasses), so equal content yields
                # equal bytes across processes and sessions.
                digest.update(repr(entry).encode("utf-8", "replace"))
                digest.update(b";")
            self._content_digest = digest.hexdigest()
        return self._content_digest

    def methods(self) -> set[str]:
        return {entry.method for entry in self.entries}

    def event_kinds(self) -> dict[str, int]:
        """Histogram of event kinds, useful for stats and tests."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            kind = entry.event.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump (mostly for examples and debugging)."""
        lines = []
        shown = self.entries if limit is None else self.entries[:limit]
        for entry in shown:
            lines.append(entry.brief())
        if limit is not None and len(self.entries) > limit:
            lines.append(f"... ({len(self.entries) - limit} more entries)")
        return "\n".join(lines)


#: Event codes of a builder row, in the order of the v3 wire codes.
GET, SET, CALL, RETURN, INIT, FORK, END = range(7)

#: Method of entries recorded outside every call (the main body).
ROOT_METHOD = "<main>"


def _init_event(obj, class_name, args) -> Init:
    return Init(class_name, args, obj)


def _fork_event(_target, child_tid, ancestry) -> Fork:
    return Fork(child_tid, ancestry)


def _end_event(_target, tid, ancestry) -> End:
    return End(tid, ancestry)


#: Row code -> event constructor over the row's ``(target, b, c)``.
_ROW_EVENTS = (FieldGet, FieldSet, Call, Return, _init_event, _fork_event,
               _end_event)


def _row_event(row: tuple) -> Event:
    _tid, _frame, code, target, b, c = row
    return _ROW_EVENTS[code](target, b, c)


class _Rows:
    """The entry source of a built trace: the builder's rows.

    A row is ``(tid, frame, code, target, b, c)``: ``frame`` is the
    open stack frame ``(method, caller, callee)`` when the event fired
    (``None`` at top level), ``code`` the event code, ``target`` the
    event's target representation (``None`` for fork/end) and ``b``,
    ``c`` the rest of the event — field and value, method and
    arguments, method and return value, class name and arguments, or
    thread id and ancestry.  Entries are built from rows on demand; the
    columns below are read straight off the rows.
    """

    __slots__ = ("rows", "eids")

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        self.eids = range(len(rows))

    def entry(self, position: int) -> TraceEntry:
        row = self.rows[position]
        frame = row[1]
        if frame is None:
            return TraceEntry(position, row[0], ROOT_METHOD, None,
                              _row_event(row))
        return TraceEntry(position, row[0], frame[0], frame[2],
                          _row_event(row))

    @property
    def tids(self) -> list[int]:
        return [row[0] for row in self.rows]

    def view_keys(self, vtype) -> list | None:
        from repro.core.views import ViewType  # views imports this module
        rows = self.rows
        if vtype is ViewType.THREAD:
            return self.tids
        if vtype is ViewType.METHOD:
            return [ROOT_METHOD if row[1] is None else row[1][0]
                    for row in rows]
        if vtype is ViewType.TARGET_OBJECT:
            return [None if row[3] is None else row[3].location
                    for row in rows]
        if vtype is ViewType.ACTIVE_OBJECT:
            return [None if row[1] is None or row[1][2] is None
                    else row[1][2].location for row in rows]
        return None

    def metadata_rows(self, positions):
        rows = self.rows
        for position in positions:
            _tid, _frame, code, target, b, c = rows[position]
            yield (position, code == INIT, target,
                   (b, c) if code == FORK else None)


class TraceBuilder:
    """Write-side of a trace: event recording with call-stack tracking.

    The builder mirrors the structure the operational semantics maintains —
    an ordered set of stacks ``S*``, one per thread — and exposes one method
    per evaluation rule that records an entry (CONS-E, FIELD-ACC-E,
    FIELD-ASS-E, METH-E, RETURN-E, FORK-E, END-E).

    Each rule appends one flat row (see :class:`_Rows`) and returns the
    new entry's eid; :meth:`build` hands the rows to a
    :class:`LazyEntrySequence`, which builds a :class:`TraceEntry` only
    when something reads it.  Open frames are ``(method, caller,
    callee)`` tuples; :class:`StackFrame` objects are built only for
    fork/end ancestry.
    """

    ROOT_METHOD = ROOT_METHOD

    def __init__(self, name: str = "",
                 key_table: "KeyTable | None" = None):
        self.name = name
        self.registry = ObjectRegistry()
        self.key_table = key_table
        self._key_ids: array | None = None if key_table is None \
            else array("I")
        self._rows: list[tuple] = []
        #: tid -> open frames, innermost last.
        self._stacks: dict[int, list[tuple]] = {}
        #: tid -> spawn ancestry: the call stacks at each ancestor's
        #: spawn point, outermost ancestor first (the paper's
        #: ``fork(S*)`` payload).
        self._ancestry: dict[int, tuple] = {}
        self._next_location = 1
        self.main_tid = self._spawn_thread(ancestry=())

    # -- thread management -------------------------------------------------

    def _spawn_thread(self, ancestry: tuple[tuple[StackFrame, ...], ...]) -> int:
        tid = len(self._stacks)
        self._stacks[tid] = []
        self._ancestry[tid] = ancestry
        return tid

    def register_thread(self,
                        ancestry: tuple[tuple[StackFrame, ...], ...] = (),
                        ) -> int:
        """Allocate a thread id for a thread not created through a fork
        event (e.g. one that pre-existed trace capture)."""
        return self._spawn_thread(ancestry)

    def stack_depth(self, tid: int) -> int:
        return len(self._stacks[tid])

    def top(self, tid: int) -> tuple | None:
        """The innermost open frame of thread ``tid`` as ``(method,
        caller, callee)`` (None at top level)."""
        stack = self._stacks[tid]
        return stack[-1] if stack else None

    def _lineage(self, tid: int) -> tuple[tuple[StackFrame, ...], ...]:
        """Thread ``tid``'s ancestry plus its current call stack."""
        stack = tuple(StackFrame(*frame) for frame in self._stacks[tid])
        return self._ancestry[tid] + (stack,)

    # -- low-level entry recording -----------------------------------------

    def _record(self, tid: int, code: int, target: ValueRep | None, b, c,
                key: tuple | None = None) -> int:
        """Append one row: the single recording path of every rule.

        ``key`` is the event's ``=e`` key when the caller has already
        built it from the representations it holds (the capture layer
        does); it must equal the event's ``key()``, which is used
        otherwise.  It is interned exactly once here and compared as an
        int everywhere downstream.
        """
        stack = self._stacks[tid]
        row = (tid, stack[-1] if stack else None, code, target, b, c)
        rows = self._rows
        rows.append(row)
        if self._key_ids is not None:
            self._key_ids.append(self.key_table.intern_key(
                _row_event(row).key() if key is None else key))
        return len(rows) - 1

    # -- object creation ----------------------------------------------------

    def fresh_location(self) -> int:
        loc = self._next_location
        self._next_location += 1
        return loc

    def record_init(self, tid: int, class_name: str,
                    args: tuple[ValueRep, ...],
                    serialization: object = None,
                    location: int | None = None) -> ValueRep:
        """CONS-E: create an object, returning its representation."""
        if location is None:
            location = self.fresh_location()
        rep = self.registry.register(location, class_name, serialization)
        self._record(tid, INIT, rep, class_name, args)
        return rep

    def record_init_event(self, tid: int, class_name: str,
                          args: tuple[ValueRep, ...],
                          obj_rep: ValueRep,
                          key: tuple | None = None) -> int:
        """CONS-E variant for capture layers that manage their own object
        registry: records the init entry for an already-built
        representation."""
        return self._record(tid, INIT, obj_rep, class_name, args, key)

    # -- field events ---------------------------------------------------------

    def record_get(self, tid: int, obj: ValueRep, field_name: str,
                   value: ValueRep, key: tuple | None = None) -> int:
        return self._record(tid, GET, obj, field_name, value, key)

    def record_set(self, tid: int, obj: ValueRep, field_name: str,
                   value: ValueRep, key: tuple | None = None) -> int:
        return self._record(tid, SET, obj, field_name, value, key)

    # -- method events ---------------------------------------------------------

    def record_call(self, tid: int, obj: ValueRep, method: str,
                    args: tuple[ValueRep, ...],
                    key: tuple | None = None) -> int:
        """METH-E: the call entry is recorded in the *caller's* context,
        then the new frame is pushed."""
        eid = self._record(tid, CALL, obj, method, args, key)
        stack = self._stacks[tid]
        stack.append((method, stack[-1][2] if stack else None, obj))
        return eid

    def record_return(self, tid: int, value: ValueRep = UNIT,
                      key: tuple | None = None) -> int:
        """RETURN-E: pop the frame, record the return in the caller's
        context.  A caller passing ``key`` builds it from :meth:`top`."""
        stack = self._stacks[tid]
        if not stack:
            raise RuntimeError(f"return with empty stack on thread {tid}")
        method, _caller, callee = stack.pop()
        return self._record(tid, RETURN, callee, method, value, key)

    # -- thread events ---------------------------------------------------------

    def record_fork(self, tid: int) -> int:
        """FORK-E: record thread creation, returning the child tid.

        The fork event captures the spawning thread's current call stack
        appended to its own ancestry, giving the child's full parentage.
        """
        ancestry = self._lineage(tid)
        child_tid = self._spawn_thread(ancestry)
        self._record(tid, FORK, None, child_tid, ancestry)
        return child_tid

    def record_end(self, tid: int) -> int:
        """END-E: record thread completion."""
        return self._record(tid, END, None, tid, self._lineage(tid))

    # -- finishing -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def build(self, metadata: dict | None = None) -> Trace:
        """A trace over a snapshot of the rows recorded so far."""
        entries = LazyEntrySequence(_Rows(list(self._rows)),
                                    len(self._rows))
        if self._key_ids is None:
            return Trace(entries, name=self.name, metadata=metadata)
        return Trace(entries, name=self.name, metadata=metadata,
                     key_table=self.key_table,
                     key_ids=array("I", self._key_ids))
