"""Interned ``=e`` keys: the symbol table behind columnar differencing.

The paper's cost metric is the number of trace-entry compare operations
under event equality ``=e`` (Fig. 9), and every ``=e`` compare in the
seed recomputed ``entry.event.key()`` — a nested tuple — on both sides.
A :class:`KeyTable` maps each distinct key to a dense integer id exactly
once, so the hot loops (the LCS dynamic programs, the lock-step view
matching, the correlation indexes) compare and hash small ints instead
of walking tuple structure.

Sharing model: one table per diff *pair* is the baseline — both traces
interned against the same table get directly comparable ids.  Tables may
also be longer-lived (a capture session interning at ingest, a trace
file carrying its table).  A capture interns into a dict of its own and
merges it into the session's table once, when the trace is built
(:meth:`~repro.core.traces.TraceBuilder.build`, through
:meth:`KeyTable.intern_keys`), so recording an entry takes no lock and
a serial capture gets the ids entry-by-entry interning would have
given.  :meth:`KeyTable.ids_for` bridges the cases by
reusing a carried column when the trace was interned against *this*
table, translating it (one intern per *distinct* key, not per entry)
when it was interned against another, and interning entry by entry only
for wholly uninterned traces.

Interning is a bijection on keys, so any algorithm that only ever asks
"are these two keys equal?" behaves identically over ids and over the
original tuples — which is what keeps interned and tuple-key diffing
result-identical (see ``benchmarks/bench_interning.py``).
"""

from __future__ import annotations

import threading
from array import array
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.entries import TraceEntry
    from repro.core.traces import Trace


class KeyTable:
    """A per-trace-pair (or longer-lived) ``=e`` key symbol table.

    ``intern`` accepts any hashable value, not only entry keys: the
    correlators use the same table for stack-frame keys and object
    representation keys, so every equality decision of a diff pair goes
    through one id space.
    """

    __slots__ = ("_ids", "_keys", "_lock", "key_constructions")

    def __init__(self):
        self._ids: dict[object, int] = {}
        self._keys: list = []
        self._lock = threading.RLock()
        #: How many ``entry.key()`` tuples this table has built — the
        #: benchmarks' "tuple construction" metric.
        self.key_constructions = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyTable({len(self)} key(s))"

    # -- interning ----------------------------------------------------------

    def intern(self, key) -> int:
        """The dense id of ``key``, allocating one on first sight."""
        with self._lock:
            return self._intern_locked(key)

    def _intern_locked(self, key) -> int:
        kid = self._ids.get(key)
        if kid is None:
            kid = len(self._keys)
            self._ids[key] = kid
            self._keys.append(key)
        return kid

    def intern_keys(self, keys: Iterable, constructions: int = 0,
                    ) -> list[int]:
        """The ids of ``keys``, interned in order under one lock.

        ``constructions`` counts entry keys the caller built to get
        ``keys`` (a :class:`~repro.core.traces.TraceBuilder` merging
        its capture-local keys passes one per recorded entry)."""
        with self._lock:
            self.key_constructions += constructions
            return [self._intern_locked(key) for key in keys]

    def intern_entry(self, entry: "TraceEntry") -> int:
        """Intern one entry's ``=e`` key (one key construction)."""
        key = entry.key()
        with self._lock:
            self.key_constructions += 1
            return self._intern_locked(key)

    def intern_entries(self, entries: Iterable["TraceEntry"]) -> array:
        """Intern a whole entry sequence into an id column."""
        column = array("I")
        with self._lock:
            ids = self._ids
            keys = self._keys
            for entry in entries:
                key = entry.key()
                self.key_constructions += 1
                kid = ids.get(key)
                if kid is None:
                    kid = len(keys)
                    ids[key] = kid
                    keys.append(key)
                column.append(kid)
        return column

    # -- lookup -------------------------------------------------------------

    def key_of(self, kid: int):
        """The key a dense id stands for (serialisation needs this to
        write key tables without recomputing ``entry.key()``)."""
        return self._keys[kid]

    def keys(self) -> list:
        """Snapshot of all interned keys, in id order."""
        with self._lock:
            return list(self._keys)

    # -- columns ------------------------------------------------------------

    def translate(self, keys: Sequence, column: Sequence[int]) -> array:
        """Re-express a foreign id ``column`` (whose ids index ``keys``)
        in this table's id space: one intern per distinct key *used by
        the column*, in order of first use and under one lock — a small
        trace never drags a big foreign table's unrelated keys into
        this one."""
        used = list(dict.fromkeys(column))
        mapping = dict(zip(used, self.intern_keys([keys[kid]
                                                   for kid in used])))
        return array("I", map(mapping.__getitem__, column))

    def ids_for(self, trace: "Trace") -> array:
        """The interned id column of ``trace``.

        Preference order: the column the trace already carries (when it
        was interned against this very table — free), a translation of
        a foreign carried column (one intern per distinct key), and
        finally entry-by-entry interning.  The table deliberately keeps
        no per-trace cache of its own (it may be long-lived — a
        session's ingest table — and must not pin traces in memory);
        interning at ingest is what makes repeat diffs cheap.
        """
        carried = trace.key_ids
        if carried is not None and trace.key_table is self:
            return carried
        if carried is not None and trace.key_table is not None:
            return self.translate(trace.key_table.keys(), carried)
        return self.intern_entries(trace.entries)

    @classmethod
    def for_pair(cls, left: "Trace", right: "Trace") -> "KeyTable":
        """The table a diff pair should share: the carried table when
        both traces were interned against the same one (ids line up for
        free), a fresh pair table otherwise."""
        table = left.key_table
        if table is not None and table is right.key_table:
            return table
        return cls()
