"""Trace entries: ``entry(eid, tid, m, rho, e)`` plus the ``eof`` sentinel.

A trace entry is a five-tuple (Fig. 4): the entry identifier ``eid`` (its
index in the trace), the active thread ``tid``, the method under execution
``m`` (top of the call stack when the event fired), the active object
``rho`` on which ``m`` executes, and the event ``e`` itself.

The differencing semantics (Fig. 8) appends a special ``eof`` entry to each
trace and pads the shorter trace with further ``eof`` entries; ``EOF``
below is that sentinel.  Its event key collides with nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Event
from repro.core.frozen import slot_init
from repro.core.values import ValueRep


@slot_init
@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One entry of an execution trace."""

    eid: int
    tid: int
    method: str
    active: ValueRep | None
    event: Event

    def __repr__(self) -> str:
        # Byte-identical to the generated dataclass repr.  The trace
        # content digest hashes one repr per entry, which makes this
        # the hottest repr in the system — hand-written, it skips the
        # generated version's recursion guard and format machinery (a
        # several-fold difference that shows up directly in capture
        # shipping cost).  Any field change must update this string
        # *and* accepts that stored digests change with it.
        return (f"TraceEntry(eid={self.eid!r}, tid={self.tid!r}, "
                f"method={self.method!r}, active={self.active!r}, "
                f"event={self.event!r})")

    def key(self) -> tuple:
        """Event-equality (``=e``) key; delegates to the event.

        Note the key deliberately excludes ``eid``/``tid`` (per-trace
        identifiers) and the context ``m``/``rho`` — Fig. 9 defines ``=e``
        purely over the event's underlying values.
        """
        return self.event.key()

    @property
    def is_eof(self) -> bool:
        return False

    def brief(self) -> str:
        return f"[{self.eid}@t{self.tid} in {self.method}] {self.event.brief()}"


class _EofEvent(Event):
    """Event carried by the ``eof`` sentinel entry."""

    __slots__ = ()

    kind = "eof"

    def key(self) -> tuple:
        return ("eof",)

    def target(self) -> None:
        return None

    def brief(self) -> str:
        return "eof"


class EofEntry(TraceEntry):
    """The ``eof`` trace entry of Fig. 8 (a singleton, ``EOF``)."""

    @property
    def is_eof(self) -> bool:
        return True

    def brief(self) -> str:
        return "eof"


#: Singleton ``eof`` entry used to pad traces during differencing.
EOF = EofEntry(eid=-1, tid=-1, method="<eof>", active=None, event=_EofEvent())


def entries_equal(a: TraceEntry, b: TraceEntry) -> bool:
    """The event-equality predicate ``=e`` over entries."""
    return a.key() == b.key()
