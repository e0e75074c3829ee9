"""Value representations for live Python objects.

Mirrors RPRISM's approximation of the formal serialisations (Sec. 5):
Java's ``hashCode``/``toString`` truncated to 128 characters become
``repr`` truncated to 128 characters, and — exactly as RPRISM forces the
representation to be empty for classes inheriting
``java.lang.Object``'s defaults — objects whose class inherits
``object.__repr__`` get an *empty* serialisation, because their printable
form embeds a memory address that is meaningless across program versions.

Object identity within one trace is tracked by a :class:`LiveRegistry`
that assigns fresh locations (and per-class creation sequence numbers) to
Python objects on first sighting; it holds strong references so CPython
cannot recycle an ``id`` mid-trace.
"""

from __future__ import annotations

from types import ModuleType

from repro.core.values import (ObjectRegistry, REPR_TRUNCATION, UNIT,
                               ValueRep, prim, truncate_repr)

#: Types recorded as value objects (the formal ``D(d)`` domain).
_PRIMITIVE_TYPES = (bool, int, float, str, bytes, type(None))

#: Container types summarised by truncated repr, location-free.
_CONTAINER_TYPES = (list, tuple, dict, set, frozenset)


def has_custom_repr(obj: object) -> bool:
    """True when the object's class (or an ancestor below ``object``)
    defines ``__repr__`` — i.e. the printable form is meaningful."""
    return type(obj).__repr__ is not object.__repr__


def safe_repr(obj: object) -> str | None:
    """Truncated ``repr``, or None if it fails (e.g. the object is still
    half-constructed when first sighted inside ``__init__``)."""
    try:
        return truncate_repr(repr(obj))
    except Exception:  # noqa: BLE001 - any user __repr__ failure
        return None


class LiveRegistry:
    """Location assignment for live Python objects (one per trace).

    ``known`` maps ``id(value)`` to the representation of every value
    whose representation follows from its identity alone: the
    singletons ``None``/``True``/``False`` and every registered object
    (pinned, so its ``id`` cannot be reused mid-trace).  The weaver
    reads it directly as its fast path.
    """

    def __init__(self):
        self._core = ObjectRegistry()
        self._pinned: list[object] = []
        self.known: dict[int, ValueRep] = {
            id(None): UNIT, id(True): prim(True), id(False): prim(False)}

    def rep_of(self, obj: object) -> ValueRep:
        """Representation of a (non-primitive) live object, registering it
        on first sight.

        A module serialises as its ``__name__``: its ``repr`` carries
        the file path, which would make traces of the same code differ
        between checkouts.
        """
        rep = self.known.get(id(obj))
        if rep is not None:
            return rep
        self._pinned.append(obj)
        location = len(self._pinned)
        serialization = None
        if isinstance(obj, ModuleType):
            serialization = obj.__name__
        elif has_custom_repr(obj):
            serialization = safe_repr(obj)
        rep = self._core.register(location, type(obj).__name__,
                                  serialization=serialization)
        self.known[id(obj)] = rep
        return rep


def live_value_rep(value: object, registry: LiveRegistry) -> ValueRep:
    """``E'#`` for live Python values."""
    if value is None:
        return UNIT
    if isinstance(value, _PRIMITIVE_TYPES):
        if isinstance(value, (str, bytes)) and len(value) > REPR_TRUNCATION:
            value = value[:REPR_TRUNCATION]
        return prim(value)
    if isinstance(value, _CONTAINER_TYPES):
        return ValueRep(class_name=type(value).__name__,
                        serialization=truncate_repr(repr(value)))
    return registry.rep_of(value)
