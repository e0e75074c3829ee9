"""Value and object representations used in trace entries.

The paper's trace grammar (Fig. 4) represents an object simply by its
location ``l``.  For cross-version differencing, Fig. 8 extends the
representation to a tuple ``<l, r>`` where ``r`` is a recursively computed
*serialisation* of the object's value.  Locations are meaningless across
program versions, so event equality (``=e``) and object-view correlation
compare serialisations, never locations.

``ValueRep`` below carries both halves of the extended representation plus
two pieces of derived trace data used by the correlation functions of
Sec. 3.1:

* ``class_name`` — the dynamic type of the value.
* ``creation_seq`` — the class-specific object creation sequence number
  ("derivable from trace data" per the paper), used by X_TO / X_AO when
  serialisations are unavailable or empty.

The RPRISM implementation approximates serialisations with Java's
``hashCode``/``toString`` truncated to 128 characters, forcing the
representation to be empty when a class inherits the defaults from
``java.lang.Object`` (such strings embed identity hashes and are useless
across versions).  ``repr_string`` mirrors this for Python: callers pass the
already-vetted printable form, or ``None`` for the "empty" representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.frozen import slot_init

#: Maximum length of a string-valued serialisation, matching RPRISM's
#: truncation of ``toString`` output.
REPR_TRUNCATION = 128

#: Primitive type tags (the paper's value-object domain ``D``).
PRIM_CLASSES = {
    bool: "Bool",
    int: "Int",
    float: "Float",
    str: "Str",
    bytes: "Bytes",
    type(None): "Null",
}


def truncate_repr(text: str, limit: int = REPR_TRUNCATION) -> str:
    """Truncate a printable representation to ``limit`` characters."""
    if len(text) <= limit:
        return text
    return text[:limit]


@slot_init
@dataclass(frozen=True, slots=True)
class ValueRep:
    """Extended object representation ``<l, r>`` (Fig. 8).

    ``serialization`` is a hashable summary of the value (``r`` in the
    paper): for primitives the ``(D, d)`` pair, for objects either a
    truncated printable form or a recursive tuple of field representations.
    An empty serialisation is represented by ``None``.

    ``location`` (``l``) is the per-trace store location; it identifies the
    object *within one trace* and deliberately does not participate in
    cross-trace equality (see :meth:`key`).
    """

    class_name: str
    serialization: object = None
    location: int | None = None
    creation_seq: int | None = None

    def key(self) -> tuple:
        """Location-free comparison key used by event equality ``=e``."""
        return (self.class_name, self.serialization)

    def __repr__(self) -> str:
        # Byte-identical to the generated dataclass repr (the trace
        # content digest hashes these strings, so the format is part of
        # digest stability) — hand-written because repr is on the
        # digest hot path and the generated one is several times
        # slower.
        return (f"ValueRep(class_name={self.class_name!r}, "
                f"serialization={self.serialization!r}, "
                f"location={self.location!r}, "
                f"creation_seq={self.creation_seq!r})")

    @property
    def is_primitive(self) -> bool:
        return self.location is None and self.creation_seq is None

    def brief(self) -> str:
        """Short printable form for reports."""
        if self.is_primitive:
            return f"{self.class_name}({self.serialization!r})"
        seq = "?" if self.creation_seq is None else self.creation_seq
        return f"{self.class_name}-{seq}"

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.brief()


#: Representation of "no value" (e.g. the return value of a void method).
UNIT = ValueRep(class_name="Unit", serialization=None)


def prim(value: object) -> ValueRep:
    """Build the representation of a primitive value (rule E# for ``D(d)``).

    Raises ``TypeError`` for non-primitive inputs; object representations
    must be built by the store/capture layer that knows locations and
    creation sequence numbers.
    """
    cls = PRIM_CLASSES.get(type(value))
    if cls is None:
        raise TypeError(f"not a primitive value: {value!r}")
    if isinstance(value, str):
        value = truncate_repr(value)
    return ValueRep(class_name=cls, serialization=value)


@dataclass(slots=True)
class ObjectRegistry:
    """Tracks per-class creation sequence numbers and location metadata.

    One registry exists per trace being generated.  ``register`` is called
    when an object is created, yielding its class-specific creation
    sequence number; ``describe`` rebuilds a :class:`ValueRep` for a known
    location (used when an object shows up again later in the trace).
    """

    _next_seq: dict[str, int] = field(default_factory=dict)
    _by_location: dict[int, ValueRep] = field(default_factory=dict)

    def register(self, location: int, class_name: str,
                 serialization: object = None) -> ValueRep:
        seq = self._next_seq.get(class_name, 0) + 1
        self._next_seq[class_name] = seq
        rep = ValueRep(class_name=class_name, serialization=serialization,
                       location=location, creation_seq=seq)
        self._by_location[location] = rep
        return rep

    def describe(self, location: int) -> ValueRep:
        try:
            return self._by_location[location]
        except KeyError:
            raise KeyError(f"unknown location: {location}") from None

    def update_serialization(self, location: int,
                             serialization: object) -> ValueRep:
        """Refresh the stored serialisation after the object mutates."""
        old = self.describe(location)
        rep = ValueRep(class_name=old.class_name, serialization=serialization,
                       location=location, creation_seq=old.creation_seq)
        self._by_location[location] = rep
        return rep

    def known_locations(self) -> list[int]:
        return list(self._by_location)

    def creation_count(self, class_name: str) -> int:
        return self._next_seq.get(class_name, 0)
