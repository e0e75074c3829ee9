"""Cheap construction for the frozen, slotted trace records.

Every trace entry, event, stack frame and value representation is a
``@dataclass(frozen=True, slots=True)``.  The ``__init__`` the dataclass
generates for a frozen class stores each field with
``object.__setattr__(self, name, value)`` (to get past the frozen
``__setattr__``), which looks the field up by name on every store.
Capture builds several such records per trace entry, so that lookup is
a large share of capture time.

:func:`slot_init` swaps in an ``__init__`` that stores each field
through its slot descriptor's setter instead — no name lookup, about a
third of the cost.  Only ``__init__`` changes: the fields, their
defaults, ``repr``, equality, hashing and pickling all stay the
dataclass's own.
"""

from __future__ import annotations

from dataclasses import MISSING, fields


def slot_init(cls: type) -> type:
    """Class decorator, applied *outside* ``@dataclass(frozen=True,
    slots=True)``: give ``cls`` an ``__init__`` with the generated
    signature that writes the slots directly."""
    names, defaults = [], {}
    for spec in fields(cls):
        if spec.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{spec.name}: slot_init does "
                            f"not support default_factory")
        names.append(spec.name)
        if spec.default is not MISSING:
            defaults[f"_default_{spec.name}"] = spec.default
    params = ", ".join(f"{name}=_default_{name}"
                       if f"_default_{name}" in defaults else name
                       for name in names)
    stores = "".join(f"        _set_{name}(self, {name})\n"
                     for name in names)
    outer = ", ".join([f"_set_{name}" for name in names] + list(defaults))
    source = (f"def _make({outer}):\n"
              f"    def __init__(self, {params}):\n{stores}"
              f"    return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)  # noqa: S102 - generated from field names
    init = namespace["_make"](
        *(cls.__dict__[name].__set__ for name in names),
        *defaults.values())
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
