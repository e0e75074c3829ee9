"""Pluggable trace-differencing engines.

The seed hard-wired ``algorithm="views"`` string branching into both
:mod:`repro.analysis.rprism` and :mod:`repro.analysis.cli`.  This module
replaces that with a small registry: a :class:`DiffEngine` is anything
with a ``name`` and a ``diff(left, right, ...)`` method producing a
:class:`repro.core.diffs.DiffResult`, and the built-in semantics — the
views-based differencing of Sec. 3.3 and every LCS baseline of Sec. 3.2 —
are pre-registered under stable names.

Drivers (``Session``, the CLI, the workload harness) resolve engines by
name, so swapping the analysis behind a stable driver API is one
``register_engine`` call::

    from repro.api import DiffEngine, register_engine

    class MyEngine:
        name = "mine"
        def diff(self, left, right, *, config=None, counter=None,
                 budget=None, key_table=None):
            ...

    register_engine(MyEngine())
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from typing import Protocol, runtime_checkable

from repro.core.anchors import AnchorConfig, segmental_diff
from repro.core.diffs import DiffResult
from repro.core.keytable import KeyTable
from repro.core.lcs import MemoryBudget, OpCounter
from repro.core.lcs_diff import ALGORITHMS, lcs_diff
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig, view_diff

#: Name prefix of the anchored meta-engines (``anchored:<inner>``).
ANCHORED_PREFIX = "anchored:"

#: Default inner engine for ``anchored:*`` gap segments: the
#: bit-parallel Myers LCS (hardware-speed on the interned id columns,
#: pairs and compare counts identical to ``hirschberg``).
DEFAULT_GAP_INNER = "bitparallel"


@runtime_checkable
class DiffEngine(Protocol):
    """What a differencing backend must provide.

    Drivers call ``diff`` with the keywords ``config``, ``counter``,
    ``budget`` and ``key_table``; an engine accepts all four and
    ignores the ones it does not use.  ``config`` is a
    :class:`ViewDiffConfig`; ``counter`` accumulates entry-compare
    operations; ``budget`` caps DP memory for engines that allocate
    quadratic tables; ``key_table`` is the diff pair's shared interned
    ``=e`` symbol table.

    Engines whose ``diff`` is a pure function of ``(left, right,
    config)`` may additionally set ``cacheable = True`` to let the
    diff cache (:mod:`repro.cache`) memoise their results; see
    :func:`is_cacheable`.
    """

    name: str

    def diff(self, left: Trace, right: Trace, *,
             config: ViewDiffConfig | None = None,
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             key_table: KeyTable | None = None) -> DiffResult:
        ...


def is_cacheable(engine: DiffEngine) -> bool:
    """Whether ``engine``'s results may be memoised by the diff cache.

    An engine advertises cacheability with a truthy ``cacheable``
    attribute, promising its ``diff`` is a pure function of
    ``(left, right, config)`` — same inputs, same result, no hidden
    state.  The built-ins all qualify; engines that do not opt in are
    never cached (a stateful engine silently served stale results would
    be a correctness bug, so the default is off).
    """
    return bool(getattr(engine, "cacheable", False))


class ViewsEngine:
    """The paper's contribution: linear-time views-based differencing."""

    name = "views"
    #: Pure function of (traces, config): safe to memoise.
    cacheable = True
    #: Anchoring is implemented *inside* the lock-step evaluation
    #: (``config.anchored`` bulk-matches aligned runs), so the anchored
    #: meta-engine delegates instead of segmenting sub-traces — the
    #: windowed secondary-view exploration needs the full webs.
    anchor_aware = True

    def diff(self, left: Trace, right: Trace, *,
             config: ViewDiffConfig | None = None,
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             key_table: KeyTable | None = None) -> DiffResult:
        return view_diff(left, right, config=config, counter=counter,
                         key_table=key_table)


class LcsEngine:
    """One LCS baseline variant (Sec. 3.2) under its algorithm name."""

    #: Pure function of (traces, config): safe to memoise.
    cacheable = True

    def __init__(self, algorithm: str):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown LCS algorithm: {algorithm!r}")
        self.name = algorithm
        self.algorithm = algorithm

    def diff(self, left: Trace, right: Trace, *,
             config: ViewDiffConfig | None = None,
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             key_table: KeyTable | None = None) -> DiffResult:
        interned = config.interned if config is not None else True
        anchors = None
        if config is not None and config.anchored:
            anchors = AnchorConfig.from_view_config(config)
        return lcs_diff(left, right, algorithm=self.algorithm,
                        counter=counter, budget=budget,
                        interned=interned, key_table=key_table,
                        anchors=anchors)


class AnchoredEngine:
    """Patience-anchored segmental meta-engine (the tentpole of
    :mod:`repro.core.anchors`).

    Wraps any inner engine under the name ``anchored:<inner>``
    (:data:`DEFAULT_GAP_INNER` — the bit-parallel LCS — when no inner
    is named).  For engines that implement anchoring natively (a
    truthy ``anchor_aware`` attribute — the views engine), the call
    delegates with ``config.anchored`` forced on.  For everything else
    the pair is split along its ``=e`` anchor runs and the inner engine
    runs on each divergent gap
    (:func:`~repro.core.anchors.segmental_diff`).

    Results are bit-identical to the inner engine's
    (:func:`~repro.core.diffs.result_identity`); only the ``=e``
    compare cost drops.
    """

    def __init__(self, inner: "str | DiffEngine | None" = None):
        if inner is None:
            inner = DEFAULT_GAP_INNER
        self.inner = get_engine(inner)
        self.name = ANCHORED_PREFIX + self.inner.name
        #: Purity is inherited: the meta-engine adds no state of its
        #: own, so its results may be memoised iff the inner's may.
        self.cacheable = is_cacheable(self.inner)

    def diff(self, left: Trace, right: Trace, *,
             config: ViewDiffConfig | None = None,
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             key_table: KeyTable | None = None) -> DiffResult:
        if config is None:
            config = ViewDiffConfig()
        if getattr(self.inner, "anchor_aware", False):
            return self.inner.diff(
                left, right,
                config=dataclasses.replace(config, anchored=True),
                counter=counter, budget=budget, key_table=key_table)
        # Gap diffs must not re-anchor (the segmentation already did).
        gap_config = dataclasses.replace(config, anchored=False)
        return segmental_diff(
            left, right,
            functools.partial(self.inner.diff, config=gap_config),
            algorithm=self.name,
            anchors=AnchorConfig.from_view_config(config),
            interned=config.interned, key_table=key_table,
            counter=counter, budget=budget)


_REGISTRY: dict[str, DiffEngine] = {}
_REGISTRY_LOCK = threading.Lock()


def register_engine(engine: DiffEngine, *, replace: bool = False) -> None:
    """Make ``engine`` resolvable by ``engine.name``.

    Registering over an existing name requires ``replace=True`` so tests
    and plugins cannot silently shadow the built-in semantics.
    """
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"engine has no usable name: {engine!r}")
    if not callable(getattr(engine, "diff", None)):
        raise ValueError(f"engine {name!r} has no diff() method")
    with _REGISTRY_LOCK:
        if name in _REGISTRY and not replace:
            raise ValueError(f"engine {name!r} already registered "
                             f"(pass replace=True to override)")
        _REGISTRY[name] = engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (built-ins may be re-registered)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def get_engine(engine: str | DiffEngine) -> DiffEngine:
    """Resolve an engine by name; engine instances pass through."""
    if not isinstance(engine, str):
        name = getattr(engine, "name", None)
        if (name and isinstance(name, str)
                and callable(getattr(engine, "diff", None))):
            return engine
        raise TypeError(f"not a diff engine: {engine!r}")
    with _REGISTRY_LOCK:
        found = _REGISTRY.get(engine)
    if found is None and engine.startswith(ANCHORED_PREFIX):
        # ``anchored:<anything registered>`` resolves dynamically, so
        # third-party engines get an anchored variant for free (the
        # built-in combinations are pre-registered).
        inner_name = engine[len(ANCHORED_PREFIX):]
        try:
            return AnchoredEngine(get_engine(inner_name))
        except KeyError:
            pass
    if found is None:
        raise KeyError(f"unknown diff engine {engine!r}; available: "
                       f"{', '.join(available_engines())}")
    return found


def available_engines() -> tuple[str, ...]:
    """Registered engine names, ``views`` first, then alphabetical."""
    with _REGISTRY_LOCK:
        names = set(_REGISTRY)
    ordered = [n for n in ("views",) if n in names]
    ordered.extend(sorted(names - {"views"}))
    return tuple(ordered)


def _register_builtins() -> None:
    register_engine(ViewsEngine(), replace=True)
    for algorithm in ALGORITHMS:
        register_engine(LcsEngine(algorithm), replace=True)
    # The anchored meta-engine over every built-in inner.
    register_engine(AnchoredEngine("views"), replace=True)
    for algorithm in ALGORITHMS:
        register_engine(AnchoredEngine(algorithm), replace=True)


_register_builtins()
