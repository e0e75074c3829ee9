"""The session layer: configure once, then capture / ingest / diff /
analyze through one object.

:class:`Session` is the library's one driver: configuration is
applied fluently
(``Session().with_config(window=8).with_filter(include_modules=...)``),
the differencing backend is resolved through the engine registry
(:mod:`repro.api.engines`), and traces can be persisted to / resolved
from a :class:`repro.api.store.TraceStore` so capture and analysis may
happen in different processes — the paper's offline workflow.

The full Sec. 4 recipe is one call::

    from repro.api import Session

    result = (Session()
              .with_filter(include_modules=("myapp",))
              .run_scenario(old_version, new_version,
                            regressing_input=bad, correct_input=ok))
    print(result.render())

Everything runs in the calling thread; a batch of scenarios is a loop
over sessions (``repro batch`` is one).  Captures are serialised
process-wide — the ``sys.settrace`` weaver admits a single active
:class:`~repro.capture.tracer.Tracer` — so sessions on other threads
(the service's ``--workers`` pool) take turns on
:data:`~repro.capture.tracer.CAPTURE_LOCK`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.static.validate import StaticValidation

from repro.api.engines import DiffEngine, get_engine
from repro.api.store import TraceNotFound, TraceStore
from repro.cache import DiffCache, cached_engine_diff
from repro.capture.filters import TraceFilter
from repro.capture.tracer import CAPTURE_LOCK, CaptureResult, trace_call
from repro.core.diffs import DiffResult
from repro.core.keytable import KeyTable
from repro.core.lcs import MemoryBudget, OpCounter
from repro.core.regression import (MODE_INTERSECT, RegressionReport,
                                   analyze_regression)
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig
from repro.core.web import ViewWeb

__all__ = ["SCENARIO_ROLES", "Session", "SessionResult",
           "run_capture_tasks"]

#: The four trace roles of the Sec. 4 recipe, in capture order.
SCENARIO_ROLES = ("old/regressing", "new/regressing",
                  "old/correct", "new/correct")


def run_capture_tasks(tasks, *, filter: TraceFilter | None = None,
                      record_fields: bool = True,
                      key_table: KeyTable | None = None
                      ) -> list[CaptureResult]:
    """Capture each ``(name, func, args, kwargs)`` task in order: one
    :func:`~repro.capture.tracer.trace_call` per task, each under
    :data:`~repro.capture.tracer.CAPTURE_LOCK`, so captures from
    several threads take turns.  Every capture a session makes goes
    through here."""
    results = []
    for name, func, args, kwargs in tasks:
        with CAPTURE_LOCK:
            results.append(trace_call(func, *args, name=name,
                                      filter=filter,
                                      record_fields=record_fields,
                                      key_table=key_table, **kwargs))
    return results


@dataclass(slots=True)
class SessionResult:
    """Structured outcome of one regression scenario.

    The suspected set A always exists; expected (B) and regression (C)
    diffs are present only when a correct input was supplied (otherwise
    the run models the unattended-build configuration of Sec. 5.1).
    """

    suspected: DiffResult
    expected: DiffResult | None
    regression: DiffResult | None
    report: RegressionReport
    traces: dict[str, Trace] = field(default_factory=dict)
    seconds: float = 0.0
    #: The part of ``seconds`` spent capturing (0 for stored
    #: scenarios); the rest is diffs, analysis and store writes.
    capture_seconds: float = 0.0
    engine: str = "views"
    scenario: str = ""
    store_keys: tuple[str, ...] = ()
    #: Static change-impact prediction cross-validated against the
    #: dynamic ImpactReport (:mod:`repro.static`), when the scenario
    #: was run with ``static_impact=...``.
    static_impact: "StaticValidation | None" = None

    def diffs(self) -> list[DiffResult]:
        """The diffs actually computed (A, and B/C when present)."""
        return [d for d in (self.suspected, self.expected, self.regression)
                if d is not None]

    def compares(self) -> int:
        """Total entry-compare operations across the scenario's diffs."""
        return sum(d.counter.total for d in self.diffs()
                   if d.counter is not None)

    def render(self, max_sequences: int = 10) -> str:
        lines = [self.report.render(limit=max_sequences)]
        lines.append(
            f"suspected diff: {self.suspected.num_diffs()} differences in "
            f"{len(self.suspected.sequences)} sequences "
            f"({self.suspected.compares()} compares, "
            f"{self.suspected.seconds:.3f}s)")
        if self.expected is not None:
            lines.append(
                f"expected diff:  {self.expected.num_diffs()} differences "
                f"in {len(self.expected.sequences)} sequences")
        if self.regression is not None:
            lines.append(
                f"regression diff: {self.regression.num_diffs()} "
                f"differences in {len(self.regression.sequences)} sequences")
        if self.static_impact is not None:
            lines.append(f"static impact: {self.static_impact.render()}")
        return "\n".join(lines)


class Session:
    """One configured analysis context (the public API entry object)."""

    def __init__(self, *, config: ViewDiffConfig | None = None,
                 filter: TraceFilter | None = None,
                 store: TraceStore | str | Path | None = None,
                 engine: str | DiffEngine = "views",
                 mode: str = MODE_INTERSECT,
                 record_fields: bool = True,
                 key_table: KeyTable | None = None,
                 cache: "DiffCache | str | Path | bool | None" = None):
        self.config = config if config is not None else ViewDiffConfig()
        self.filter = filter
        self.store = self._as_store(store)
        #: Content-addressed diff memoisation (:mod:`repro.cache`).
        #: ``None`` disables caching; ``True`` builds a cache whose
        #: disk tier lives beside the session store (memory-only when
        #: there is no store); a path opens/creates a disk tier there;
        #: an instance is shared as-is.
        self.cache = self._as_cache(cache)
        self.engine = get_engine(engine)
        self.mode = mode
        self.record_fields = record_fields
        #: The session's ingest-time ``=e`` symbol table: every capture
        #: interns into it, so any two traces captured by this session
        #: already share one id space when they meet in :meth:`diff`.
        self.key_table = key_table if key_table is not None else KeyTable()

    @staticmethod
    def _as_store(store) -> TraceStore | None:
        if store is None or isinstance(store, TraceStore):
            return store
        return TraceStore(store)

    def _as_cache(self, cache) -> DiffCache | None:
        if cache is None or cache is False:
            return None
        if isinstance(cache, DiffCache):
            return cache
        if cache is True:
            if self.store is not None:
                return DiffCache(self.store.root / "diffcache")
            return DiffCache()
        return DiffCache(cache)

    # -- fluent configuration ----------------------------------------------

    def with_config(self, config: ViewDiffConfig | None = None,
                    **knobs) -> "Session":
        """Set the view-diff configuration, or adjust individual knobs
        of the current one (``with_config(window=8, relaxed=False)``)."""
        if config is not None and knobs:
            raise ValueError("pass a config object or knobs, not both")
        if config is not None:
            self.config = config
        elif knobs:
            self.config = dataclasses.replace(self.config, **knobs)
        return self

    def with_filter(self, filter: TraceFilter | None = None,
                    **pointcuts) -> "Session":
        """Set the pointcut filter (or build one from keyword lists)."""
        if filter is not None and pointcuts:
            raise ValueError("pass a filter object or pointcuts, not both")
        self.filter = filter if filter is not None else \
            TraceFilter(**pointcuts)
        return self

    def with_store(self, store: TraceStore | str | Path) -> "Session":
        """Attach a trace store (a path creates/opens a directory)."""
        self.store = self._as_store(store)
        return self

    def with_engine(self, engine: str | DiffEngine) -> "Session":
        """Select the differencing backend by registry name."""
        self.engine = get_engine(engine)
        return self

    def with_cache(self, cache: "DiffCache | str | Path | bool" = True
                   ) -> "Session":
        """Attach a diff cache (``True``: disk tier beside the session
        store, or memory-only without one; a path names the disk tier;
        ``False`` detaches)."""
        self.cache = self._as_cache(cache)
        return self

    def with_mode(self, mode: str) -> "Session":
        """Select the Sec. 4 set-algebra mode (intersect / subtract)."""
        self.mode = mode
        return self

    # -- lifecycle: capture / ingest ---------------------------------------

    def _ingest_table(self) -> KeyTable | None:
        return self.key_table if self.config.interned else None

    def capture(self, func: Callable, *args, name: str = "",
                store_as: str | None = None,
                tags: tuple[str, ...] = (), dedup: bool = False,
                scenario: str | None = None, **kwargs) -> CaptureResult:
        """Trace one run under this session's filter (waiting for
        :data:`~repro.capture.tracer.CAPTURE_LOCK`).  ``store_as``
        persists the trace to the session store immediately (requires
        :meth:`with_store`); ``dedup=True`` skips the write when a
        byte-identical trace is already stored, ``scenario`` is catalog
        metadata for ``repro query``.
        """
        captured = self.capture_batch([(name, func, args, kwargs)])[0]
        if store_as is not None:
            self._store_required().save(captured.trace, key=store_as,
                                        tags=tags, dedup=dedup,
                                        scenario=scenario)
        return captured

    def capture_batch(self, tasks) -> list[CaptureResult]:
        """Capture ``(name, func, args, kwargs)`` tasks in order
        (:func:`run_capture_tasks`), interning every trace into the
        session's key table."""
        return run_capture_tasks(tasks, filter=self.filter,
                                 record_fields=self.record_fields,
                                 key_table=self._ingest_table())

    def trace_call(self, func: Callable, *args, name: str = "",
                   **kwargs) -> Trace:
        """Trace one run, returning just the trace."""
        return self.capture(func, *args, name=name, **kwargs).trace

    def ingest(self, source: Trace | str | Path,
               store_as: str | None = None,
               tags: tuple[str, ...] = (), *, dedup: bool = False,
               scenario: str | None = None) -> Trace:
        """Bring an existing trace (object or serialised file) into the
        session, optionally persisting it to the store."""
        trace = self.resolve_trace(source)
        if store_as is not None:
            self._store_required().save(trace, key=store_as, tags=tags,
                                        dedup=dedup, scenario=scenario)
        return trace

    def resolve_trace(self, ref: Trace | str | Path) -> Trace:
        """Trace objects pass through; strings/paths resolve first as
        store keys, then as trace file paths."""
        if isinstance(ref, Trace):
            return ref
        if self.store is not None and isinstance(ref, str):
            try:
                return self.store.load(ref)
            except TraceNotFound:
                pass  # not a store key: try it as a file path
        path = Path(ref)
        if path.exists():
            from repro.analysis.serialize import load_trace
            return load_trace(path)
        if self.store is not None:
            raise KeyError(f"{ref!r} is neither a store key of "
                           f"{self.store.root} nor a trace file")
        raise FileNotFoundError(f"no trace file {ref!r} "
                                f"(and the session has no store)")

    def _store_required(self) -> TraceStore:
        if self.store is None:
            raise RuntimeError("this session has no trace store; call "
                               "with_store(...) first")
        return self.store

    # -- lifecycle: diff / analyze -----------------------------------------

    def diff(self, left: Trace | str | Path, right: Trace | str | Path,
             *, engine: str | DiffEngine | None = None,
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             use_cache: bool = True) -> DiffResult:
        """Difference two traces (objects, store keys, or file paths).

        With ``config.interned`` the pair shares one key table: the
        table both traces already carry when it is common (this
        session's captures), a fresh pair table otherwise.

        When the session carries a :class:`~repro.cache.DiffCache` and
        the backend advertises ``cacheable``, the cache is consulted
        *before* any planning (content digests + canonical config; the
        pair's key table is built only on a miss);
        ``use_cache=False`` forces a cold computation without touching
        the cache (the CLI's ``--no-cache``).

        A session with a store also appends one row of diff statistics
        to the store's catalog (``repro query --diffs`` reads them
        back) — best-effort, never failing the diff itself.
        """
        backend = self.engine if engine is None else get_engine(engine)
        left_trace = self.resolve_trace(left)
        right_trace = self.resolve_trace(right)
        cache = self.cache if use_cache else None
        hits_before = cache.hits if cache is not None else 0
        started = time.perf_counter()
        result = cached_engine_diff(cache, backend, left_trace,
                                    right_trace, config=self.config,
                                    counter=counter, budget=budget)
        if self.store is not None:
            self._record_diff_stat(
                left_trace, right_trace, backend.name, result,
                seconds=time.perf_counter() - started,
                cached=(cache is not None and cache.hits > hits_before))
        return result

    def _record_diff_stat(self, left: Trace, right: Trace, engine: str,
                          result: DiffResult, *, seconds: float,
                          cached: bool) -> None:
        try:
            self.store.index.record_diff(
                left.content_digest(), right.content_digest(), engine,
                num_diffs=result.num_diffs(),
                sequences=len(result.sequences),
                compares=(result.counter.compares
                          if result.counter is not None else 0),
                seconds=seconds, cached=cached)
        except OSError:  # pragma: no cover - unwritable index.d
            pass

    def web(self, trace: Trace | str | Path) -> ViewWeb:
        """Build the view web of a trace (for navigation / Table 2)."""
        return ViewWeb(self.resolve_trace(trace))

    def analyze(self, suspected: DiffResult,
                expected: DiffResult | None = None,
                regression: DiffResult | None = None,
                mode: str | None = None) -> RegressionReport:
        """The Sec. 4 set algebra over already-computed diffs."""
        return analyze_regression(
            suspected, expected=expected, regression=regression,
            mode=self.mode if mode is None else mode)

    # -- the Sec. 4 recipe ---------------------------------------------------

    def run_scenario(self, old_version: Callable, new_version: Callable,
                     regressing_input, correct_input=None, *,
                     name: str = "",
                     engine: str | DiffEngine | None = None,
                     mode: str | None = None,
                     store_prefix: str | None = None,
                     static_impact: "bool | str" = False,
                     old_program=None,
                     new_program=None) -> SessionResult:
        """Capture the four-trace recipe and analyse it.

        Traces collected (Sec. 4.2): old and new versions on the
        regressing input (suspected set A); old and new on the correct
        input (expected set B); and, on the new version, correct vs
        regressing input (regression set C).  ``correct_input=None``
        skips B and C, modelling the unattended-build configuration of
        Sec. 5.1.

        ``store_prefix`` persists every captured trace to the session
        store under ``<prefix>/<role>`` keys, so the scenario can be
        re-analysed offline (``run_stored_scenario``).

        ``static_impact`` folds in the :mod:`repro.static` layer: pass
        a bundled ``repro.lang`` scenario name (``static_impact=
        "minidb"``) or ``True`` with ``old_program``/``new_program``
        Program ASTs.  The prediction is cross-validated against the
        dynamic ImpactReport (``result.static_impact``).

        Version callables receive the input as their single argument.
        """
        started = time.perf_counter()
        validation = self._static_validation(static_impact, old_program,
                                             new_program, name)
        traces: dict[str, Trace] = {}
        store_keys: list[str] = []

        roles: list[tuple[str, Callable, object]] = [
            ("old/regressing", old_version, regressing_input),
            ("new/regressing", new_version, regressing_input)]
        if correct_input is not None:
            roles.append(("old/correct", old_version, correct_input))
            roles.append(("new/correct", new_version, correct_input))
        capture_started = time.perf_counter()
        captured = self.capture_batch(
            [(role, runner, (payload,), {})
             for role, runner, payload in roles])
        capture_seconds = time.perf_counter() - capture_started
        for (role, _runner, _payload), outcome in zip(roles, captured):
            traces[role] = outcome.trace
            if store_prefix is not None:
                key = f"{store_prefix}/{role}"
                store_keys.append(key)
                self._store_required().save(outcome.trace, key=key,
                                            scenario=name or store_prefix)

        suspected = self.diff(traces["old/regressing"],
                              traces["new/regressing"], engine=engine)
        expected = None
        regression = None
        if correct_input is not None:
            expected = self.diff(traces["old/correct"],
                                 traces["new/correct"], engine=engine)
            regression = self.diff(traces["new/correct"],
                                   traces["new/regressing"], engine=engine)

        report = self.analyze(suspected, expected=expected,
                              regression=regression, mode=mode)
        backend = self.engine if engine is None else get_engine(engine)
        return SessionResult(
            suspected=suspected,
            expected=expected,
            regression=regression,
            report=report,
            traces=traces,
            seconds=time.perf_counter() - started,
            capture_seconds=capture_seconds,
            engine=backend.name,
            scenario=name,
            store_keys=tuple(store_keys),
            static_impact=validation,
        )

    @staticmethod
    def _static_validation(static_impact: "bool | str", old_program,
                           new_program, name: str):
        """Resolve the ``static_impact`` knob of :meth:`run_scenario`
        into a cross-validated prediction (or ``None``)."""
        if not static_impact:
            return None
        from repro.static.scenarios import get_scenario
        from repro.static.validate import cross_validate
        if isinstance(static_impact, str):
            scenario = get_scenario(static_impact)
            old_program = scenario.old_program()
            new_program = scenario.new_program()
            label = static_impact
        elif old_program is None or new_program is None:
            raise ValueError(
                "static_impact=True needs old_program/new_program "
                "(repro.lang Program ASTs); pass a bundled scenario "
                "name instead to use its versions "
                "(static_impact='minidb')")
        else:
            label = name or "<programs>"
        return cross_validate(label, old_program, new_program)

    def run_stored_scenario(self, suspected: tuple[str, str],
                            expected: tuple[str, str] | None = None,
                            regression: tuple[str, str] | None = None, *,
                            name: str = "",
                            engine: str | DiffEngine | None = None,
                            mode: str | None = None) -> SessionResult:
        """The offline half of the recipe: diff + analyse trace pairs
        already sitting in the store (or on disk), no capture."""
        started = time.perf_counter()
        traces: dict[str, Trace] = {}

        def pair(refs: tuple[str, str],
                 roles: tuple[str, str]) -> DiffResult:
            left, right = (self.resolve_trace(r) for r in refs)
            traces.setdefault(roles[0], left)
            traces.setdefault(roles[1], right)
            return self.diff(left, right, engine=engine)

        suspected_d = pair(tuple(suspected),
                           ("old/regressing", "new/regressing"))
        expected_d = pair(tuple(expected), ("old/correct", "new/correct")) \
            if expected else None
        regression_d = pair(tuple(regression),
                            ("new/correct", "new/regressing")) \
            if regression else None
        report = self.analyze(suspected_d, expected=expected_d,
                              regression=regression_d, mode=mode)
        backend = self.engine if engine is None else get_engine(engine)
        return SessionResult(
            suspected=suspected_d,
            expected=expected_d,
            regression=regression_d,
            report=report,
            traces=traces,
            seconds=time.perf_counter() - started,
            engine=backend.name,
            scenario=name,
        )
