"""Harness for the real-life regression studies (Tables 1 and 2).

One :class:`ScenarioSpec` per case study — Daikon, Xalan-1725,
Xalan-1802, Derby-1633 — each pointing at its workload's version entry
points, test inputs, and ground-truth predicate.  ``run_scenario``
produces a :class:`ScenarioResult` carrying every column of the paper's
Table 1 (for both the LCS-based and views-based semantics) and Table 2
(view counts and A/B/C/D set sizes).  It runs on
:meth:`repro.api.Session.run_scenario`, the one four-trace recipe, and
adds the LCS baseline and the ground-truth scoring; ``run_all_scenarios``
is a plain loop over the four studies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.api.engines import get_engine
from repro.api.session import SCENARIO_ROLES, Session
from repro.cache import DiffCache
from repro.capture import CAPTURE_LOCK, TraceFilter, trace_call
from repro.core.lcs import LcsMemoryError, MemoryBudget, OpCounter
from repro.core.regression import (MODE_INTERSECT, analyze_regression,
                                   evaluate_against_truth)
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig
from repro.core.views import ViewType
from repro.core.web import ViewWeb

from repro.workloads.invariants import scenario as daikon
from repro.workloads.minidb import scenario as derby
from repro.workloads.minixslt import scenario as xalan


@dataclass(slots=True)
class ScenarioSpec:
    """One real-life regression case study."""

    name: str
    package: str
    filter_modules: tuple[str, ...]
    run_old: Callable
    run_new: Callable
    regressing_input: object
    correct_input: object
    is_cause_entry: Callable
    cause_marks: int = 1
    mode: str = MODE_INTERSECT
    #: Bundled :mod:`repro.static.scenarios` pair modelling this case
    #: study in ``repro.lang`` (for static change-impact columns).
    lang_scenario: str | None = None


@dataclass(slots=True)
class SemanticsRow:
    """One semantics' half of a Table 1 row."""

    num_diffs: int | None = None
    diff_sequences: int | None = None
    regression_sequences: int | None = None
    false_positives: int | None = None
    false_negatives: int | None = None
    analysis_seconds: float | None = None
    memory_bytes: int | None = None
    compares: int = 0
    failed: str | None = None  # e.g. "out of memory"


@dataclass(slots=True)
class ScenarioResult:
    """Table 1 row + Table 2 data for one scenario."""

    name: str
    workload_loc: int
    trace_entries: int
    tracing_seconds: float
    lcs: SemanticsRow = field(default_factory=SemanticsRow)
    views: SemanticsRow = field(default_factory=SemanticsRow)
    speedup: float | None = None
    view_counts: dict[str, int] = field(default_factory=dict)
    set_sizes: dict[str, int] = field(default_factory=dict)
    #: Static impact prediction vs dynamic ground truth for the
    #: scenario's ``lang_scenario`` model (``StaticValidation.to_json``
    #: dict: precision/recall + predicted/dynamic method sets), present
    #: when ``run_scenario(..., static_impact=True)``.
    static_impact: dict | None = None


def workload_loc(package: str) -> int:
    """Lines of code of a workload package (the Table 1 LOC column)."""
    import repro
    root = Path(repro.__file__).parent / "workloads" / package
    total = 0
    for path in sorted(root.glob("*.py")):
        with path.open() as lines:
            total += sum(1 for _ in lines)
    return total


def capture_scenario_trace(spec: ScenarioSpec, runner: Callable, payload,
                           name: str) -> Trace:
    """Trace one version/input combination under the scenario's
    pointcut filter (one role of the recipe, for tests and benches
    that need a single trace)."""
    trace_filter = TraceFilter(include_modules=spec.filter_modules)
    with CAPTURE_LOCK:
        return trace_call(runner, payload, filter=trace_filter,
                          name=name).trace


def _score(spec: ScenarioSpec, suspected, report,
           row: SemanticsRow) -> dict[str, int]:
    """Fill ``row`` from a Sec. 4 report scored against the study's
    ground truth; returns the A/B/C/D set sizes."""
    evaluation = evaluate_against_truth(report, spec.is_cause_entry,
                                        expected_cause_marks=spec.cause_marks)
    row.num_diffs = suspected.num_diffs()
    row.diff_sequences = len(suspected.sequences)
    row.regression_sequences = report.size_d
    row.false_positives = evaluation.false_positives
    row.false_negatives = evaluation.false_negatives
    return report.set_sizes()


def run_scenario(spec: ScenarioSpec,
                 lcs_budget_cells: int = 100_000_000,
                 config: ViewDiffConfig | None = None,
                 lcs_engine: str = "optimized",
                 views_engine: str = "views",
                 cache: "DiffCache | None" = None,
                 static_impact: bool = False) -> ScenarioResult:
    """Everything the paper measures for one case study.

    The four traces and the three views diffs come from
    :meth:`Session.run_scenario` (filter and mode from ``spec``,
    engine ``views_engine``, plus ``config`` and ``cache``).  The
    harness adds the LCS side (``lcs_engine``, any registered LCS
    variant, over the same four traces), the ground-truth scoring and
    the Table 1/2 columns.
    ``cache`` memoises the three *views* diffs through a
    :class:`~repro.cache.DiffCache`: warm hits carry the cold run's
    compare totals (so the Table 1 compare and speedup columns match
    cold runs), but the views *timing* column then measures cache
    lookups, not differencing.  The LCS baseline is never cached — it
    always runs under a memory budget, so the paper's out-of-memory
    failure and peak-cell numbers are re-measured every run.
    ``static_impact`` additionally cross-validates the static
    change-impact prediction of the scenario's ``lang_scenario`` model
    against its interpreted ground truth (``result.static_impact``).
    """
    session = Session(config=config, engine=views_engine, mode=spec.mode,
                      cache=cache,
                      filter=TraceFilter(include_modules=spec.filter_modules))
    outcome = session.run_scenario(spec.run_old, spec.run_new,
                                   spec.regressing_input, spec.correct_input,
                                   name=spec.name)
    old_bad, new_bad, old_ok, new_ok = (outcome.traces[role]
                                        for role in SCENARIO_ROLES)
    result = ScenarioResult(
        name=spec.name,
        workload_loc=workload_loc(spec.package),
        trace_entries=len(old_bad) + len(new_bad),
        tracing_seconds=outcome.capture_seconds,
    )

    # -- views-based scoring ------------------------------------------------
    scoring_started = time.perf_counter()
    result.set_sizes = _score(spec, outcome.suspected, outcome.report,
                              result.views)
    # Diffs and analysis: the session's time after capture, plus scoring.
    result.views.analysis_seconds = (
        outcome.seconds - outcome.capture_seconds
        + time.perf_counter() - scoring_started)
    result.views.compares = outcome.compares()
    # Table 2 view counts and the views memory column (8 bytes per
    # member index) of the old/regressing trace.  The web is a handle
    # over the view index the diffs built and cached on the trace; no
    # View object is materialised.
    web = ViewWeb(old_bad)
    result.view_counts = web.counts()
    result.views.memory_bytes = 8 * sum(
        len(members) for vtype in ViewType
        for members in web.columns(vtype).members)

    # -- LCS-based differencing + analysis ------------------------------------
    baseline = get_engine(lcs_engine)
    lcs_counter = OpCounter()
    budget = MemoryBudget(max_cells=lcs_budget_cells)
    lcs_started = time.perf_counter()
    try:
        # Direct engine calls, not cached_engine_diff: these always
        # carry a budget, which bypasses the cache by design (see the
        # docstring), so routing them through it would only obscure
        # that they run cold every time.
        suspected_l = baseline.diff(old_bad, new_bad, counter=lcs_counter,
                                    budget=budget)
        expected_l = baseline.diff(old_ok, new_ok, counter=lcs_counter,
                                   budget=budget)
        regression_l = baseline.diff(new_ok, new_bad, counter=lcs_counter,
                                     budget=budget)
        report = analyze_regression(suspected_l, expected=expected_l,
                                    regression=regression_l, mode=spec.mode)
        _score(spec, suspected_l, report, result.lcs)
        result.lcs.analysis_seconds = time.perf_counter() - lcs_started
        result.lcs.compares = lcs_counter.total
        result.lcs.memory_bytes = budget.peak_bytes()
        # Speedup on the paper's metric: entry compare operations (the
        # baseline's count includes the DP-equivalent charge when the
        # fast recursive differ stood in for the quadratic core).
        if result.views.compares:
            result.speedup = result.lcs.compares / result.views.compares
    except LcsMemoryError as failure:
        result.lcs.failed = (f"out of memory failure at "
                             f"{failure.needed_cells * 4} bytes")
        result.lcs.memory_bytes = failure.needed_cells * 4

    # -- static change-impact prediction (repro.static) ----------------------
    if static_impact and spec.lang_scenario is not None:
        from repro.static.validate import validate_scenario
        result.static_impact = \
            validate_scenario(spec.lang_scenario).to_json()
    return result


SCENARIOS: dict[str, ScenarioSpec] = {
    "Daikon": ScenarioSpec(
        name="Daikon",
        lang_scenario="invariants",
        package="invariants",
        filter_modules=("repro.workloads.invariants",),
        run_old=daikon.run_old_version,
        run_new=daikon.run_new_version,
        regressing_input=daikon.REGRESSING_DATASET,
        correct_input=daikon.CORRECT_DATASET,
        is_cause_entry=daikon.is_cause_entry,
        cause_marks=daikon.CAUSE_MARKS,
    ),
    "Xalan-1725": ScenarioSpec(
        name="Xalan-1725",
        lang_scenario="minixslt",
        package="minixslt",
        filter_modules=("repro.workloads.minixslt",),
        run_old=xalan.run_1725_old,
        run_new=xalan.run_1725_new,
        regressing_input=xalan.REGRESSING_INPUT_1725,
        correct_input=xalan.CORRECT_INPUT_1725,
        is_cause_entry=xalan.is_cause_entry_1725,
    ),
    "Xalan-1802": ScenarioSpec(
        name="Xalan-1802",
        lang_scenario="minixslt",
        package="minixslt",
        filter_modules=("repro.workloads.minixslt",),
        run_old=xalan.run_1802_old,
        run_new=xalan.run_1802_new,
        regressing_input=xalan.REGRESSING_INPUT_1802,
        correct_input=xalan.CORRECT_INPUT_1802,
        is_cause_entry=xalan.is_cause_entry_1802,
    ),
    "Derby-1633": ScenarioSpec(
        name="Derby-1633",
        lang_scenario="minidb",
        package="minidb",
        filter_modules=("repro.workloads.minidb",),
        run_old=derby.run_old_version,
        run_new=derby.run_new_version,
        regressing_input=derby.REGRESSING_INPUT,
        correct_input=derby.CORRECT_INPUT,
        is_cause_entry=derby.is_cause_entry,
    ),
}


def run_all_scenarios(cache: "DiffCache | None" = None,
                      **kwargs) -> list[ScenarioResult]:
    """All four case studies in ``SCENARIOS`` order; ``cache`` is one
    :class:`~repro.cache.DiffCache` handle shared by every scenario, so
    re-runs of unchanged scenarios skip their views diffs."""
    return [run_scenario(spec, cache=cache, **kwargs)
            for spec in SCENARIOS.values()]
