"""rPRISM — semantics-aware trace analysis.

A from-scratch reproduction of *Semantics-Aware Trace Analysis*
(Hoffman, Eugster & Jagannathan, PLDI 2009): semantic views over execution
traces, linear-time views-based trace differencing, and regression-cause
analysis, together with a formal trace-emitting core language, a Python
trace-capture substrate, and the evaluation workloads.

Typical use (the :mod:`repro.api` session layer)::

    from repro.api import Session

    session = (Session()
               .with_filter(include_modules=("myapp",))
               .with_engine("views"))
    result = session.run_scenario(
        old_version_entrypoint, new_version_entrypoint,
        regressing_input=bad_input, correct_input=good_input)
    print(result.render())

Lower-level pieces remain directly importable: ``session.capture`` /
``session.diff`` drive individual steps, ``repro.api.TraceStore``
persists traces for offline analysis (one sharded directory layout),
and a batch of scenarios is a plain loop over sessions (``repro batch``
on the command line).
"""

from repro.core import (DiffResult, DifferenceSequence, OpCounter,
                        RegressionReport, Trace, TraceBuilder, TraceEntry,
                        ValueRep, ViewDiffConfig, ViewType, ViewWeb,
                        analyze_regression, lcs_diff, view_diff)

__version__ = "2.0.0"

__all__ = [
    "DiffResult", "DifferenceSequence", "OpCounter", "RegressionReport",
    "Session", "SessionResult", "Trace", "TraceBuilder",
    "TraceEntry", "TraceStore", "ValueRep", "ViewDiffConfig", "ViewType",
    "ViewWeb", "analyze_regression", "lcs_diff", "view_diff",
    "__version__",
]

#: Names served lazily from the api/analysis layers: they pull in the
#: capture substrate, so the core model stays importable in minimal
#: environments.
_LAZY = {
    "Session": ("repro.api.session", "Session"),
    "SessionResult": ("repro.api.session", "SessionResult"),
    "TraceStore": ("repro.api.store", "TraceStore"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is not None:
        from importlib import import_module
        return getattr(import_module(target[0]), target[1])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
