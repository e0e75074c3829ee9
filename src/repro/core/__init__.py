"""Core library: the paper's trace model, views, differencing semantics,
and regression-cause analysis."""

from repro.core.correlation import ViewCorrelator, ancestry_similarity
from repro.core.diffs import DiffResult, DifferenceSequence, build_sequences
from repro.core.entries import EOF, TraceEntry, entries_equal
from repro.core.events import (Call, End, Event, FieldGet, FieldSet, Fork,
                               Init, Return, StackFrame)
from repro.core.keytable import KeyTable
from repro.core.lcs import (LcsBudgetExceeded, LcsMemoryError, LcsResult,
                            MemoryBudget, OpCounter, lcs_dp, lcs_hirschberg,
                            lcs_length, lcs_optimized, myers_lcs_length,
                            trim_common)
from repro.core.lcs_diff import lcs_diff
from repro.core.regression import (MODE_INTERSECT, MODE_SUBTRACT,
                                   CandidateSequence, RegressionReport,
                                   TruthEvaluation, analyze_regression,
                                   evaluate_against_truth)
from repro.core.stats import (ACCURACY_BINS, SPEEDUP_BINS, Histogram,
                              accuracy, accuracy_histogram, speedup,
                              speedup_histogram)
from repro.core.traces import Trace, TraceBuilder
from repro.core.values import UNIT, ObjectRegistry, ValueRep, prim
from repro.core.view_diff import ViewDiffConfig, view_diff
from repro.core.views import View, ViewName, ViewType, view_names
from repro.core.web import ObjectInfo, ThreadInfo, ViewWeb

__all__ = [
    "ACCURACY_BINS", "SPEEDUP_BINS", "EOF", "MODE_INTERSECT", "MODE_SUBTRACT",
    "Call", "CandidateSequence", "DiffResult", "DifferenceSequence", "End",
    "Event", "FieldGet", "FieldSet", "Fork", "Histogram", "Init",
    "KeyTable", "LcsBudgetExceeded", "LcsMemoryError", "LcsResult",
    "MemoryBudget",
    "ObjectInfo", "ObjectRegistry", "OpCounter", "RegressionReport", "Return",
    "StackFrame", "ThreadInfo", "Trace", "TraceBuilder",
    "TraceEntry",
    "TruthEvaluation", "UNIT", "ValueRep", "View", "ViewCorrelator",
    "ViewDiffConfig", "ViewName", "ViewType", "ViewWeb",
    "accuracy", "accuracy_histogram", "analyze_regression",
    "ancestry_similarity", "build_sequences", "entries_equal",
    "evaluate_against_truth", "lcs_diff", "lcs_dp",
    "lcs_hirschberg", "lcs_length", "lcs_optimized",
    "myers_lcs_length", "prim",
    "speedup", "speedup_histogram", "trim_common", "view_diff",
    "view_names",
]
