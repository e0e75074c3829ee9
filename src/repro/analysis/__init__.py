"""The RPRISM tool layer: tracing drivers, serialisation, reporting,
and the further view-based analyses Sec. 4 envisions (protocol
inference, impact analysis)."""

from repro.analysis.impact import ImpactReport, impact_of, impacted_methods
from repro.analysis.protocols import (Protocol, ProtocolDiff,
                                      diff_protocols, infer_protocols)
from repro.analysis.report import render_diff_report, render_trace_tree
from repro.analysis.serialize import load_trace, read_header, save_trace

__all__ = [
    "ImpactReport", "Protocol", "ProtocolDiff", "diff_protocols",
    "impact_of", "impacted_methods", "infer_protocols",
    "load_trace", "read_header", "render_diff_report", "render_trace_tree",
    "save_trace",
]

