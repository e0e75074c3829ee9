"""Static program analysis over :mod:`repro.lang` (predict-then-verify).

Layers:

* :mod:`repro.static.cfg` — per-body control-flow graphs + dominators;
* :mod:`repro.static.callgraph` — RTA-style interprocedural call graph
  (``call``/``new``/``spawn`` edges, receiver types from the checker);
* :mod:`repro.static.effects` — field/local read-write summaries,
  direct and transitively closed;
* :mod:`repro.static.races` — shared-state race lint over thread roots;
* :mod:`repro.static.dataflow` — CFG dataflow behind
  ``check_program(strict=True)``;
* :mod:`repro.static.impact` — static change-impact prediction over two
  program versions;
* :mod:`repro.static.validate` — cross-validation of predictions
  against the dynamic :class:`ImpactReport`;
* :mod:`repro.static.scenarios` — the bundled old/new language
  scenario pairs;
* :mod:`repro.static.cli` — the ``repro static ...`` subcommands.
"""

from repro.static.callgraph import CallEdge, CallGraph, build_call_graph
from repro.static.cfg import (CFG, MAIN, BasicBlock, build_cfg,
                              build_program_cfgs, statement_terms)
from repro.static.dataflow import StaticIssue, check_definite_assignment
from repro.static.effects import (EffectSummary, direct_effects,
                                  transitive_effects)
from repro.static.impact import (MethodChange, PredictedImpact,
                                 diff_programs, predict_impact)
from repro.static.races import RaceFinding, find_races, race_report
from repro.static.scenarios import SCENARIOS, LangScenario, get_scenario
from repro.static.validate import (StaticValidation, cross_validate,
                                   validate_scenario)

__all__ = [
    "CFG", "MAIN", "BasicBlock", "CallEdge", "CallGraph",
    "EffectSummary", "LangScenario", "MethodChange", "PredictedImpact",
    "RaceFinding", "SCENARIOS", "StaticIssue", "StaticValidation",
    "build_call_graph", "build_cfg", "build_program_cfgs",
    "check_definite_assignment", "cross_validate", "diff_programs",
    "direct_effects", "find_races", "get_scenario", "predict_impact",
    "race_report", "statement_terms", "transitive_effects",
    "validate_scenario",
]
