"""Static change-impact prediction.

``diff_programs`` structurally diffs two ``Program`` ASTs into seed
:class:`MethodChange`\\ s (added/removed/modified/signature methods,
field-layout changes attributed to the implicit constructor, a changed
``<main>`` body).  ``predict_impact`` then propagates scores outward
from the seeds over the union call graph of both versions:

* *callers* of an impacted node see different return values/state;
* *callees* of an impacted node may be called differently;
* *readers of fields written* by an impacted node see different state
  (value flow through the heap — this is what lets a reader of
  ``Table.count`` be predicted when only the writer changed).

Scores combine by max; propagation stops below the threshold, so the
result is a finite ranked :class:`PredictedImpact`.  The prediction is
cross-validated against the dynamic :class:`repro.analysis.impact
.ImpactReport` (see :mod:`repro.static.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Program
from repro.static.callgraph import (CallGraph, build_call_graph,
                                    init_node_name)
from repro.static.cfg import MAIN
from repro.static.effects import EffectSummary, direct_effects

#: Score decay per propagation hop.
CALLER_DECAY = 0.8
CALLEE_DECAY = 0.5
EFFECT_DECAY = 0.6
#: Default prediction cutoff.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True, slots=True)
class MethodChange:
    """One structural difference between the two versions."""

    name: str  # node name: C.m, <main>, or C.<init> for field changes
    kind: str  # added | removed | modified | signature | fields

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind}


@dataclass(slots=True)
class PredictedImpact:
    changes: tuple[MethodChange, ...]
    scores: dict[str, float]
    reasons: dict[str, tuple[str, ...]]
    threshold: float

    def is_empty(self) -> bool:
        return not self.changes

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def predicted(self) -> set[str]:
        """Node names predicted impacted (score >= threshold)."""
        return {name for name, score in self.scores.items()
                if score >= self.threshold}

    def to_json(self) -> dict:
        return {
            "changes": [c.to_json() for c in self.changes],
            "ranked": [[name, round(score, 4)]
                       for name, score in self.ranked()],
            "predicted": sorted(self.predicted()),
            "reasons": {name: list(why)
                        for name, why in sorted(self.reasons.items())},
            "threshold": self.threshold,
        }


def dynamic_method_name(node: str) -> str | None:
    """Map a static node name onto the method name trace entries carry.

    Spawn bodies run with an empty call stack, so their top-level
    entries are attributed to the root method — same as ``<main>``.
    Constructor pseudo-nodes never appear as a trace method.
    """
    if node.endswith(".<init>"):
        return None
    if ".spawn[" in node:
        return MAIN
    return node


def method_nodes(program: Program) -> dict[str, object]:
    """``C.m`` -> declaration for every declared method."""
    return {f"{class_name}.{method.name}": method
            for class_name in program.classes
            for method in program.classes[class_name].methods}


def diff_programs(old: Program, new: Program) -> tuple[MethodChange, ...]:
    """Structural seed diff between two versions, in canonical order."""
    changes: list[MethodChange] = []
    old_methods = method_nodes(old)
    new_methods = method_nodes(new)
    for name in sorted(old_methods.keys() | new_methods.keys()):
        before, after = old_methods.get(name), new_methods.get(name)
        if before is None:
            changes.append(MethodChange(name, "added"))
        elif after is None:
            changes.append(MethodChange(name, "removed"))
        elif before != after:
            signature_changed = (
                before.return_type != after.return_type
                or tuple((p.type_name, p.name) for p in before.params)
                != tuple((p.type_name, p.name) for p in after.params))
            changes.append(MethodChange(
                name, "signature" if signature_changed else "modified"))
    for class_name in sorted(old.classes.keys() | new.classes.keys()):
        before_fields = old.classes[class_name].fields \
            if class_name in old.classes else None
        after_fields = new.classes[class_name].fields \
            if class_name in new.classes else None
        if before_fields != after_fields:
            changes.append(MethodChange(init_node_name(class_name),
                                        "fields"))
    if old.main != new.main:
        changes.append(MethodChange(MAIN, "modified"))
    return tuple(changes)


class _UnionGraph:
    """Caller/callee/effect adjacency over both program versions."""

    def __init__(self, old: Program, new: Program):
        self.graphs: list[tuple[CallGraph, dict[str, EffectSummary]]] = []
        for program in (old, new):
            graph = build_call_graph(program)
            self.graphs.append((graph, direct_effects(program, graph)))
        self.nodes: set[str] = set()
        self.readers: dict[tuple[str, str], set[str]] = {}
        self.writes: dict[str, set[tuple[str, str]]] = {}
        for graph, effects in self.graphs:
            self.nodes.update(graph.nodes)
            for name, summary in effects.items():
                self.writes.setdefault(name, set()).update(
                    summary.fields_written)
                for key in summary.fields_read:
                    self.readers.setdefault(key, set()).add(name)
            for node in graph.nodes.values():
                if node.kind == "constructor":
                    self.writes.setdefault(node.name, set()).update(
                        effects[node.name].fields_written)

    def callers(self, name: str) -> set[str]:
        out: set[str] = set()
        for graph, _ in self.graphs:
            out |= graph.callers_of(name)
        return out

    def callees(self, name: str) -> set[str]:
        out: set[str] = set()
        for graph, _ in self.graphs:
            out |= graph.callees_of(name, kinds=("call", "new", "spawn"))
        return out


def predict_impact(old: Program, new: Program, *,
                   threshold: float = DEFAULT_THRESHOLD) -> PredictedImpact:
    """Rank the methods whose traces the change is predicted to touch."""
    changes = diff_programs(old, new)
    union = _UnionGraph(old, new)
    scores: dict[str, float] = {}
    reasons: dict[str, list[str]] = {}
    worklist: list[str] = []

    def relax(name: str, score: float, why: str) -> None:
        if score < threshold:
            return
        if score > scores.get(name, 0.0) + 1e-9:
            scores[name] = score
            worklist.append(name)
        known = reasons.setdefault(name, [])
        if why not in known and len(known) < 8:
            known.append(why)

    for change in changes:
        relax(change.name, 1.0, f"{change.kind} in this change")

    while worklist:
        name = worklist.pop()
        score = scores[name]
        for caller in union.callers(name):
            relax(caller, score * CALLER_DECAY, f"calls {name}")
        for callee in union.callees(name):
            relax(callee, score * CALLEE_DECAY, f"called by {name}")
        for key in union.writes.get(name, ()):
            for reader in union.readers.get(key, ()):
                if reader != name:
                    relax(reader, score * EFFECT_DECAY,
                          f"reads {key[0]}.{key[1]} written by {name}")

    return PredictedImpact(
        changes=changes, scores=scores,
        reasons={name: tuple(why) for name, why in reasons.items()},
        threshold=threshold)
