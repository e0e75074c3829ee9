"""Impact analysis over views-based diffs.

Another of Sec. 4's envisioned applications: given the semantic diff of
two versions, which program abstractions — methods, classes, objects,
threads — are *impacted*, and how strongly?  The views an entry belongs
to are exactly the abstractions it touches, so impact sets fall directly
out of the web: each differing entry votes for its method view, its
target object's class, and its thread.

The result ranks abstractions by the number of differences touching
them, giving the "where did behaviour change" overview a developer scans
before drilling into difference sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.diffs import DiffResult
from repro.core.web import ViewWeb


@dataclass(slots=True)
class ImpactReport:
    """Differences counted per abstraction."""

    methods: dict[str, int] = field(default_factory=dict)
    classes: dict[str, int] = field(default_factory=dict)
    threads: dict[int, int] = field(default_factory=dict)
    total_differences: int = 0

    def ranked_methods(self) -> list[tuple[str, int]]:
        return sorted(self.methods.items(), key=lambda kv: (-kv[1], kv[0]))

    def ranked_classes(self) -> list[tuple[str, int]]:
        return sorted(self.classes.items(), key=lambda kv: (-kv[1], kv[0]))

    def impacted_thread_ids(self) -> list[int]:
        return sorted(self.threads)

    def render(self, limit: int = 10) -> str:
        lines = [f"impact: {self.total_differences} differences touch "
                 f"{len(self.methods)} method(s), {len(self.classes)} "
                 f"class(es), {len(self.threads)} thread(s)"]
        lines.append("  methods:")
        for method, count in self.ranked_methods()[:limit]:
            lines.append(f"    {method:40} {count}")
        lines.append("  classes:")
        for class_name, count in self.ranked_classes()[:limit]:
            lines.append(f"    {class_name:40} {count}")
        return "\n".join(lines)


def _accumulate(report: ImpactReport, entries, web: ViewWeb) -> None:
    for entry in entries:
        report.total_differences += 1
        report.methods[entry.method] = \
            report.methods.get(entry.method, 0) + 1
        report.threads[entry.tid] = report.threads.get(entry.tid, 0) + 1
        target = entry.event.target()
        if target is not None:
            info = web.object_info(target)
            class_name = info.class_name if info else target.class_name
            report.classes[class_name] = \
                report.classes.get(class_name, 0) + 1


def impact_of(result: DiffResult,
              web_left: ViewWeb | None = None,
              web_right: ViewWeb | None = None) -> ImpactReport:
    """Impact sets of a diff: which abstractions its differences touch."""
    if web_left is None:
        web_left = ViewWeb(result.left)
    if web_right is None:
        web_right = ViewWeb(result.right)
    report = ImpactReport()
    _accumulate(report, result.left_diff_entries(), web_left)
    _accumulate(report, result.right_diff_entries(), web_right)
    return report


def impacted_methods(result: DiffResult, threshold: int = 1) -> set[str]:
    """Methods touched by at least ``threshold`` differences."""
    report = impact_of(result)
    return {method for method, count in report.methods.items()
            if count >= threshold}
