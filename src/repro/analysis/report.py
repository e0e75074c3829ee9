"""Rendering of traces and semantic diffs in the style of Fig. 13.

The paper's figures draw traces as indented call trees (``-->`` for
calls, ``<--`` for returns, ``set``/``get`` for field events) and diffs
with per-entry markers.  These renderers produce the same shape in plain
text, with dynamic state (value representations) inlined — "allowing
these potential causes to be viewed in their full context".
"""

from __future__ import annotations

from repro.core.diffs import DiffResult
from repro.core.entries import TraceEntry
from repro.core.events import Call, FieldGet, FieldSet, Fork, Init, Return
from repro.core.traces import Trace


def _entry_line(entry: TraceEntry) -> tuple[int, str]:
    """(depth delta, text) for one entry."""
    event = entry.event
    if isinstance(event, Call):
        args = ", ".join(a.brief() for a in event.args)
        return (+1, f"--> {event.obj.brief()}.{event.method}({args})")
    if isinstance(event, Return):
        return (-1, f"<-- {event.obj.brief()}.{event.method} "
                    f"ret={event.value.brief()}")
    if isinstance(event, Init):
        args = ", ".join(a.brief() for a in event.args)
        return (0, f"new {event.obj.brief()}({args})")
    if isinstance(event, FieldSet):
        return (0, f"set {event.obj.brief()}.{event.field} = "
                   f"{event.value.brief()}")
    if isinstance(event, FieldGet):
        return (0, f"get {event.obj.brief()}.{event.field} -> "
                   f"{event.value.brief()}")
    if isinstance(event, Fork):
        return (0, f"fork thread-{event.child_tid}")
    return (0, event.brief())


def render_trace_tree(trace: Trace, tid: int | None = None,
                      limit: int | None = None,
                      mark: set[int] | None = None) -> str:
    """Render a trace (or one thread of it) as an indented call tree.

    ``mark`` is a set of eids to flag with ``*`` (e.g. differences).
    """
    lines: list[str] = []
    depth = 0
    shown = 0
    for entry in trace.entries:
        if tid is not None and entry.tid != tid:
            continue
        if limit is not None and shown >= limit:
            lines.append("    ...")
            break
        delta, text = _entry_line(entry)
        if delta < 0:
            depth = max(0, depth + delta)
        flag = "*" if mark and entry.eid in mark else " "
        lines.append(f"{flag}{'    ' * depth}{text}")
        if delta > 0:
            depth += delta
        shown += 1
    return "\n".join(lines)


def render_diff_report(result: DiffResult, context: int = 2,
                       max_sequences: int | None = None) -> str:
    """A unified-diff-style report over difference sequences.

    Each sequence is shown with ``-``/``+`` markers and a little context
    from the original traces, giving the "full semantic diff ... with
    dynamic state" the paper describes.
    """
    lines = [
        f"=== semantic diff: {result.left.name or 'old'} vs "
        f"{result.right.name or 'new'} ({result.algorithm}) ===",
        f"{result.num_diffs()} differences in {len(result.sequences)} "
        f"difference sequence(s); "
        f"{len(result.anchor_pairs)} anchor correlation(s)",
    ]
    shown = result.sequences
    if max_sequences is not None:
        shown = shown[:max_sequences]
    left = result.left.entries
    position_of = _position_finder(result.left) if context > 0 else None
    for number, sequence in enumerate(shown, start=1):
        lines.append(f"--- sequence {number} [{sequence.kind}] ---")
        if sequence.left_entries and context > 0:
            first = position_of(sequence.left_entries[0].eid)
            for entry in left[max(0, first - context):first]:
                lines.append(f"  {_entry_line(entry)[1]}")
        for entry in sequence.left_entries:
            lines.append(f"- {_entry_line(entry)[1]}")
        for entry in sequence.right_entries:
            lines.append(f"+ {_entry_line(entry)[1]}")
        if sequence.left_entries and context > 0:
            last = position_of(sequence.left_entries[-1].eid)
            for entry in left[last + 1:last + 1 + context]:
                lines.append(f"  {_entry_line(entry)[1]}")
    if max_sequences is not None and len(result.sequences) > max_sequences:
        lines.append(
            f"... ({len(result.sequences) - max_sequences} more sequences)")
    return "\n".join(lines)


def _position_finder(trace: Trace):
    """eid -> position in ``trace`` (the two differ on slices)."""
    return {eid: position
            for position, eid in enumerate(trace.eid_column())}.__getitem__
