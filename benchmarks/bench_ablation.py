"""Ablations of the design choices DESIGN.md calls out.

1. Window size omega / exploration radius delta: their effect on
   similarity recall and compare cost (the accuracy/overhead trade of
   LinkedSimilarEntries).
2. Secondary-view exploration on/off: without it, reordered operations
   are misclassified as differences (the Fig. 13 anchors).
3. LCS implementations: DP vs Hirschberg on identical inputs
   (exactness and compare cost).
"""

from __future__ import annotations

from conftest import write_result

from repro.core.lcs import OpCounter, lcs_dp, lcs_hirschberg
from repro.core.traces import TraceBuilder
from repro.core.values import prim
from repro.core.view_diff import ViewDiffConfig, view_diff


def reordered_pair(blocks: int = 12, block: int = 20):
    """Traces whose *thread views* interleave two objects' operations in
    different orders, while each object's own event order is unchanged —
    the reordering the views-based semantics is resilient to (Fig. 13's
    anchors) and the LCS misclassifies as differences."""

    def build(swapped: bool, name: str):
        builder = TraceBuilder(name=name)
        tid = builder.main_tid
        obj_x = builder.record_init(tid, "CellX", (), serialization="x")
        obj_y = builder.record_init(tid, "CellY", (), serialization="y")

        def emit(obj, field, base, count):
            for at in range(count):
                builder.record_set(tid, obj, field, prim(base + at))

        for number in range(blocks):
            base = number * block
            if swapped:
                emit(obj_y, "y", 1000 + base, block)
                emit(obj_x, "x", base, block)
            else:
                emit(obj_x, "x", base, block)
                emit(obj_y, "y", 1000 + base, block)
        builder.record_end(tid)
        return builder.build()

    return build(False, "orig"), build(True, "swapped")


def render_window_ablation() -> str:
    old, new = reordered_pair()
    lines = ["=== Ablation: window omega / radius delta ===",
             f"{'omega':>6} {'delta':>6} {'diffs':>7} {'anchors':>8} "
             f"{'compares':>10}"]
    for omega, delta in [(0, 0), (4, 2), (8, 3), (12, 4), (20, 8),
                         (40, 12)]:
        counter = OpCounter()
        config = ViewDiffConfig(window=omega, radius=delta)
        result = view_diff(old, new, config=config, counter=counter)
        lines.append(f"{omega:6} {delta:6} {result.num_diffs():7} "
                     f"{len(result.anchor_pairs):8} {counter.total:10}")
    lines.append("")
    lines.append("larger windows recover more moved entries (fewer "
                 "diffs) at higher compare cost; omega=0 disables "
                 "anchoring entirely")
    return "\n".join(lines)


def render_lcs_ablation() -> str:
    values_a = [i % 23 for i in range(400)]
    values_b = [(i + 7) % 23 for i in range(380)]
    lines = ["=== Ablation: LCS implementations ===",
             f"{'algorithm':>12} {'|LCS|':>6} {'compares':>10}"]
    rows = []
    for name, func in [("dp", lcs_dp), ("hirschberg", lcs_hirschberg)]:
        counter = OpCounter()
        result = func(values_a, values_b, counter=counter)
        rows.append((name, len(result), counter.total))
        lines.append(f"{name:>12} {len(result):6} {counter.total:10}")
    lines.append("")
    lines.append("hirschberg trades ~2x compares for linear space "
                 "(the paper cites exactly this)")
    assert rows[0][1] == rows[1][1]
    return "\n".join(lines)


def test_window_ablation(benchmark):
    text = render_window_ablation()
    write_result("ablation_window.txt", text)

    old, new = reordered_pair()
    no_views = view_diff(old, new, config=ViewDiffConfig(
        window=0, radius=0, view_types=()))
    with_views = view_diff(old, new, config=ViewDiffConfig(
        window=40, radius=12))
    # Secondary-view exploration recovers the moved block.
    assert with_views.num_diffs() < no_views.num_diffs()
    assert len(with_views.anchor_pairs) > 0
    assert no_views.anchor_pairs == []

    result = benchmark.pedantic(
        lambda: view_diff(old, new), rounds=5, iterations=1)
    assert result is not None


def test_lcs_ablation(benchmark):
    text = render_lcs_ablation()
    write_result("ablation_lcs.txt", text)

    values_a = [i % 23 for i in range(400)]
    values_b = [(i + 7) % 23 for i in range(380)]
    length = benchmark.pedantic(
        lambda: len(lcs_hirschberg(values_a, values_b)), rounds=3,
        iterations=1)
    assert length == len(lcs_dp(values_a, values_b))
