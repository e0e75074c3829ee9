"""LCS-based trace differencing (Sec. 3.2, Fig. 11) — the baseline.

Evaluation places into ``sigma`` exactly those entries that belong to the
longest common subsequence of the two traces under event equality ``=e``
(rules STEP-LEFT-LCS / STEP-RIGHT-LCS); everything else is a difference.
The correspondence mapping produced by the LCS lets each contiguous run of
differences be read as an insertion, deletion, or modification.

``lcs_diff`` implements this directly: rather than literally stepping the
small-step rules one entry at a time, the LCS is computed once over the
whole pair and the similarity set read off it — observably the same
``sigma``.  Every algorithm returns a longest common subsequence:
``optimized`` runs its trimmed core on the DP up to
:data:`~repro.core.lcs.DP_CELL_LIMIT` cells and on Hirschberg above.

By default the key sequences are *interned* through a
:class:`~repro.core.keytable.KeyTable` shared by the pair, so every
``=e`` compare inside the LCS machinery is an int compare instead of a
nested-tuple walk; interning is a bijection on keys, so the computed
``sigma`` is identical either way.  ``interned=False`` restores the
tuple-key path.
"""

from __future__ import annotations

import time

from repro.core.diffs import DiffResult, build_sequences
from repro.core.keytable import KeyTable
from repro.core.lcs import (LcsResult, MemoryBudget, OpCounter,
                            lcs_dp, lcs_hirschberg, lcs_optimized)
from repro.core.traces import Trace

#: Selectable baseline algorithms.
ALGORITHMS = ("optimized", "dp", "hirschberg")


def lcs_diff(left: Trace, right: Trace, algorithm: str = "optimized",
             counter: OpCounter | None = None,
             budget: MemoryBudget | None = None,
             interned: bool = True,
             key_table: KeyTable | None = None) -> DiffResult:
    """Difference two traces with the LCS-based semantics of Fig. 11.

    ``algorithm`` selects the LCS implementation: ``"optimized"`` is the
    paper's baseline (common-prefix/suffix trimming + quadratic core);
    ``"dp"`` the untrimmed dynamic program; ``"hirschberg"`` the
    linear-space variant.

    ``budget`` (DP cell cap) models the memory-exhaustion failures the
    paper reports on traces beyond ~100K entries: exceeding it raises
    :class:`repro.core.lcs.LcsMemoryError`.

    ``interned`` compares dense key-table ids instead of key tuples
    (``key_table`` supplies the pair's shared table; one is derived
    from the traces otherwise).

    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown LCS algorithm: {algorithm!r}")
    if counter is None:
        counter = OpCounter()
    started = time.perf_counter()
    if interned:
        table = key_table if key_table is not None \
            else KeyTable.for_pair(left, right)
        keys_l = table.ids_for(left).tolist()
        keys_r = table.ids_for(right).tolist()
    else:
        keys_l = [entry.key() for entry in left.entries]
        keys_r = [entry.key() for entry in right.entries]

    if algorithm == "optimized":
        result: LcsResult = lcs_optimized(keys_l, keys_r, counter=counter,
                                          budget=budget)
    elif algorithm == "dp":
        result = lcs_dp(keys_l, keys_r, counter=counter, budget=budget)
    else:
        result = lcs_hirschberg(keys_l, keys_r, counter=counter)

    eids_l, eids_r = left.eid_column(), right.eid_column()
    match_pairs = [(eids_l[i], eids_r[j]) for i, j in result.pairs]
    similar_left = {l for l, _ in match_pairs}
    similar_right = {r for _, r in match_pairs}
    sequences = build_sequences(left, right, match_pairs, similar_left,
                                similar_right)
    elapsed = time.perf_counter() - started
    return DiffResult(
        left=left,
        right=right,
        similar_left=similar_left,
        similar_right=similar_right,
        match_pairs=match_pairs,
        sequences=sequences,
        counter=counter,
        algorithm=f"lcs-{algorithm}",
        seconds=elapsed,
        peak_cells=budget.peak_cells if budget is not None else 0,
    )
