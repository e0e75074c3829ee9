"""Cross-algorithm LCS agreement over interned-id sequences.

Every baseline is exact, so all must agree on the LCS *length*:
``lcs_dp`` is the reference; ``lcs_hirschberg`` is exact by
construction, ``myers_lcs_length`` computes the length directly, and
``lcs_optimized`` runs its trimmed core on one of the two — the DP up
to ``DP_CELL_LIMIT`` cells, Hirschberg above, which the tests reach by
patching the limit down.  The sequences are small dense ints — exactly
what the interned data layer feeds the hot loops — and the edge cases
cover trimming overlap and the budget/cap failure modes.

The suite is also the bit-identity oracle for the bitvector kernel:
every registered ``lcs_diff`` algorithm must return the same pairs and
charge the same compare counts when the scalar loops stand in for the
kernel (:func:`helpers.scalar_kernels`) — speed must never change the
paper's reported metrics.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcs import (LcsBudgetExceeded, LcsMemoryError, MemoryBudget,
                            OpCounter, lcs_dp, lcs_hirschberg, lcs_length,
                            lcs_optimized, myers_lcs_length, trim_common)
from repro.core.lcs_diff import ALGORITHMS, lcs_diff

from helpers import scalar_kernels, simple_trace

#: Every registered ``lcs_diff`` algorithm as a key-sequence function.
ALGO_FUNCS = {
    "dp": lcs_dp,
    "hirschberg": lcs_hirschberg,
    "optimized": lcs_optimized,
}

# Interned-id sequences: small alphabets force repeats (the interesting
# LCS structure), larger ones are mostly unique keys.
ids = st.lists(st.integers(0, 6), max_size=40)
wide_ids = st.lists(st.integers(0, 1000), max_size=40)


def _is_subsequence(pairs, a, b):
    last_i = last_j = -1
    for i, j in pairs:
        if not (i > last_i and j > last_j):
            return False
        if a[i] != b[j]:
            return False
        last_i, last_j = i, j
    return True


class TestAlgorithmAgreement:
    @given(ids, ids)
    @settings(max_examples=120, deadline=None)
    def test_all_exact_algorithms_agree_with_dp_length(self, a, b):
        reference = len(lcs_dp(a, b).pairs)
        assert len(lcs_hirschberg(a, b).pairs) == reference
        assert len(lcs_optimized(a, b).pairs) == reference
        assert myers_lcs_length(a, b) == reference
        assert lcs_length(a, b) == reference

    @given(wide_ids, wide_ids)
    @settings(max_examples=60, deadline=None)
    def test_agreement_on_mostly_unique_ids(self, a, b):
        reference = len(lcs_dp(a, b).pairs)
        assert len(lcs_hirschberg(a, b).pairs) == reference
        assert len(lcs_optimized(a, b).pairs) == reference
        assert myers_lcs_length(a, b) == reference

    @given(ids, ids)
    @settings(max_examples=60, deadline=None)
    def test_every_result_is_a_common_subsequence(self, a, b):
        for algorithm in ALGO_FUNCS.values():
            assert _is_subsequence(algorithm(a, b).pairs, a, b), algorithm

    @given(ids)
    @settings(max_examples=40, deadline=None)
    def test_identical_sequences_match_fully(self, a):
        assert myers_lcs_length(a, a) == len(a)
        assert len(lcs_optimized(a, a).pairs) == len(a)
        assert len(lcs_hirschberg(a, a).pairs) == len(a)

    @given(st.lists(st.integers(0, 3), max_size=12),
           st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_trim_overlap_edge_cases(self, core, prefix_n, suffix_n):
        # Sequences like "aaa" vs "aa" where prefix and suffix trimming
        # regions overlap — the classic off-by-one breeding ground.
        a = [9] * prefix_n + core + [9] * suffix_n
        b = [9] * prefix_n + [9] * suffix_n
        reference = len(lcs_dp(a, b).pairs)
        assert myers_lcs_length(a, b) == reference
        assert len(lcs_optimized(a, b).pairs) == reference
        assert len(lcs_hirschberg(a, b).pairs) == reference

    @given(st.lists(st.integers(0, 3), max_size=19),
           st.lists(st.integers(0, 3), max_size=19))
    @settings(max_examples=200, deadline=None)
    def test_optimized_exact_when_hirschberg_runs_the_core(self, a, b):
        # The limit is patched down to a few cells, so cores that would
        # run on the DP at full size run on Hirschberg here.  The
        # result stays an LCS and the compare total stays the DP's
        # (counted below the limit, charged above it).
        unpatched = OpCounter()
        lcs_optimized(a, b, counter=unpatched)
        counter = OpCounter()
        with mock.patch("repro.core.lcs.DP_CELL_LIMIT", 4):
            result = lcs_optimized(a, b, counter=counter)
        assert len(result.pairs) == len(lcs_dp(a, b).pairs)
        assert _is_subsequence(result.pairs, a, b)
        assert counter.total == unpatched.total


def test_planted_move_every_engine_finds_the_lcs():
    """One unique entry moves from the front to the back of a long
    repetitive trace.  The trimmed core is above the old 4M-cell DP
    limit, where a patience-pivot split kept only the moved entry; an
    exact LCS keeps everything else."""
    body = [i % 7 for i in range(2501)]
    left = simple_trace([7] + body, name="l")
    right = simple_trace(body + [7], name="r")
    exact = len(lcs_diff(left, right, "hirschberg").match_pairs)
    assert exact == len(body) + 2  # the body plus the init and end entries
    for algorithm in ALGORITHMS:
        result = lcs_diff(left, right, algorithm)
        assert len(result.match_pairs) == exact, algorithm


def _with_and_without_oracle(run):
    """``(run(counter), compares, charged)`` on the bitvector kernel,
    then with the scalar loops standing in for it."""
    snapshots = []
    for oracle in (False, True):
        counter = OpCounter()
        if oracle:
            with scalar_kernels():
                value = run(counter)
        else:
            value = run(counter)
        snapshots.append((value, counter.compares, counter.charged))
    return snapshots


class TestKernelBackendAgreement:
    """Bit-identity of the bitvector kernel against the scalar loops.

    For every registered algorithm: the *same* pairs (not just the
    same length) and the *same* compare accounting whether the kernel
    or the scalar reference loops fill the rows and run the scans —
    the kernel's callers credit the :class:`OpCounter` in bulk with
    exactly the counts the per-cell loops would have recorded.
    """

    def test_every_registered_algorithm_is_covered(self):
        assert set(ALGO_FUNCS) == set(ALGORITHMS)

    @pytest.mark.parametrize("algorithm", sorted(ALGO_FUNCS))
    @given(ids, ids)
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_pairs_and_counts(self, algorithm, a, b):
        func = ALGO_FUNCS[algorithm]
        kernel, oracle = _with_and_without_oracle(
            lambda counter: func(a, b, counter=counter).pairs)
        assert kernel == oracle

    @pytest.mark.parametrize("algorithm", sorted(ALGO_FUNCS))
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    max_size=24),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_backends_agree_on_tuple_keys(self, algorithm, a, b):
        # ``interned=False`` feeds raw ``=e`` key tuples instead of
        # dense ids; the kernel must handle them bit-identically.
        func = ALGO_FUNCS[algorithm]
        kernel, oracle = _with_and_without_oracle(
            lambda counter: func(a, b, counter=counter).pairs)
        assert kernel == oracle

    @given(ids, ids)
    @settings(max_examples=40, deadline=None)
    def test_trim_common_counts_identical_across_backends(self, a, b):
        kernel, oracle = _with_and_without_oracle(
            lambda counter: trim_common(a, b, counter=counter))
        assert kernel == oracle


class TestEdgeCases:
    def test_empty_sequences(self):
        for algorithm in ALGO_FUNCS.values():
            assert algorithm([], []).pairs == []
            assert algorithm([1, 2], []).pairs == []
            assert algorithm([], [1, 2]).pairs == []
        assert myers_lcs_length([], [1, 2]) == 0

    def test_disjoint_alphabets(self):
        a, b = [1, 2, 3], [4, 5, 6]
        assert len(lcs_dp(a, b).pairs) == 0
        assert myers_lcs_length(a, b) == 0
        assert len(lcs_optimized(a, b).pairs) == 0

    def test_trim_common_overlap(self):
        # "aaa" vs "aa": prefix claims 2, the suffix scan must not
        # double-count the shared middle.
        prefix, a_mid, b_mid = trim_common([1, 1, 1], [1, 1])
        assert prefix + (3 - prefix - a_mid) <= 3
        assert a_mid >= 0 and b_mid >= 0
        assert len(lcs_dp([1, 1, 1], [1, 1]).pairs) == 2

    def test_myers_budget_cap_raises(self):
        a = list(range(0, 20))
        b = list(range(100, 120))
        with pytest.raises(LcsBudgetExceeded):
            myers_lcs_length(a, b, max_d=3)

    def test_dp_memory_budget_raises(self):
        budget = MemoryBudget(max_cells=10)
        with pytest.raises(LcsMemoryError):
            lcs_dp(list(range(10)), list(range(10)), budget=budget)

    def test_optimized_budget_applies_to_trimmed_core_only(self):
        # Equal prefixes/suffixes shrink the budgeted region: a pair
        # that would blow a tiny budget untrimmed passes when only the
        # middle differs.
        budget = MemoryBudget(max_cells=16)
        a = [1, 2, 3, 4, 9, 5, 6, 7, 8]
        b = [1, 2, 3, 4, 0, 5, 6, 7, 8]
        result = lcs_optimized(a, b, budget=budget)
        assert len(result.pairs) == 8
        assert budget.peak_cells <= 16
