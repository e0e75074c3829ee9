"""Tests for the LCS algorithms, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lcs import (LcsBudgetExceeded, LcsMemoryError, MemoryBudget,
                            OpCounter, lcs_dp, lcs_hirschberg, lcs_length,
                            lcs_optimized, myers_lcs_length, trim_common)

short_seqs = st.lists(st.integers(min_value=0, max_value=5), max_size=18)


def is_common_subsequence(pairs, a, b):
    """Pairs must be strictly increasing on both sides and element-equal."""
    last_i, last_j = -1, -1
    for i, j in pairs:
        if i <= last_i or j <= last_j:
            return False
        if a[i] != b[j]:
            return False
        last_i, last_j = i, j
    return True


class TestLcsDp:
    def test_identical(self):
        result = lcs_dp("abcdef", "abcdef")
        assert len(result) == 6

    def test_disjoint(self):
        assert len(lcs_dp("abc", "xyz")) == 0

    def test_classic_example(self):
        # Fig. 10's example shape: moved subsequences are not detected.
        result = lcs_dp("XMJYAUZ", "MZJAWXU")
        assert len(result) == 4  # MJAU

    def test_empty(self):
        assert len(lcs_dp("", "abc")) == 0
        assert len(lcs_dp("abc", "")) == 0

    def test_counter_counts_nm(self):
        counter = OpCounter()
        lcs_dp("abcd", "xyz", counter=counter)
        assert counter.compares == 12

    def test_budget_exceeded(self):
        budget = MemoryBudget(max_cells=10)
        with pytest.raises(LcsMemoryError):
            lcs_dp("abcdef", "abcdef", budget=budget)

    def test_budget_peak_tracked(self):
        budget = MemoryBudget(max_cells=None)
        lcs_dp("abc", "ab", budget=budget)
        assert budget.peak_cells == 4 * 3

    def test_key_function(self):
        result = lcs_dp([1, 2, 3], [4, 5, 6], key=lambda x: x % 3)
        assert len(result) == 3


class TestTrimCommon:
    def test_full_match(self):
        prefix, a_mid, b_mid = trim_common(list("abc"), list("abc"))
        assert (prefix, a_mid, b_mid) == (3, 0, 0)

    def test_prefix_and_suffix(self):
        prefix, a_mid, b_mid = trim_common(list("aaXbb"), list("aaYYbb"))
        assert prefix == 2
        assert (a_mid, b_mid) == (1, 2)

    def test_no_common(self):
        prefix, a_mid, b_mid = trim_common(list("abc"), list("xyz"))
        assert (prefix, a_mid, b_mid) == (0, 3, 3)

    def test_overlap_guard(self):
        # prefix+suffix cannot overlap: "aa" vs "aaa"
        prefix, a_mid, b_mid = trim_common(list("aa"), list("aaa"))
        assert prefix + a_mid <= 2
        assert prefix + (len("aaa") - (2 - prefix - a_mid) - prefix) >= 0


class TestEquivalences:
    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_hirschberg_matches_dp_length(self, a, b):
        assert len(lcs_hirschberg(a, b)) == len(lcs_dp(a, b))

    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_myers_length_matches_dp(self, a, b):
        assert myers_lcs_length(a, b) == len(lcs_dp(a, b))

    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_lcs_length_matches_dp(self, a, b):
        assert lcs_length(a, b) == len(lcs_dp(a, b))

    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_dp_produces_valid_subsequence(self, a, b):
        result = lcs_dp(a, b)
        assert is_common_subsequence(result.pairs, a, b)

    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_hirschberg_produces_valid_subsequence(self, a, b):
        result = lcs_hirschberg(a, b)
        assert is_common_subsequence(result.pairs, a, b)

    @given(short_seqs, short_seqs)
    @settings(max_examples=200, deadline=None)
    def test_optimized_matches_dp_length(self, a, b):
        assert len(lcs_optimized(a, b)) == len(lcs_dp(a, b))

    @given(short_seqs)
    @settings(max_examples=100, deadline=None)
    def test_lcs_with_self_is_identity(self, a):
        result = lcs_dp(a, a)
        assert result.pairs == [(i, i) for i in range(len(a))]

    @given(short_seqs, short_seqs)
    @settings(max_examples=100, deadline=None)
    def test_length_symmetric(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a)

    @given(short_seqs, short_seqs)
    @settings(max_examples=100, deadline=None)
    def test_length_bounded_by_min(self, a, b):
        assert lcs_length(a, b) <= min(len(a), len(b))


class TestMyersLength:
    def test_budget_exceeded(self):
        with pytest.raises(LcsBudgetExceeded):
            myers_lcs_length(list(range(50)), list(range(50, 100)), max_d=3)

    def test_trim_makes_similar_cheap(self):
        counter = OpCounter()
        a = list(range(1000))
        b = list(range(1000))
        b[500] = -1
        myers_lcs_length(a, b, counter=counter)
        # Compare cost should be far below the quadratic 10^6.
        assert counter.compares < 10_000


class TestOptimized:
    def test_budget_applies_to_middle_only(self):
        # Common prefix/suffix means the middle is tiny; a small budget
        # that would reject the full table accepts the trimmed one.
        a = list(range(100)) + [999] + list(range(100, 200))
        b = list(range(100)) + [888, 777] + list(range(100, 200))
        budget = MemoryBudget(max_cells=100)
        result = lcs_optimized(a, b, budget=budget)
        assert len(result) == 200

    def test_budget_failure_on_divergent_middle(self):
        a = list(range(100))
        b = list(range(200, 300))
        budget = MemoryBudget(max_cells=50)
        with pytest.raises(LcsMemoryError):
            lcs_optimized(a, b, budget=budget)

    def test_charging_when_hirschberg_stands_in(self, monkeypatch):
        a = [i % 7 for i in range(300)]
        b = [(i + 3) % 7 for i in range(300)]
        monkeypatch.setattr("repro.core.lcs.DP_CELL_LIMIT", 10)
        counter = OpCounter()
        result = lcs_optimized(a, b, counter=counter)
        # The DP-equivalent cost was charged instead of performed, and
        # the core is still an exact LCS.
        assert counter.charged > 0
        assert counter.total >= counter.charged
        assert len(result) == len(lcs_dp(a, b))


class TestOpCounter:
    def test_reset(self):
        counter = OpCounter()
        counter.bump(5)
        counter.charge(3)
        assert counter.total == 8
        counter.reset()
        assert counter.total == 0
