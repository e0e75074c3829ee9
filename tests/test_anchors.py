"""Anchored segmental diffing: anchor selection, the segmental driver,
and the ``anchored:*`` meta-engines, directly and through the cache.

The identity contract, pinned by the property suites below:

* ``anchored:views`` is bit-identical to ``views`` *by construction*
  (anchor runs are bulk-matched only when the lock-step scan is exactly
  at a run start, so the scan's state trajectory never changes) — on
  any trace pair, interning on or off.
* ``anchored:<lcs>`` is bit-identical to its inner engine whenever the
  inner computes its canonical exact answer — structured near-identical
  pairs (hypothesis), and the single-threaded workload scenario pairs
  at sizes where the quadratic core is reached.  On pairs with
  genuinely ambiguous alignments (Derby's interleaved lock-daemon
  entries) or where the inner falls back to its approximate differ,
  the anchored result is *never worse*: at least as many matched
  entries, at most as many differences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (AnchoredEngine, Session, available_engines,
                       get_engine, is_cacheable, register_engine,
                       unregister_engine)
from repro.core.anchors import (AnchorConfig, AnchorRun, Gap,
                                anchor_candidates, merge_segment_results,
                                segment_pair, segment_sequences,
                                select_anchor_runs)
from repro.core.diffs import result_identity
from repro.core.lcs import LcsMemoryError, MemoryBudget, OpCounter
from repro.core.lcs_diff import ALGORITHMS, lcs_diff
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig, view_diff

from helpers import myfaces_trace, simple_trace, two_thread_trace


def mutate(values, edits):
    """Apply (position, replacement) edits to a value list."""
    out = list(values)
    for position, value in edits:
        out[position] = value
    return out


# -- anchor selection --------------------------------------------------------


class TestAnchorCandidates:
    def test_unique_common_keys_pair_up(self):
        pairs = anchor_candidates([1, 2, 3], [3, 1, 2])
        assert sorted(pairs) == [(0, 1), (1, 2), (2, 0)]

    def test_repeated_keys_excluded_at_max_occurrence_one(self):
        pairs = anchor_candidates([1, 1, 2], [1, 2, 1])
        assert pairs == [(2, 1)]

    def test_unequal_counts_excluded(self):
        assert anchor_candidates([1, 1, 2], [1, 2]) == [(2, 1)]

    def test_histogram_mode_pairs_kth_occurrences(self):
        pairs = anchor_candidates([7, 8, 7], [7, 9, 7], max_occurrence=2)
        assert pairs == [(0, 0), (2, 2)]

    def test_no_compares_charged(self):
        counter = OpCounter()
        select_anchor_runs(list(range(50)), list(range(50)),
                           AnchorConfig(), counter=counter)
        # Candidate discovery and LIS are hash/position work; only run
        # extension compares keys, and a full-cover run extends nowhere.
        assert counter.total == 0


class TestAnchorRuns:
    def test_full_cover_single_run(self):
        runs = select_anchor_runs([1, 2, 3, 4], [1, 2, 3, 4])
        assert runs == [AnchorRun(0, 0, 4)]

    def test_crossing_anchors_dropped_by_lis(self):
        left = list(range(10)) + [100, 101]
        right = [100, 101] + list(range(10))
        runs = select_anchor_runs(left, right)
        assert runs == [AnchorRun(0, 2, 10)]

    def test_min_run_drops_short_runs(self):
        # A lone anchor in crossing context (the patience failure mode).
        left = [50, 1, 1]
        right = [1, 1, 50]
        assert select_anchor_runs(left, right,
                                  AnchorConfig(min_run=2)) == []

    def test_extension_grows_runs_over_repeated_keys(self):
        # 7s repeat (not candidates) but sit in an aligned context.
        left = [1, 7, 7, 2, 9]
        right = [1, 7, 7, 2, 8]
        counter = OpCounter()
        runs = select_anchor_runs(left, right, counter=counter)
        assert runs == [AnchorRun(0, 0, 4)]
        assert counter.total > 0  # extension performed real compares

    def test_extension_respects_neighbour_runs(self):
        runs = select_anchor_runs([1, 2, 9, 3, 4], [1, 2, 8, 3, 4])
        assert runs == [AnchorRun(0, 0, 2), AnchorRun(3, 3, 2)]


class TestSegmentation:
    def test_gap_between_runs(self):
        seg = segment_sequences([1, 2, 9, 9, 3, 4], [1, 2, 8, 3, 4])
        assert seg.runs == [AnchorRun(0, 0, 2), AnchorRun(4, 3, 2)]
        assert seg.gaps == [Gap(2, 4, 2, 3)]

    def test_leading_and_trailing_gaps(self):
        seg = segment_sequences([9, 1, 2, 8], [7, 1, 2, 6, 5])
        assert seg.runs == [AnchorRun(1, 1, 2)]
        assert seg.gaps == [Gap(0, 1, 0, 1), Gap(3, 4, 3, 5)]

    def test_empty_sequences(self):
        seg = segment_sequences([], [])
        assert seg.runs == [] and seg.gaps == []

    def test_one_empty_side_is_one_gap(self):
        seg = segment_sequences([], [1, 2])
        assert seg.runs == [] and seg.gaps == [Gap(0, 0, 0, 2)]

    def test_render_mentions_runs_and_gaps(self):
        text = segment_sequences([1, 2, 9], [1, 2, 8]).render()
        assert "run(s)" in text and "gaps" in text

    @given(st.lists(st.integers(0, 30), max_size=60),
           st.lists(st.integers(0, 30), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_segmentation_invariants(self, left, right):
        seg = segment_sequences(left, right)
        at_l = at_r = 0
        items = [((run.left, run.right), "run", run)
                 for run in seg.runs]
        items.extend(((gap.left_lo, gap.right_lo), "gap", gap)
                     for gap in seg.gaps)
        items.sort(key=lambda item: item[0])
        for _pos, kind, item in items:
            if kind == "run":
                assert (item.left, item.right) == (at_l, at_r)
                for offset in range(item.length):
                    assert left[item.left + offset] == \
                        right[item.right + offset]
                at_l += item.length
                at_r += item.length
            else:
                assert (item.left_lo, item.right_lo) == (at_l, at_r)
                assert item.left_len > 0 or item.right_len > 0
                at_l, at_r = item.left_hi, item.right_hi
        # Together, runs and gaps cover both sequences exactly.
        assert (at_l, at_r) == (len(left), len(right))


# -- merge bookkeeping -------------------------------------------------------


class TestMergeSegmentResults:
    def test_gap_result_count_must_match(self):
        left = simple_trace([1, 2, 3])
        right = simple_trace([1, 2, 4])
        seg = segment_pair(left, right)
        with pytest.raises(ValueError, match="gap"):
            merge_segment_results(left, right, seg,
                                  [None] * (len(seg.gaps) + 1),
                                  counter=OpCounter())

    def test_all_common_merge_matches_everything(self):
        left = simple_trace([1, 2, 3], name="l")
        right = simple_trace([1, 2, 3], name="r")
        seg = segment_pair(left, right)
        merged = merge_segment_results(left, right, seg, [None] * len(seg.gaps),
                                       counter=OpCounter())
        assert merged.num_diffs() == 0
        assert len(merged.match_pairs) == len(left)
        assert merged.sequences == []


# -- anchored LCS ------------------------------------------------------------

#: Edits over a unique-increasing base: replacements draw from a
#: disjoint alphabet so the common keys of a pair are exactly the
#: unedited base values (unique in both, monotone) — the LCS is unique
#: and the segmental computation must reproduce it bit for bit.
base_edits = st.lists(
    st.tuples(st.integers(0, 79), st.integers(0, 1)), max_size=8)


class TestAnchoredLcsIdentity:
    @given(base_edits, base_edits)
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_on_unambiguous_pairs(self, edits_l, edits_r):
        base = list(range(80))
        left = simple_trace(mutate(base, [(p, 1000 + 2 * i)
                                          for i, (p, _) in
                                          enumerate(edits_l)]), name="l")
        right = simple_trace(mutate(base, [(p, 2000 + 2 * i)
                                           for i, (p, _) in
                                           enumerate(edits_r)]), name="r")
        for algorithm in ALGORITHMS:
            inner = lcs_diff(left, right, algorithm)
            anchored = lcs_diff(left, right, algorithm,
                                anchors=AnchorConfig())
            assert result_identity(anchored) == result_identity(inner), \
                algorithm

    @pytest.mark.parametrize("interned", [True, False])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_interned_and_tuple_paths_agree(self, algorithm, interned):
        base = list(range(120))
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, [(30, 900), (31, 901),
                                           (90, 902)]), name="r")
        inner = lcs_diff(left, right, algorithm, interned=interned)
        anchored = lcs_diff(left, right, algorithm, interned=interned,
                            anchors=AnchorConfig())
        assert result_identity(anchored) == result_identity(inner)
        assert anchored.counter.total < inner.counter.total

    def test_compare_reduction_on_near_identical_pair(self):
        base = list(range(800))
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, [(100, 9000), (400, 9001),
                                           (700, 9002)]), name="r")
        inner = lcs_diff(left, right, "optimized")
        anchored = lcs_diff(left, right, "optimized",
                            anchors=AnchorConfig())
        assert result_identity(anchored) == result_identity(inner)
        assert inner.counter.total >= 3 * max(anchored.counter.total, 1)

    def test_anchoring_survives_budget_that_kills_inner(self):
        """Per-gap DP tables: the segmental path stays under a cell
        budget that makes the whole-pair baseline fail — the paper's
        memory-exhaustion scenario, solved by decomposition."""
        base = list(range(3000))
        right_values = mutate(base, [(1000, 1), (1001, 2), (2000, 3)])
        left = simple_trace(base, name="l")
        right = simple_trace(right_values, name="r")
        budget = MemoryBudget(max_cells=1_000_000)
        with pytest.raises(LcsMemoryError):
            lcs_diff(left, right, "optimized", budget=budget)
        survivor = lcs_diff(left, right, "optimized",
                            budget=MemoryBudget(max_cells=1_000_000),
                            anchors=AnchorConfig())
        assert survivor.num_diffs() > 0
        assert 0 < survivor.peak_cells < 1_000_000


# -- anchored views ----------------------------------------------------------

operation = st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 6))
programs = st.lists(operation, max_size=40)

METHODS = ("Widget.spin", "Widget.poke", "Widget.drop")


def build_threaded_trace(program, name=""):
    from repro.core.traces import TraceBuilder
    from repro.core.values import prim

    builder = TraceBuilder(name=name)
    main = builder.main_tid
    obj = builder.record_init(main, "Widget", (), serialization="widget")
    tids = {0: main}
    for thread_at, kind, value in program:
        tid = tids.get(thread_at)
        if tid is None:
            tid = tids[thread_at] = builder.record_fork(main)
        if kind == 0:
            builder.record_set(tid, obj, "v", prim(value))
        elif kind == 1:
            builder.record_call(tid, obj, METHODS[value % len(METHODS)],
                                (prim(value),))
            builder.record_return(tid, prim(value))
        else:
            builder.record_get(tid, obj, "v", prim(value))
    for tid in tids.values():
        builder.record_end(tid)
    return builder.build()


class TestAnchoredViewsIdentity:
    """view_diff's anchored mode is identical by construction — pinned
    over arbitrary random multi-threaded pairs, not just friendly
    ones."""

    @given(programs, programs)
    @settings(max_examples=50, deadline=None)
    def test_bit_identity_on_random_threaded_pairs(self, prog_l, prog_r):
        left = build_threaded_trace(prog_l, name="left")
        right = build_threaded_trace(prog_r, name="right")
        plain = view_diff(left, right)
        anchored = view_diff(left, right,
                             config=ViewDiffConfig(anchored=True))
        assert result_identity(anchored) == result_identity(plain)

    def test_myfaces_pair_identity_and_fewer_compares(self):
        left = myfaces_trace(min_range=32, name="old")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        plain = view_diff(left, right)
        anchored = view_diff(left, right,
                             config=ViewDiffConfig(anchored=True))
        assert result_identity(anchored) == result_identity(plain)
        assert anchored.counter.total <= plain.counter.total

    @pytest.mark.parametrize("interned", [True, False])
    def test_two_thread_identity(self, interned):
        left = two_thread_trace([1, 2, 3, 4, 5], [7, 8, 9], name="l")
        right = two_thread_trace([1, 2, 9, 4, 5], [7, 8], name="r")
        config = ViewDiffConfig(interned=interned)
        anchored_config = ViewDiffConfig(interned=interned, anchored=True)
        assert result_identity(view_diff(left, right,
                                         config=anchored_config)) == \
            result_identity(view_diff(left, right, config=config))


# -- the anchored meta-engines ----------------------------------------------


class TestAnchoredEngineRegistry:
    def test_builtin_combinations_registered(self):
        names = available_engines()
        assert "anchored:views" in names
        for algorithm in ALGORITHMS:
            assert f"anchored:{algorithm}" in names

    def test_capability_flags(self):
        views = get_engine("anchored:views")
        optimized = get_engine("anchored:optimized")
        assert is_cacheable(views) and is_cacheable(optimized)
        # Only views anchors inside its own evaluation; LCS inners are
        # segmented.
        assert views.inner.anchor_aware
        assert not getattr(optimized.inner, "anchor_aware", False)

    def test_dynamic_resolution_of_custom_inner(self):
        class Constant:
            name = "anchor-test-constant"

            def diff(self, left, right, *, config=None, counter=None,
                     budget=None, key_table=None):
                return get_engine("optimized").diff(
                    left, right, config=config, counter=counter,
                    budget=budget, key_table=key_table)

        register_engine(Constant())
        try:
            engine = get_engine("anchored:anchor-test-constant")
            assert isinstance(engine, AnchoredEngine)
            assert engine.name == "anchored:anchor-test-constant"
            # Not registered: resolved dynamically each time.
            assert "anchored:anchor-test-constant" not in \
                available_engines()
            # Purity is not assumed for third-party inners.
            assert not is_cacheable(engine)
            base = list(range(300))
            left = simple_trace(base, name="l")
            right = simple_trace(
                mutate(base, [(40, 901), (41, 902), (250, 903)]),
                name="r")
            # The meta-engine and lcs_diff's anchored path share one
            # gap driver.
            assert result_identity(engine.diff(left, right)) == \
                result_identity(lcs_diff(left, right,
                                         anchors=AnchorConfig()))
        finally:
            unregister_engine("anchor-test-constant")

    def test_unknown_inner_still_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_engine("anchored:bogus")

    def test_session_runs_anchored_engine(self):
        left = simple_trace(list(range(60)), name="l")
        right = simple_trace(mutate(list(range(60)), [(20, 777)]),
                             name="r")
        result = Session(engine="anchored:optimized").diff(left, right)
        reference = Session(engine="optimized").diff(left, right)
        assert result_identity(result) == result_identity(reference)


# -- gap execution and the cache ---------------------------------------------


@pytest.fixture(scope="module")
def gapped_pair():
    """A near-identical pair with several two-sided (modify) gaps, so
    gap diffs actually execute."""
    base = list(range(2000))
    edits = [(100, 9001), (101, 9002), (700, 9003), (1400, 9004),
             (1401, 9005), (1900, 9006)]
    return (simple_trace(base, name="l"),
            simple_trace(mutate(base, edits), name="r"))


class TestSegmentExecution:
    """Gap diffs run in the calling thread, one after another."""

    def test_gap_diffs_identical_to_inner(self, gapped_pair):
        left, right = gapped_pair
        result = get_engine("anchored:optimized").diff(left, right)
        reference = get_engine("optimized").diff(left, right)
        assert result_identity(result) == result_identity(reference)

    def test_budget_calls_stay_serial_and_budgeted(self, gapped_pair):
        left, right = gapped_pair
        budget = MemoryBudget(max_cells=10_000)
        result = AnchoredEngine("optimized").diff(
            left, right, budget=budget)
        assert budget.peak_cells > 0  # gap tables were really requested
        assert result.peak_cells == budget.peak_cells


class TestAnchoredCacheAccounting:
    def test_computed_diff_is_not_a_cache_hit(self, tmp_path):
        """A whole-result miss is computed: it leaves the cache's hit
        count alone and its catalog row reads ``cached=False``, even
        when the new pair shares every gap's content with a diff the
        cache already holds."""
        base = list(range(3000))
        edits = [(600, 9001), (1200, 9002), (1800, 9003), (2400, 9004)]
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, edits), name="r")
        # Three extra entries up front shift every later entry id.
        shifted = simple_trace([-1, -2, -3] + mutate(base, edits),
                               name="shifted")
        session = Session(engine="anchored:optimized",
                          cache=tmp_path / "cache",
                          store=tmp_path / "store")
        session.diff(left, right)
        hits = session.cache.hits
        result = session.diff(left, shifted)
        assert session.cache.hits == hits
        rows = session.store.index.diff_stats()
        assert len(rows) == 2
        assert not any(row.cached for row in rows)
        reference = lcs_diff(left, shifted, anchors=AnchorConfig())
        assert result_identity(result) == result_identity(reference)


# -- degenerate paths (hardening satellite) ---------------------------------


class TestDegenerateSegmentation:
    @pytest.mark.parametrize("engine", ["anchored:views",
                                        "anchored:optimized"])
    def test_empty_vs_empty(self, engine):
        result = get_engine(engine).diff(Trace([], name="a"),
                                         Trace([], name="b"))
        assert result.num_diffs() == 0
        assert result.sequences == []

    @pytest.mark.parametrize("engine", ["anchored:views",
                                        "anchored:optimized"])
    def test_empty_vs_full(self, engine):
        full = simple_trace([1, 2, 3], name="full")
        result = get_engine(engine).diff(Trace([], name="e"), full)
        assert result.num_diffs() == len(full)
        [sequence] = result.sequences
        assert sequence.kind == "insert"

    @pytest.mark.parametrize("engine", available_engines())
    def test_all_common_pair(self, engine):
        left = simple_trace([3, 1, 4, 1, 5], name="l")
        right = simple_trace([3, 1, 4, 1, 5], name="r")
        result = get_engine(engine).diff(left, right)
        assert result.num_diffs() == 0
        assert len(result.match_pairs) == len(left)

    @pytest.mark.parametrize("engine", available_engines())
    def test_single_gap_pair(self, engine):
        left = simple_trace([1, 2, 3, 4, 5, 6], name="l")
        right = simple_trace([1, 2, 9, 4, 5, 6], name="r")
        result = get_engine(engine).diff(left, right)
        assert result.num_diffs() == 2
        [sequence] = result.sequences
        assert sequence.kind == "modify"


# -- the scenario property matrix -------------------------------------------


def _scenario_pairs():
    """One near-identical suspected pair per workload, captured once.

    minidb (Derby) interleaves its lock-daemon thread, so its pairs
    carry genuinely ambiguous repeated-key alignments; minixslt and
    minijs are single-threaded and unambiguous.
    """
    from repro.workloads.harness import SCENARIOS, capture_scenario_trace
    from repro.workloads.minijs import scenario as minijs
    from repro.workloads.minijs.bug_registry import MINIJS_BUGS

    pairs = {}
    for name, key in (("minixslt", "Xalan-1725"), ("minidb", "Derby-1633")):
        spec = SCENARIOS[key]
        pairs[name] = tuple(
            capture_scenario_trace(spec, runner, spec.regressing_input,
                                   f"{key}/{role}")
            for runner, role in ((spec.run_old, "old/regressing"),
                                 (spec.run_new, "new/regressing")))
    old, new = minijs.trace_pair(MINIJS_BUGS.get("MF-STR-COERCE"), 6)
    pairs["minijs"] = (old, new)
    return pairs


@pytest.fixture(scope="module")
def scenario_pairs():
    return _scenario_pairs()


#: Slice budget per engine: sizes at which the quadratic engines reach
#: their exact DP core (identity is only specified where the inner
#: engine is exact).
ENGINE_SLICES = {"views": 4000, "optimized": 1500, "fast": 1500,
                 "dp": 700, "hirschberg": 700}


class TestScenarioIdentityMatrix:
    """Anchored engine vs inner engine across all inner engines x
    interned on/off x the three workload scenario pairs."""

    @pytest.mark.parametrize("interned", [True, False])
    @pytest.mark.parametrize("engine", list(ENGINE_SLICES))
    @pytest.mark.parametrize("workload", ["minixslt", "minijs"])
    def test_bit_identity_single_threaded_workloads(
            self, scenario_pairs, workload, engine, interned):
        size = ENGINE_SLICES[engine]
        left, right = scenario_pairs[workload]
        left, right = left[:size], right[:size]
        config = ViewDiffConfig(interned=interned)
        inner = get_engine(engine).diff(left, right, config=config)
        anchored = get_engine(f"anchored:{engine}").diff(left, right,
                                                        config=config)
        assert result_identity(anchored) == result_identity(inner), \
            (workload, engine, interned)

    @pytest.mark.parametrize("engine", list(ENGINE_SLICES))
    def test_minidb_anchored_never_worse(self, scenario_pairs, engine):
        """Derby's interleaved lock-daemon entries make some LCS ties
        genuinely ambiguous, so the contract there is: same or better
        alignment, never worse — and strict bit-identity for views
        (whose anchored mode cannot change the scan trajectory)."""
        size = ENGINE_SLICES[engine]
        left, right = scenario_pairs["minidb"]
        left, right = left[:size], right[:size]
        inner = get_engine(engine).diff(left, right)
        anchored = get_engine(f"anchored:{engine}").diff(left, right)
        if engine == "views":
            assert result_identity(anchored) == result_identity(inner)
        assert len(anchored.match_pairs) >= len(inner.match_pairs)
        assert anchored.num_diffs() <= inner.num_diffs()
        assert anchored.counter.total <= inner.counter.total
