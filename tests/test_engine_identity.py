"""Identity checks of the plain engines on the pairs where exactness
is easiest to lose.

The LCS baselines on unambiguous, near-identical and degenerate pairs
and on both key paths (interned ids and ``=e`` tuples); the views
engine on random threaded pairs, whose results carry Fig. 13's anchor
pairs; the engine registry; budgets and the diff cache's accounting;
and every engine on the case-study pairs.  The suite began as the
patience-anchoring suite, which is why some test names still say
"anchored"; what each checks is in its body.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (Session, available_engines, get_engine, is_cacheable,
                       register_engine, unregister_engine)
from repro.core.diffs import result_identity, result_signature
from repro.core.lcs import MemoryBudget
from repro.core.lcs_diff import ALGORITHMS, lcs_diff
from repro.core.view_diff import ViewDiffConfig, view_diff

from helpers import myfaces_trace, simple_trace, two_thread_trace


def mutate(values, edits):
    """Apply (position, replacement) edits to a value list."""
    out = list(values)
    for position, value in edits:
        out[position] = value
    return out


# -- the LCS engines ---------------------------------------------------------

#: Edits over a unique-increasing base: replacements draw from a
#: disjoint alphabet so the common keys of a pair are exactly the
#: unedited base values (unique in both, monotone) — the LCS is unique
#: and every exact algorithm must find it bit for bit.
base_edits = st.lists(
    st.tuples(st.integers(0, 79), st.integers(0, 1)), max_size=8)


class TestLcsIdentity:
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
        reference = result_identity(lcs_diff(left, right, "dp"))
        for algorithm in ALGORITHMS:
            assert result_identity(lcs_diff(left, right, algorithm)) == \
                reference, algorithm

    @pytest.mark.parametrize("interned", [True, False])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_interned_and_tuple_paths_agree(self, algorithm, interned):
        base = list(range(120))
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, [(30, 900), (31, 901),
                                           (90, 902)]), name="r")
        result = lcs_diff(left, right, algorithm, interned=interned)
        other = lcs_diff(left, right, algorithm, interned=not interned)
        assert result_identity(result) == result_identity(other)
        assert result.counter.total == other.counter.total
        assert result_identity(result) == result_identity(
            lcs_diff(left, right, "dp", interned=not interned))
        assert result.num_diffs() == 6
        assert [s.kind for s in result.sequences] == ["modify", "modify"]

    def test_compare_reduction_on_near_identical_pair(self):
        """``optimized`` trims the common prefix and suffix before its
        DP core: the same differences as the untrimmed DP, for fewer
        compares."""
        base = list(range(800))
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, [(100, 9000), (400, 9001),
                                           (700, 9002)]), name="r")
        plain = lcs_diff(left, right, "dp")
        trimmed = lcs_diff(left, right, "optimized")
        assert result_identity(trimmed) == result_identity(plain)
        assert trimmed.counter.total < plain.counter.total


# -- the views engine and Fig. 13's anchors ----------------------------------

operation = st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 6))
programs = st.lists(operation, max_size=40)

METHODS = ("Widget.spin", "Widget.poke", "Widget.drop")


def build_threaded_trace(program, name=""):
    """Up to three threads (forked on first use) setting, reading and
    calling methods on one shared object."""
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


class TestViewsIdentity:
    """Interning changes no views result — similarity sets, matched
    pairs, Fig. 13 anchor pairs and sequences — over arbitrary random
    multi-threaded pairs, not just friendly ones."""

    @given(programs, programs)
    @settings(max_examples=50, deadline=None)
    def test_bit_identity_on_random_threaded_pairs(self, prog_l, prog_r):
        left = build_threaded_trace(prog_l, name="left")
        right = build_threaded_trace(prog_r, name="right")
        interned = view_diff(left, right)
        tupled = view_diff(left, right,
                           config=ViewDiffConfig(interned=False))
        assert result_identity(interned) == result_identity(tupled)

    def test_myfaces_pair_identity_and_fewer_compares(self):
        left = myfaces_trace(min_range=32, name="old")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        interned = view_diff(left, right)
        tupled = view_diff(left, right,
                           config=ViewDiffConfig(interned=False))
        assert interned.anchor_pairs
        assert result_identity(interned) == result_identity(tupled)
        # Interned ids stand in for key tuples one for one: no compare
        # is added or saved.
        assert interned.counter.total == tupled.counter.total

    @pytest.mark.parametrize("interned", [True, False])
    def test_two_thread_identity(self, interned):
        left = two_thread_trace([1, 2, 3, 4, 5], [7, 8, 9], name="l")
        right = two_thread_trace([1, 2, 9, 4, 5], [7, 8], name="r")
        result = view_diff(left, right,
                           config=ViewDiffConfig(interned=interned))
        other = view_diff(left, right,
                          config=ViewDiffConfig(interned=not interned))
        assert result_identity(result) == result_identity(other)
        assert [(s.kind, len(s.left_entries), len(s.right_entries))
                for s in result.sequences] == [("modify", 1, 1),
                                               ("delete", 1, 0)]


# -- the engine registry -----------------------------------------------------


class TestEngineRegistry:
    def test_builtin_combinations_registered(self):
        names = available_engines()
        assert names == ("views",) + tuple(sorted(ALGORITHMS))
        assert not any(name.startswith("anchored:") for name in names)

    def test_capability_flags(self):
        for name in available_engines():
            engine = get_engine(name)
            assert is_cacheable(engine)
            assert not hasattr(engine, "anchor_aware")

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
            engine = get_engine("anchor-test-constant")
            assert engine.name == "anchor-test-constant"
            # A registered name resolves as itself, and only as itself.
            with pytest.raises(KeyError, match="available"):
                get_engine("anchored:anchor-test-constant")
            # Purity is not assumed for third-party engines.
            assert not is_cacheable(engine)
            base = list(range(300))
            left = simple_trace(base, name="l")
            right = simple_trace(
                mutate(base, [(40, 901), (41, 902), (250, 903)]),
                name="r")
            assert result_identity(engine.diff(left, right)) == \
                result_identity(lcs_diff(left, right, "optimized"))
        finally:
            unregister_engine("anchor-test-constant")

    def test_unknown_inner_still_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_engine("anchored:bogus")

    def test_session_runs_anchored_engine(self):
        """A Session runs the views engine, whose results carry Fig.
        13's anchor pairs, exactly as the engine does directly."""
        left = myfaces_trace(min_range=32, name="old")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        result = Session(engine="views").diff(left, right)
        reference = get_engine("views").diff(left, right)
        assert result.anchor_pairs
        assert result_signature(result) == result_signature(reference)


# -- budgets and the cache ---------------------------------------------------


@pytest.fixture(scope="module")
def gapped_pair():
    """A near-identical pair with several two-sided (modify) gaps."""
    base = list(range(2000))
    edits = [(100, 9001), (101, 9002), (700, 9003), (1400, 9004),
             (1401, 9005), (1900, 9006)]
    return (simple_trace(base, name="l"),
            simple_trace(mutate(base, edits), name="r"))


class TestSegmentExecution:
    def test_gap_diffs_identical_to_inner(self, gapped_pair):
        """Each edited stretch is one modify sequence, and the trimmed
        ``optimized`` engine finds the exact Hirschberg LCS."""
        left, right = gapped_pair
        result = get_engine("optimized").diff(left, right)
        reference = get_engine("hirschberg").diff(left, right)
        assert result_identity(result) == result_identity(reference)
        assert [(s.kind, len(s.left_entries)) for s in result.sequences] \
            == [("modify", 2), ("modify", 1), ("modify", 2), ("modify", 1)]

    def test_budget_calls_stay_serial_and_budgeted(self, gapped_pair):
        left, right = gapped_pair
        budget = MemoryBudget(max_cells=4_000_000)
        result = get_engine("optimized").diff(left, right, budget=budget)
        assert budget.peak_cells > 0  # the DP table was really requested
        assert result.peak_cells == budget.peak_cells


class TestCacheAccounting:
    def test_computed_diff_is_not_a_cache_hit(self, tmp_path):
        """A whole-result miss is computed: it leaves the cache's hit
        count alone and its catalog row reads ``cached=False``, even
        when the new pair shares most of its content with a diff the
        cache already holds."""
        base = list(range(3000))
        edits = [(600, 9001), (1200, 9002), (1800, 9003), (2400, 9004)]
        left = simple_trace(base, name="l")
        right = simple_trace(mutate(base, edits), name="r")
        # Three extra entries up front shift every later entry id.
        shifted = simple_trace([-1, -2, -3] + mutate(base, edits),
                               name="shifted")
        session = Session(engine="optimized",
                          cache=tmp_path / "cache",
                          store=tmp_path / "store")
        session.diff(left, right)
        hits = session.cache.hits
        result = session.diff(left, shifted)
        assert session.cache.hits == hits
        rows = session.store.index.diff_stats()
        assert len(rows) == 2
        assert not any(row.cached for row in rows)
        reference = lcs_diff(left, shifted, "optimized")
        assert result_identity(result) == result_identity(reference)


# -- degenerate pairs --------------------------------------------------------


class TestMergeSegmentResults:
    def test_all_common_merge_matches_everything(self):
        left = simple_trace([1, 2, 3], name="l")
        right = simple_trace([1, 2, 3], name="r")
        pairs = [(a.eid, b.eid) for a, b in zip(left.entries, right.entries)]
        for engine in available_engines():
            result = get_engine(engine).diff(left, right)
            assert result.num_diffs() == 0, engine
            assert sorted(result.match_pairs) == pairs, engine
            assert result.sequences == [], engine


class TestDegenerateSegmentation:
    """Every registered engine on a pair with no differences and on
    one with a single modified entry."""

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


# -- the workload scenario pairs ---------------------------------------------


def _scenario_pairs():
    """One near-identical suspected pair per workload, captured once.

    minidb (Derby) interleaves its lock-daemon thread, so its pairs
    carry genuinely ambiguous repeated-key alignments; minixslt and
    minijs are single-threaded.
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


#: Slice per engine: sizes at which the quadratic engines reach their
#: exact DP core and stay quick.
ENGINE_SLICES = {"views": 4000, "optimized": 1500, "dp": 700,
                 "hirschberg": 700}


class TestScenarioIdentityMatrix:
    """Each plain engine x interned on/off x the workload scenario
    pairs."""

    @pytest.mark.parametrize("interned", [True, False])
    @pytest.mark.parametrize("engine", list(ENGINE_SLICES))
    @pytest.mark.parametrize("workload", ["minixslt", "minijs"])
    def test_bit_identity(self, scenario_pairs, workload, engine, interned):
        """The result on one key path equals the other path's, compares
        included; an LCS engine's equals the exact Hirschberg LCS."""
        size = ENGINE_SLICES[engine]
        left, right = scenario_pairs[workload]
        left, right = left[:size], right[:size]
        config = ViewDiffConfig(interned=interned)
        other = ViewDiffConfig(interned=not interned)
        result = get_engine(engine).diff(left, right, config=config)
        assert result_signature(result) == result_signature(
            get_engine(engine).diff(left, right, config=other)), \
            (workload, engine, interned)
        if engine != "views":
            exact = get_engine("hirschberg").diff(left, right,
                                                   config=other)
            assert result_identity(result) == result_identity(exact), \
                (workload, engine, interned)

    @pytest.mark.parametrize("engine", list(ENGINE_SLICES))
    def test_minidb_anchored_never_worse(self, scenario_pairs, engine):
        """Derby's interleaved lock-daemon entries make some LCS ties
        genuinely ambiguous.  Every LCS engine still finds a longest
        common subsequence there — as many matched entries and as few
        differences as the exact Hirschberg LCS — and views, which is
        not an LCS, matches no more than one; both key paths agree."""
        size = ENGINE_SLICES[engine]
        left, right = scenario_pairs["minidb"]
        left, right = left[:size], right[:size]
        result = get_engine(engine).diff(left, right)
        tupled = get_engine(engine).diff(
            left, right, config=ViewDiffConfig(interned=False))
        assert result_signature(result) == result_signature(tupled)
        exact = get_engine("hirschberg").diff(left, right)
        if engine == "views":
            assert len(result.match_pairs) <= len(exact.match_pairs)
        else:
            assert len(result.match_pairs) == len(exact.match_pairs)
            assert result.num_diffs() == exact.num_diffs()
