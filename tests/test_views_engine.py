"""The columnar views engine: pinned case-study results, the per-trace
view index, the view-id correlation maps, the bit-row window LCS, and
views diffs over traces whose eids are not their positions.

The pinned digests and compare totals below were taken from the
entry-walking engine this one replaced; any change to a views result
or to the paper's compare metric shows up here first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.correlation import ViewCorrelator
from repro.core.diffs import result_signature
from repro.core.kernels import scalar
from repro.core.lcs import MemoryBudget, OpCounter, lcs_dp
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig, view_diff
from repro.core.views import KEY_MAPPINGS, ViewType
from repro.core.web import TypeIndex, ViewWeb, view_index
from repro.workloads.harness import SCENARIOS, capture_scenario_trace


def signature_digest(result) -> str:
    text = json.dumps(result_signature(result), sort_keys=True,
                      default=list)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (case study, diff) -> (result_signature digest, views compares).
PINNED = {
    ("Daikon", "suspected"): (
        "3bb8b5c643f989969f92eefd38eb11579e49d2ae82ae4c88af5f181a99d5224d",
        114756),
    ("Daikon", "expected"): (
        "13422f751bc055929efed59f2a6cee4b3dacb06b872a400f66ef86549994e8d3",
        87894),
    ("Daikon", "regression"): (
        "21a118214bdd1cc2d0cb7b2a42e5d147a0653c1a5209982ac9af5f9f5869fc79",
        640347),
    ("Xalan-1725", "suspected"): (
        "ca0c0487fb64adbcc7dc75578cb93fd54aad02061c4d39d6f9e388bd263dc922",
        57679),
    ("Xalan-1725", "expected"): (
        "dcb8e0eb87654b09669ce3e6490ce106b6ba02b0207f58043cbc8f064e6730ca",
        5855),
    ("Xalan-1725", "regression"): (
        "9d68f5953720d40804ab5fd9808c1fe38cec938d2201cc76620666784e7ab43a",
        429220),
    ("Xalan-1802", "suspected"): (
        "f04bb9635130a414ef9039312390b5b0d52611d5649f9d95f2b96c42f2e2576f",
        52071),
    ("Xalan-1802", "expected"): (
        "009506ff945b5920825ca4fa3515f4f1e27980dbfae4b9a4a6bf8605ec1d631d",
        50877),
    ("Xalan-1802", "regression"): (
        "7170b5db049941f9b787c912dd5667f0ffa8488b2044f7728b6769c004480b26",
        543685),
}


@pytest.fixture(scope="module")
def case_traces():
    """The four captured traces of each deterministic case study."""
    roles = (("old/regressing", "run_old", "regressing_input"),
             ("new/regressing", "run_new", "regressing_input"),
             ("old/correct", "run_old", "correct_input"),
             ("new/correct", "run_new", "correct_input"))
    return {name: tuple(
        capture_scenario_trace(SCENARIOS[name],
                               getattr(SCENARIOS[name], runner),
                               getattr(SCENARIOS[name], payload),
                               f"{name}/{role}")
        for role, runner, payload in roles)
        for name in ("Daikon", "Xalan-1725", "Xalan-1802")}


def diff_pair(traces, which: str):
    old_bad, new_bad, old_ok, new_ok = traces
    return {"suspected": (old_bad, new_bad),
            "expected": (old_ok, new_ok),
            "regression": (new_ok, new_bad)}[which]


class TestPinnedCaseStudies:
    @pytest.mark.parametrize("case,which", sorted(PINNED))
    def test_signature_and_compares(self, case_traces, case, which):
        left, right = diff_pair(case_traces[case], which)
        result = view_diff(left, right)
        digest, compares = PINNED[(case, which)]
        assert result.counter.total == compares
        assert signature_digest(result) == digest


class TestSkippedRegion:
    def test_no_skip_lcs_without_scan_limit(self, case_traces, monkeypatch):
        """Without ``scan_limit`` the region a NOMATCH step skips holds no
        equal pair, so its LCS is never built; a limit no scan reaches
        runs the same scan with the LCS, and credits the same compares
        for the same result."""
        callers = []

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return lcs_dp(*args, **kwargs)

        monkeypatch.setattr(sys.modules["repro.core.view_diff"], "lcs_dp",
                            counted)
        unreached = ViewDiffConfig(scan_limit=sys.maxsize)
        skip_lcs_runs = 0
        for case, which in sorted(PINNED):
            left, right = diff_pair(case_traces[case], which)
            callers.clear()
            default = view_diff(left, right)
            assert "_align_skipped" not in callers
            callers.clear()
            limited = view_diff(left, right, unreached)
            skip_lcs_runs += callers.count("_align_skipped")
            assert limited.counter.total == default.counter.total
            assert signature_digest(limited) == signature_digest(default)
        assert skip_lcs_runs > 0


class TestViewIndex:
    @pytest.mark.parametrize("vtype", list(ViewType))
    def test_position_column_agrees_with_views(self, case_traces, vtype):
        trace = case_traces["Xalan-1725"][0]
        web = ViewWeb(trace)
        columns = web.columns(vtype)
        key_of = KEY_MAPPINGS[vtype]
        for pos, entry in enumerate(trace.entries):
            key = key_of(entry)
            if key is None:
                assert columns.view_of[pos] == -1
                assert columns.position[pos] == -1
                continue
            view = web.typed_view(vtype, key)
            assert columns.position[pos] == view.position_of(entry.eid)
            assert columns.keys[columns.view_of[pos]] == key
            assert view.indices[columns.position[pos]] == pos

    def test_index_is_cached_on_the_trace(self, case_traces):
        trace = case_traces["Xalan-1725"][1]
        first = ViewWeb(trace)
        second = ViewWeb(trace)
        assert first.index is second.index
        assert first.columns(ViewType.METHOD) is \
            second.columns(ViewType.METHOD)
        assert first.threads is second.threads

    def test_index_holds_no_reference_to_its_trace(self, case_traces):
        """A trace -> index -> trace cycle would keep traces alive until
        a full collection; the index must add no reference."""
        trace = Trace(case_traces["Xalan-1725"][0].entries)
        before = sys.getrefcount(trace)
        web = ViewWeb(trace)
        web.counts()
        assert web.objects and web.threads
        del web
        assert trace._view_index is not None
        assert sys.getrefcount(trace) == before

    @pytest.mark.parametrize("vtype", list(ViewType))
    def test_view_maps_agree_with_correlate_keys(self, case_traces, vtype):
        """``correlate_keys`` depends on two entries only through their
        view keys of ``vtype``, so one representative entry per view
        covers every entry pair; a random sample of real pairs checks
        that premise too."""
        left, right = diff_pair(case_traces["Xalan-1725"], "suspected")
        web_l, web_r = ViewWeb(left), ViewWeb(right)
        correlator = ViewCorrelator(web_l, web_r)
        partner = correlator.view_map(vtype)
        cols_l, cols_r = web_l.columns(vtype), web_r.columns(vtype)

        def agrees(entry_l, entry_r) -> bool:
            vl = cols_l.view_of[entry_l.eid]
            vr = cols_r.view_of[entry_r.eid]
            keys = correlator.correlate_keys(entry_l, entry_r, vtype)
            mapped = vl >= 0 and vr >= 0 and partner[vl] == vr
            # A correlated key pair naming no view on one side cannot
            # be explored either; the engine reads it as uncorrelated.
            return mapped == (keys is not None and vl >= 0 and vr >= 0)

        reps_l = [left.entries[view[0]] for view in cols_l.members]
        reps_r = [right.entries[view[0]] for view in cols_r.members]
        for entry_l in reps_l:
            for entry_r in reps_r:
                assert agrees(entry_l, entry_r)
        rng = random.Random(14)
        for _ in range(5000):
            assert agrees(rng.choice(left.entries),
                          rng.choice(right.entries))

    def test_run_scenario_builds_each_type_once_per_trace(self,
                                                          monkeypatch):
        """Three diffs over four traces: the two traces that take part
        in two diffs reuse their index instead of rebuilding it."""
        builds = []
        original = TypeIndex.__init__

        def counting_init(self, key_column):
            builds.append(1)
            original(self, key_column)

        monkeypatch.setattr(TypeIndex, "__init__", counting_init)
        spec = SCENARIOS["Xalan-1725"]
        session = Session().with_filter(
            include_modules=spec.filter_modules).with_mode(spec.mode)
        result = session.run_scenario(spec.run_old, spec.run_new,
                                      spec.regressing_input,
                                      spec.correct_input)
        assert len(result.diffs()) == 3
        traces = list(result.traces.values())
        assert len(traces) == 4
        built = [view_index(trace).built_types() for trace in traces]
        assert all(ViewType.THREAD in types for types in built)
        assert len(builds) == sum(len(types) for types in built)

    def test_concurrent_diffs_build_each_type_once(self, case_traces,
                                                   monkeypatch):
        """Threads racing to index the same traces build each view type
        once and agree with the serial result."""
        left, right = diff_pair(case_traces["Xalan-1725"], "regression")
        expected = result_signature(view_diff(Trace(left.entries),
                                              Trace(right.entries)))
        shared_l, shared_r = Trace(left.entries), Trace(right.entries)
        builds = []
        original = TypeIndex.__init__

        def counting_init(self, key_column):
            builds.append(1)
            original(self, key_column)

        monkeypatch.setattr(TypeIndex, "__init__", counting_init)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(view_diff, shared_l, shared_r)
                           for _ in range(6)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(result_signature(r) == expected for r in results)
        assert len(builds) == sum(len(view_index(t).built_types())
                                  for t in (shared_l, shared_r))


def scalar_traceback(a: list, b: list) -> list[tuple[int, int]]:
    """The textbook traceback over the reference table."""
    table = scalar.dp_table(a, b)
    pairs = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


class TestBitRowLcs:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=30),
           st.lists(st.integers(0, 3), max_size=30))
    def test_pairs_equal_scalar_traceback(self, a, b):
        counter = OpCounter()
        assert lcs_dp(a, b, counter=counter).pairs == \
            scalar_traceback(a, b)
        assert counter.total == (len(a) * len(b) if a and b else 0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from("ab"), min_size=50, max_size=90),
           st.lists(st.sampled_from("abc"), min_size=50, max_size=90))
    def test_above_the_old_numpy_cutoff(self, a, b):
        assert len(a) * len(b) > 2048
        assert lcs_dp(a, b).pairs == scalar_traceback(a, b)

    def test_empty_sides(self):
        budget = MemoryBudget()
        assert lcs_dp([], [1, 2], budget=budget).pairs == []
        assert budget.peak_cells == 3
        assert lcs_dp([1], []).pairs == []
        assert lcs_dp([], []).pairs == []

    def test_tuple_keys(self):
        a = [("get", 1), ("set", 2), ("get", 1), ("call", "f")]
        b = [("set", 2), ("get", 1), ("call", "f"), ("get", 1)]
        assert lcs_dp(a, b).pairs == scalar_traceback(a, b)


def assert_peeled_like_the_table(a: list, b: list) -> None:
    """``lcs_dp`` (which peels the common suffix) against the scalar
    traceback over the whole table, with the whole table's compare
    credit and budget request."""
    counter, budget = OpCounter(), MemoryBudget()
    assert lcs_dp(a, b, counter=counter, budget=budget).pairs == \
        scalar_traceback(a, b)
    assert counter.total == len(a) * len(b)
    assert budget.peak_cells == (len(a) + 1) * (len(b) + 1)


class TestSuffixPeel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_equal_sides(self, a):
        assert_peeled_like_the_table(a, list(a))
        assert lcs_dp(a, list(a)).pairs == [(k, k) for k in range(len(a))]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=20),
           st.lists(st.integers(0, 3), max_size=20),
           st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_shared_suffix(self, a, b, suffix):
        assert_peeled_like_the_table(a + suffix, b + suffix)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(0, 3), max_size=10))
    def test_repeated_head(self, x, y, tail):
        """``[x, y]`` against ``[x, x, y]``: the match-first traceback
        pairs the left ``x`` with the *last* right ``x`` it can reach,
        which peeling a common prefix would get wrong."""
        assert_peeled_like_the_table([x, y] + tail, [x, x, y] + tail)
        if x != y:
            assert lcs_dp([x, y], [x, x, y]).pairs == [(0, 1), (1, 2)]


def renumbered(trace: Trace) -> Trace:
    """A copy of ``trace`` whose eids are its positions."""
    return Trace([dataclasses.replace(entry, eid=pos)
                  for pos, entry in enumerate(trace.entries)],
                 name=trace.name, key_table=trace.key_table,
                 key_ids=trace.key_ids)


class TestSlicedTraces:
    """Slices and projections keep their original eids; the engine works
    on positions and must hand back eids."""

    @pytest.fixture(scope="class")
    def sliced(self, case_traces):
        left, right = diff_pair(case_traces["Xalan-1725"], "suspected")
        return left[1000:1600], right[1000:1600]

    def test_result_eids_lie_in_the_slice(self, sliced):
        left, right = sliced
        result = view_diff(left, right)
        eids_l = {entry.eid for entry in left.entries}
        eids_r = {entry.eid for entry in right.entries}
        assert result.similar_left <= eids_l
        assert result.similar_right <= eids_r
        for pairs in (result.match_pairs, result.anchor_pairs):
            assert all(a in eids_l and b in eids_r for a, b in pairs)
        for seq in result.sequences:
            assert all(e.eid in eids_l for e in seq.left_entries)
            assert all(e.eid in eids_r for e in seq.right_entries)
        assert result.num_diffs() == len(result.left_diff_eids()) + \
            len(result.right_diff_eids())

    def test_slice_equals_renumbered_diff_shifted_back(self, sliced):
        left, right = sliced
        result = view_diff(left, right)
        dense = view_diff(renumbered(left), renumbered(right))
        shift = 1000
        assert result.similar_left == {e + shift
                                       for e in dense.similar_left}
        assert result.similar_right == {e + shift
                                        for e in dense.similar_right}
        assert result.match_pairs == [(a + shift, b + shift)
                                      for a, b in dense.match_pairs]
        assert result.anchor_pairs == [(a + shift, b + shift)
                                       for a, b in dense.anchor_pairs]
        assert [(s.kind, [e.eid for e in s.left_entries],
                 [e.eid for e in s.right_entries])
                for s in result.sequences] == \
            [(s.kind, [e.eid + shift for e in s.left_entries],
              [e.eid + shift for e in s.right_entries])
             for s in dense.sequences]
        assert result.counter.total == dense.counter.total
