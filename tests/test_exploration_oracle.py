"""Exploration oracle: the views engine's NOMATCH step against the plain
one it replaced.

``OracleDiffer`` carries verbatim copies of the earlier
``_linked_similar_entries`` (every candidate bucket of every
(tau_5, tau_6, view type) triple built and looked up),
``_explore_view_pair`` (one window LCS per exploration, marks added one
pair at a time) and ``_next_correspondence`` (the pending-anchor list
re-filtered at every step), and merges every match as a run of its
own, as the merge did before it cut sequences between runs.  The
engine skips candidates it knows repeat a bucket, marks in bulk, keeps
pending anchors in a deduplicated heap and merges the scan's runs;
none of that may change a result or a compare count.  So every case
below asserts equal ``result_signature``s, compares included:

* the twelve Table 1 case-study pairs (Derby-1633 over the database
  prefix the end-to-end benchmark uses), default configuration;
* the Fig. 13 MyFaces pair and one Table 1 pair over a grid of
  ``radius``, ``max_secondary_pairs``, ``relaxed``, ``window`` and
  ``anchored``;
* generated multi-thread pairs (a base program and an edited copy),
  one grid point per example.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffs import result_signature
from repro.core.lcs import OpCounter, lcs_dp
from repro.core.traces import TraceBuilder
from repro.core.values import prim
from repro.core.view_diff import (PairMarks, ViewDiffConfig, ViewDiffPlan,
                                  _Secondary, _ThreadPairDiffer, view_diff)
from repro.core.views import ViewType
from repro.workloads.harness import SCENARIOS, capture_scenario_trace

from helpers import myfaces_trace


class OracleDiffer(_ThreadPairDiffer):
    """The lock-step scan of the engine with the earlier exploration
    step and next-correspondence search."""

    def __init__(self, plan: ViewDiffPlan, *args):
        super().__init__(plan, *args)
        self._pending_anchors: list[tuple[int, int]] = []

    # -- LinkedSimilarEntries (SIMILAR-FROM-LINKED-VIEWS) ----------------------

    def _linked_similar_entries(self, i: int, j: int) -> None:
        """Explore secondary views linked near positions (i, j) and mark
        windowed-LCS entries as similar.

        Entries tau_5 / tau_6 within ``radius`` of the two heads are
        visited in order; a view pair of some secondary type is explored
        when X_chi correlates the two entries' views (``partner[left
        view] == right view``) or, under the relaxed rule, when both
        entries sit at the same distance from the heads.  Each
        (view pair, window bucket) is explored at most once per thread
        pair; a repeat is not counted against ``max_secondary_pairs``.
        """
        config = self.config
        secondary = self.plan.secondary()
        lidx, ridx = self.lidx, self.ridx
        radius = config.radius
        cap = config.max_secondary_pairs
        relaxed = config.relaxed
        width = self._bucket
        explored = self._explored
        explored_now = 0
        lo_l = max(0, i - radius)
        hi_l = min(len(lidx), i + radius + 1)
        lo_r = max(0, j - radius)
        hi_r = min(len(ridx), j + radius + 1)
        # tau_6's (view id, view position) per secondary type, for every
        # right candidate, resolved once rather than once per tau_5.
        right = []
        for pr in range(lo_r, hi_r):
            p6 = ridx[pr]
            right.append((pr - j, [(sec.view_of_r[p6], sec.position_r[p6])
                                   for sec in secondary]))
        for pl in range(lo_l, hi_l):
            p5 = lidx[pl]
            # tau_5's views, one per secondary type it belongs to.
            views_l = []
            for k, sec in enumerate(secondary):
                vl = sec.view_of_l[p5]
                if vl >= 0:
                    views_l.append((k, sec, vl, sec.partner[vl],
                                    sec.position_l[p5]))
            if not views_l:
                continue
            for distance, views_r in right:
                if explored_now >= cap:
                    return
                same_distance = relaxed and pl - i == distance
                for k, sec, vl, partner, pos_l in views_l:
                    vr, pos_r = views_r[k]
                    if vr < 0 or (partner != vr and not same_distance):
                        continue
                    bucket = (sec.tag, vl, vr, pos_l // width,
                              pos_r // width)
                    if bucket in explored:
                        continue
                    explored.add(bucket)
                    self._explore_view_pair(sec, vl, vr, pos_l, pos_r)
                    explored_now += 1

    def _explore_view_pair(self, sec: _Secondary, vl: int, vr: int,
                           pos_l: int, pos_r: int) -> None:
        """Windowed LCS over one correlated secondary-view pair, centred
        on view positions ``pos_l`` / ``pos_r``."""
        plan = self.plan
        index_l, keys_l = plan.window(sec.tag, vl, sec.members_l[vl],
                                      pos_l, plan.keys_l,
                                      plan.window_keys_l)
        index_r, keys_r = plan.window(sec.tag, vr, sec.members_r[vr],
                                      pos_r, plan.keys_r,
                                      plan.window_keys_r)
        lcs = lcs_dp(keys_l, keys_r, counter=self.counter)
        thread_of_l, thread_of_r = self._thread_of_l, self._thread_of_r
        lvid, rvid = self.lvid, self.rvid
        for wi, wj in lcs.pairs:
            left = index_l[wi]
            right = index_r[wj]
            self.similar_left.add(left)
            self.similar_right.add(right)
            self.anchor_pairs.append((left, right))
            # If both anchored entries live in the main thread views,
            # they become correspondence candidates.
            if thread_of_l[left] == lvid and thread_of_r[right] == rvid:
                self._pending_anchors.append(
                    (self._thread_pos_l[left], self._thread_pos_r[right]))

    # -- next point of correspondence -----------------------------------------

    def _next_correspondence(self, i: int, j: int) -> tuple[int, int]:
        """Find the nearest (i', j') >= (i, j) with equal heads, taking the
        closer of the scan-discovered pair and any anchor pair; entries in
        between remain outside sigma (the skipped differences of
        STEP-VIEW-NOMATCH)."""
        lkeys, rkeys = self.lkeys, self.rkeys
        n, m = len(lkeys), len(rkeys)
        best: tuple[int, int] | None = None
        best_cost: int | None = None
        # Anchor candidates strictly ahead of (i, j).
        kept_anchors = []
        for apl, apr in self._pending_anchors:
            if apl >= i and apr >= j:
                kept_anchors.append((apl, apr))
                cost = (apl - i) + (apr - j)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (apl, apr), cost
        self._pending_anchors = kept_anchors
        # Forward scan over left positions, bisecting into right positions.
        limit = n
        if self.config.scan_limit is not None:
            limit = min(n, i + self.config.scan_limit)
        for ip in range(i, limit):
            left_cost = ip - i
            if best_cost is not None and left_cost >= best_cost:
                break
            positions = self.rpos.get(lkeys[ip])
            if not positions:
                continue
            self.counter.bump()
            at = bisect_left(positions, j)
            if at == len(positions):
                continue
            jp = positions[at]
            cost = left_cost + (jp - j)
            if best_cost is None or cost < best_cost:
                best, best_cost = (ip, jp), cost
        if best is None:
            return (n, m)
        return best


def oracle_view_diff(left, right, config: ViewDiffConfig):
    """``view_diff`` with every thread pair evaluated by the oracle, and
    every match merged as a run of its own: the pair-by-pair boundaries
    the merge walked before it walked runs."""
    plan = ViewDiffPlan(left, right, config=config)
    plan._ensure_keys()
    at_l = plan.web_l.columns(ViewType.THREAD).position
    at_r = plan.web_r.columns(ViewType.THREAD).position
    marks = []
    for ltid, rtid in plan.pairs:
        mark = PairMarks(ltid=ltid, rtid=rtid)
        counter = OpCounter()
        mark.match_pairs = OracleDiffer(
            plan, ltid, rtid, counter, mark.similar_left,
            mark.similar_right, mark.anchor_pairs).run()
        mark.runs = [(at_l[left], at_r[right], 1)
                     for left, right in mark.match_pairs]
        mark.compares = counter.total
        marks.append(mark)
    return plan.merge(marks)


def assert_agrees(left, right, config: ViewDiffConfig) -> None:
    expected = result_signature(oracle_view_diff(left, right, config))
    assert result_signature(view_diff(left, right, config)) == expected


#: radius x max_secondary_pairs x relaxed x window x anchored.
GRID = [ViewDiffConfig(radius=radius, max_secondary_pairs=cap,
                       relaxed=relaxed, window=window, anchored=anchored)
        for radius, cap, relaxed, window, anchored in itertools.product(
            (1, 4, 8), (1, 4, 16), (True, False), (4, 12), (True, False))]



def grid_id(config: ViewDiffConfig) -> str:
    return (f"r{config.radius}-cap{config.max_secondary_pairs}"
            f"-w{config.window}{'-relaxed' * config.relaxed}"
            f"{'-anchored' * config.anchored}")


CASES = ("Daikon", "Xalan-1725", "Xalan-1802", "Derby-1633")
ROLES = (("run_old", "regressing_input"), ("run_new", "regressing_input"),
         ("run_old", "correct_input"), ("run_new", "correct_input"))
#: Derby-1633's database prefix: the first orders and customers of the
#: bundled population (150 / 40), as in the end-to-end benchmark.
DERBY_ORDERS, DERBY_CUSTOMERS = 24, 8


def case_payload(name: str, payload: str):
    spec = SCENARIOS[name]
    value = getattr(spec, payload)
    if name != "Derby-1633":
        return value
    from repro.workloads.minidb.scenario import (ORDER_ROWS,
                                                 SETUP_STATEMENTS)
    customers = 2 + ORDER_ROWS
    setup = (SETUP_STATEMENTS[:2 + DERBY_ORDERS]
             + SETUP_STATEMENTS[customers:customers + DERBY_CUSTOMERS])
    return setup, value[1]


@pytest.fixture(scope="module")
def case_traces():
    """Each case study's (old/regressing, new/regressing, old/correct,
    new/correct) captures."""
    traces = {}
    for name in CASES:
        spec = SCENARIOS[name]
        traces[name] = tuple(
            capture_scenario_trace(spec, getattr(spec, runner),
                                   case_payload(name, payload),
                                   f"{name}/{runner}/{payload}")
            for runner, payload in ROLES)
    return traces


def case_pairs(traces):
    old_bad, new_bad, old_ok, new_ok = traces
    return {"suspected": (old_bad, new_bad), "expected": (old_ok, new_ok),
            "regression": (new_ok, new_bad)}


class TestCaseStudies:
    @pytest.mark.parametrize("case", CASES)
    def test_table1_pairs(self, case_traces, case):
        for left, right in case_pairs(case_traces[case]).values():
            assert_agrees(left, right, ViewDiffConfig())

    def test_derby_pairs_run_multithreaded(self, case_traces):
        assert all(len(trace.thread_ids()) > 1
                   for trace in case_traces["Derby-1633"])

    @pytest.mark.parametrize("config", GRID, ids=grid_id)
    def test_grid_on_a_case_pair(self, case_traces, config):
        left, right = case_pairs(case_traces["Xalan-1725"])["expected"]
        assert_agrees(left, right, config)

    @pytest.mark.parametrize("config", GRID, ids=grid_id)
    def test_grid_on_myfaces(self, config):
        assert_agrees(myfaces_trace(name="old"),
                      myfaces_trace(new_version=True, name="new"), config)


# -- generated multi-thread pairs ---------------------------------------------

#: One event of a generated program: (thread, kind, object, name, value).
events = st.tuples(st.integers(0, 2), st.sampled_from("cgs"),
                   st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
#: Edits turning the base program into the other side: (kind, at, event).
edits = st.tuples(st.sampled_from("dir"), st.integers(0, 10**6), events)


def edited(program: list, changes: list) -> list:
    out = list(program)
    for kind, at, event in changes:
        if kind == "i" or not out:
            out.insert(at % (len(out) + 1), event)
        elif kind == "d":
            del out[at % len(out)]
        else:
            out[at % len(out)] = event
    return out


def build_program(program: list, name: str):
    """Three threads over four objects: calls (with a field write of
    the value inside), reads and writes."""
    builder = TraceBuilder(name=name)
    main = builder.main_tid
    objects = [builder.record_init(main, f"C{k % 2}", (prim(k),))
               for k in range(4)]
    tids = [main, builder.record_fork(main), builder.record_fork(main)]
    for thread, kind, obj_at, name_at, value in program:
        tid, obj = tids[thread], objects[obj_at]
        if kind == "c":
            builder.record_call(tid, obj, f"{obj.class_name}.m{name_at}",
                                (prim(value),))
            builder.record_set(tid, obj, f"f{name_at}", prim(value))
            builder.record_return(tid, prim(value))
        elif kind == "g":
            builder.record_get(tid, obj, f"f{name_at}", prim(value))
        else:
            builder.record_set(tid, obj, f"f{name_at}", prim(value))
    for tid in reversed(tids):
        builder.record_end(tid)
    return builder.build()


class TestGeneratedPairs:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(events, min_size=1, max_size=60),
           st.lists(edits, max_size=8), st.sampled_from(GRID),
           st.sampled_from((None, 1, 3)), st.booleans())
    def test_generated_pairs(self, program, changes, config, scan_limit,
                             explore):
        """``scan_limit`` and ``view_types`` too: only a limited
        next-correspondence scan leaves equal entries in a skipped
        region for the skip LCS to match, which exploration anchors
        mostly pre-empt; those matches cut sequences as well."""
        if not explore:
            config = dataclasses.replace(config, view_types=())
        assert_agrees(build_program(program, "L"),
                      build_program(edited(program, changes), "R"),
                      dataclasses.replace(config, scan_limit=scan_limit))
