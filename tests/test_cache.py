"""The ``repro.cache`` subsystem: key discipline, the two tiers, and —
most importantly — that a cache hit is observably identical to the cold
computation across every registered engine and interning mode."""

import json
import sys
import threading

import pytest

from repro.analysis import serialize
from repro.api import (Session, available_engines, get_engine, is_cacheable,
                       register_engine, unregister_engine)
from repro.api.store import TraceStore
from repro.cache import (DiffCache, cache_key, cached_engine_diff,
                         canonical_config)
from repro.core.diffs import (result_from_wire, result_signature,
                              result_to_wire)
from repro.core.lcs import OpCounter
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig

from helpers import myfaces_trace, simple_trace, two_thread_trace


@pytest.fixture()
def pair():
    return (myfaces_trace(min_range=32, name="old"),
            myfaces_trace(min_range=1, new_version=True, name="new"))


def cold(engine_name, left, right, config=None):
    return get_engine(engine_name).diff(left, right, config=config)


class TestCanonicalConfig:
    def test_none_means_default(self):
        assert canonical_config(None) == canonical_config(ViewDiffConfig())

    def test_every_knob_participates(self):
        base = canonical_config(None)
        assert canonical_config(ViewDiffConfig(window=9)) != base
        assert canonical_config(ViewDiffConfig(interned=False)) != base

    def test_is_json(self):
        assert isinstance(json.loads(canonical_config(None)), dict)

    def test_default_text_pinned(self):
        # Existing DiffCache directories are keyed by this exact text:
        # a changed byte turns every stored entry into a miss.
        assert canonical_config(None) == DEFAULT_CONFIG_TEXT

    def test_non_default_text_pinned(self):
        config = ViewDiffConfig(window=9, relaxed=False)
        assert canonical_config(config) == DEFAULT_CONFIG_TEXT.replace(
            '"relaxed":true', '"relaxed":false').replace(
            '"window":12', '"window":9')


#: ``canonical_config(None)``, byte for byte.
DEFAULT_CONFIG_TEXT = (
    '{"interned":true,'
    '"max_secondary_pairs":4,"radius":4,"relaxed":true,'
    '"scan_limit":null,"skip_lcs_cells":4096,'
    '"view_types":["METHOD","TARGET_OBJECT","ACTIVE_OBJECT"],'
    '"window":12}')


class TestCacheKey:
    def test_deterministic(self, pair):
        left, right = pair
        assert cache_key(left, right, "views", None) == \
            cache_key(left, right, "views", None)

    def test_key_pinned(self):
        left = simple_trace([1, 2, 3, 9, 4, 5, 6], name="old")
        right = simple_trace([1, 2, 3, 8, 8, 4, 5, 6], name="new")
        assert cache_key(left, right, "views", None) == \
            "40934f395972771e912e7c5a772315e6"

    def test_order_engine_and_config_matter(self, pair):
        left, right = pair
        base = cache_key(left, right, "views", None)
        assert cache_key(right, left, "views", None) != base
        assert cache_key(left, right, "dp", None) != base
        assert cache_key(left, right, "views",
                         ViewDiffConfig(window=3)) != base


class TestMemoryTier:
    def test_miss_then_hit_rehydrates_on_callers_traces(self, pair):
        left, right = pair
        cache = DiffCache()
        key = cache.key_for(left, right, "views", None)
        assert cache.get(key, left, right) is None
        result = cold("views", left, right)
        cache.put(key, result)
        hit = cache.get(key, left, right)
        assert hit is not None
        assert hit.left is left and hit.right is right
        assert result_signature(hit) == result_signature(result)
        # Sequences reference the caller's very entry objects.
        for seq in hit.sequences:
            for entry in seq.left_entries:
                assert entry is left.entries[entry.eid]

    def test_lru_eviction(self):
        cache = DiffCache(max_memory_entries=2)
        traces = [simple_trace([n, n + 1]) for n in range(4)]
        base = simple_trace([9])
        keys = []
        for trace in traces[:3]:
            key = cache.key_for(base, trace, "views", None)
            cache.put(key, cold("views", base, trace))
            keys.append(key)
        # Memory-only cache: the oldest entry is gone, newest two live.
        assert cache.get(keys[0], base, traces[0]) is None
        assert cache.get(keys[1], base, traces[1]) is not None
        assert cache.get(keys[2], base, traces[2]) is not None

    def test_stats_counters(self, pair):
        left, right = pair
        cache = DiffCache()
        key = cache.key_for(left, right, "views", None)
        cache.get(key, left, right)
        cache.put(key, cold("views", left, right))
        cache.get(key, left, right)
        stats = cache.stats()
        assert (stats.misses, stats.stores, stats.hits_memory) == (1, 1, 1)
        assert stats.hits == 1
        assert "hits" in stats.render()

    def test_repeat_get_on_the_same_traces_returns_the_held_result(
            self, pair):
        left, right = pair
        cache = DiffCache()
        key = cache.key_for(left, right, "views", None)
        result = cold("views", left, right)
        cache.put(key, result)
        hit = cache.get(key, left, right)
        assert hit is result  # put holds what it computed
        assert cache.get(key, left, right) is hit
        assert result_signature(hit) == result_signature(result)

    def test_shared_counter_is_not_held(self, pair):
        # A shared accumulator keeps running after the diff; the held
        # result carries this diff's own totals instead.
        left, right = pair
        cache = DiffCache()
        shared = OpCounter()
        result = cached_engine_diff(cache, get_engine("views"), left,
                                    right, counter=shared)
        totals = (shared.compares, shared.charged)
        shared.bump(1000)
        hit = cache.get(cache.key_for(left, right, "views", None),
                        left, right)
        assert hit.counter is not shared
        assert (hit.counter.compares, hit.counter.charged) == totals
        assert hit.sequences is result.sequences

    def test_fresh_store_handle_rehydrates_over_its_own_entries(
            self, pair, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(pair[0], key="l")
        store.save(pair[1], key="r")
        cache = DiffCache()
        held = Session(store=store, cache=cache).diff("l", "r")
        fresh = TraceStore(store.root)
        left, right = fresh.load("l"), fresh.load("r")
        assert left is not held.left
        hit = cache.get(cache.key_for(left, right, "views", None),
                        left, right)
        assert hit is not held
        assert hit.left is left and hit.right is right
        assert result_signature(hit) == result_signature(held)
        mine_left = {entry.eid: entry for entry in left}
        mine_right = {entry.eid: entry for entry in right}
        assert hit.sequences
        for seq in hit.sequences:
            for entry in seq.left_entries:
                assert entry is mine_left[entry.eid]
            for entry in seq.right_entries:
                assert entry is mine_right[entry.eid]
        # The rehydrated result is now the held one.
        assert Session(store=fresh, cache=cache).diff("l", "r") is hit

    def test_eviction_prune_and_clear_drop_held_results(self, pair,
                                                        tmp_path):
        left, right = pair
        third = simple_trace([1, 2, 3], name="third")
        cache = DiffCache(max_memory_entries=1)
        first = cached_engine_diff(cache, get_engine("views"), left, right)
        key = cache.key_for(left, right, "views", None)
        assert cache.memo(key, first) is not None
        cached_engine_diff(cache, get_engine("views"), left, third)
        assert cache.memo(key, first) is None
        assert cache.get(key, left, right) is None  # memory only

        for drop in (DiffCache.prune, DiffCache.clear):
            cache = DiffCache(tmp_path / drop.__name__)
            held = cached_engine_diff(cache, get_engine("views"), left,
                                      right)
            assert cache.get(key, left, right) is held
            drop(cache)
            assert cache.memo(key, held) is None
            assert cache.get(key, left, right) is not held

    def test_uncached_diff_holds_nothing(self, pair):
        left, right = pair
        session = Session(cache=True)
        uncached = session.diff(left, right, use_cache=False)
        assert session.cache.stats().memory_entries == 0
        assert session.diff(left, right) is not uncached

    def test_concurrent_gets_over_two_trace_handles(self, pair):
        # Two handles of one pair keep replacing each other's held
        # result; every hit must still be built over its caller's
        # traces, and no count may be lost.
        copies = tuple(serialize.loads_trace(serialize.dumps_trace_bytes(t))
                       for t in pair)
        cache = DiffCache()
        key = cache.key_for(*pair, "views", None)
        cache.put(key, cold("views", *pair))
        signature = result_signature(cache.get(key, *pair))
        rounds, failures = 200, []

        def worker(n: int) -> None:
            left, right = (pair, copies)[n % 2]
            for _ in range(rounds):
                hit = cache.get(key, left, right)
                if hit.left is not left or hit.right is not right:
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert cache.stats().hits_memory == 1 + 4 * rounds
        for trace_pair in (pair, copies):
            assert result_signature(cache.get(key, *trace_pair)) == \
                signature

    def test_tier_counts_are_unchanged(self, pair, tmp_path):
        left, right = pair
        first = DiffCache(tmp_path / "cache")
        key = first.key_for(left, right, "views", None)
        first.get(key, left, right)
        first.put(key, cold("views", left, right))
        first.get(key, left, right)
        first.get(key, left, right)
        stats = first.stats()
        assert (stats.misses, stats.hits_memory, stats.hits_disk) == \
            (1, 2, 0)

        second = DiffCache(tmp_path / "cache")
        second.get(key, left, right)  # disk, then promoted
        second.get(key, left, right)  # held
        copies = [serialize.loads_trace(serialize.dumps_trace_bytes(t))
                  for t in pair]
        second.get(key, *copies)  # other objects: rehydrated
        stats = second.stats()
        assert (stats.misses, stats.hits_memory, stats.hits_disk) == \
            (0, 2, 1)


class TestDiskTier:
    def test_hit_across_handles(self, pair, tmp_path):
        left, right = pair
        first = DiffCache(tmp_path / "cache")
        key = first.key_for(left, right, "views", None)
        result = cold("views", left, right)
        first.put(key, result)

        second = DiffCache(tmp_path / "cache")  # fresh memory tier
        hit = second.get(key, left, right)
        assert hit is not None
        assert result_signature(hit) == result_signature(result)
        assert second.stats().hits_disk == 1
        # Promoted to memory: the next hit is a memory hit.
        second.get(key, left, right)
        assert second.stats().hits_memory == 1

    def _one_entry(self, pair, tmp_path):
        left, right = pair
        cache = DiffCache(tmp_path / "cache")
        key = cache.key_for(left, right, "views", None)
        cache.put(key, cold("views", left, right))
        (entry_path,) = cache._disk_entries()
        return cache, key, entry_path

    def test_truncated_entry_is_a_miss(self, pair, tmp_path):
        cache, key, entry_path = self._one_entry(pair, tmp_path)
        text = entry_path.read_text()
        entry_path.write_text(text[:len(text) // 2])
        fresh = DiffCache(tmp_path / "cache")
        assert fresh.get(key, *pair) is None
        assert fresh.stats().misses == 1

    def test_version_skewed_entry_is_a_miss(self, pair, tmp_path):
        cache, key, entry_path = self._one_entry(pair, tmp_path)
        wire = json.loads(entry_path.read_text())
        wire["result"]["version"] = 999
        entry_path.write_text(json.dumps(wire))
        assert DiffCache(tmp_path / "cache").get(key, *pair) is None

    def test_entry_without_result_field_is_a_miss(self, pair, tmp_path):
        cache, key, entry_path = self._one_entry(pair, tmp_path)
        entry_path.write_text(json.dumps({"key": key}))  # hand-edited
        fresh = DiffCache(tmp_path / "cache")
        assert fresh.get(key, *pair) is None
        assert fresh.stats().misses == 1

    def test_entry_under_wrong_key_is_a_miss(self, pair, tmp_path):
        cache, key, entry_path = self._one_entry(pair, tmp_path)
        wire = json.loads(entry_path.read_text())
        wire["key"] = "somebody-else"
        entry_path.write_text(json.dumps(wire))
        assert DiffCache(tmp_path / "cache").get(key, *pair) is None

    def test_foreign_eids_are_a_miss_not_an_error(self, pair, tmp_path):
        # Rehydrating against traces that do not contain the stored
        # eids (as after a digest collision would) must read as a miss.
        cache, key, entry_path = self._one_entry(pair, tmp_path)
        tiny = simple_trace([1])
        assert DiffCache(tmp_path / "cache").get(key, tiny, tiny) is None

    @pytest.mark.parametrize("list_backed", [False, True])
    def test_similarity_eids_outside_the_traces_are_a_miss(
            self, tmp_path, list_backed):
        # Sequences name only real eids here; the similarity sets and
        # match pairs carry eids neither trace has.  Accepting them
        # would make num_diffs() negative.
        left, right = simple_trace([1, 2, 3]), simple_trace([1, 9, 3])
        if list_backed:  # eid columns that are lists, not ranges
            left, right = Trace(list(left)), Trace(list(right))
        engine = get_engine("views")
        cold_result = cached_engine_diff(DiffCache(tmp_path / "cache"),
                                         engine, left, right)
        assert cold_result.num_diffs() == 2
        (entry_path,) = DiffCache(tmp_path / "cache")._disk_entries()
        wire = json.loads(entry_path.read_text())
        wire["result"]["similar_left"] += [10**6, 10**6 + 1, 10**6 + 2]
        wire["result"]["match_pairs"].append([10**6, 10**6])
        with pytest.raises(ValueError, match="absent"):
            result_from_wire(wire["result"], left, right)
        entry_path.write_text(json.dumps(wire))

        fresh = DiffCache(tmp_path / "cache")
        again = cached_engine_diff(fresh, engine, left, right)
        assert fresh.stats().misses == 1 and fresh.stats().hits == 0
        assert again.num_diffs() == 2
        assert result_signature(again) == result_signature(cold_result)

    @pytest.mark.parametrize("field", ["similar_right", "anchor_pairs"])
    def test_every_eid_list_is_checked(self, pair, field):
        left, right = pair
        wire = result_to_wire(cold("views", left, right))
        wire[field].append([0, 10**6] if field == "anchor_pairs"
                           else 10**6)
        with pytest.raises(ValueError, match="absent"):
            result_from_wire(wire, left, right)

    def test_prune_keeps_newest(self, pair, tmp_path):
        left, right = pair
        cache = DiffCache(tmp_path / "cache")
        others = [simple_trace([n]) for n in range(3)]
        for trace in others:
            key = cache.key_for(left, trace, "views", None)
            cache.put(key, cold("views", left, trace))
        assert cache.stats().disk_entries == 3
        assert cache.prune(max_entries=1) == 2
        assert cache.stats().disk_entries == 1

    def test_prune_combining_age_and_keep_respects_keep(self, pair,
                                                        tmp_path):
        import os as _os
        import time as _time
        left, _ = pair
        cache = DiffCache(tmp_path / "cache")
        traces = [simple_trace([n]) for n in range(10)]
        for trace in traces:
            key = cache.key_for(left, trace, "views", None)
            cache.put(key, cold("views", left, trace))
        # Age six entries past the horizon.
        ancient = _time.time() - 7200
        for path in cache._disk_entries()[:6]:
            _os.utime(path, (ancient, ancient))
        # Only the aged six go: the four age-survivors are within the
        # --keep budget of five and must all stay.
        assert cache.prune(max_entries=5, max_age_seconds=3600) == 6
        assert cache.stats().disk_entries == 4

    def test_unwritable_disk_tier_degrades_to_memory(self, pair,
                                                     tmp_path):
        left, right = pair
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache wants a directory")
        cache = DiffCache(blocker / "cache")  # mkdir can never succeed
        key = cache.key_for(left, right, "views", None)
        cache.put(key, cold("views", left, right))  # must not raise
        assert cache.get(key, left, right) is not None  # memory tier
        assert cache.stats().disk_entries == 0

    def test_clear_empties_both_tiers(self, pair, tmp_path):
        cache, key, _ = self._one_entry(pair, tmp_path)
        assert cache.clear() == 1
        assert cache.stats().disk_entries == 0
        assert cache.get(key, *pair) is None


class _UncacheableEngine:
    name = "test-uncacheable"

    def diff(self, left, right, *, config=None, counter=None, budget=None,
             **kwargs):
        return get_engine("views").diff(left, right, config=config,
                                        counter=counter)


class TestCachedEngineDiff:
    def test_engines_advertise_cacheability(self):
        for name in available_engines():
            assert is_cacheable(get_engine(name)), name
        assert not is_cacheable(_UncacheableEngine())

    def test_uncacheable_engine_bypasses_cache(self, pair):
        left, right = pair
        cache = DiffCache()
        engine = _UncacheableEngine()
        register_engine(engine)
        try:
            cached_engine_diff(cache, engine, left, right)
            cached_engine_diff(cache, engine, left, right)
            stats = cache.stats()
            assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)
        finally:
            unregister_engine(engine.name)

    def test_hit_credits_the_callers_counter(self, pair):
        # The cache is a transparency layer for the paper's compare
        # metric: a warm run's counter reports the cold run's totals.
        left, right = pair
        cache = DiffCache()
        engine = get_engine("views")
        cold_counter = OpCounter()
        cold_result = cached_engine_diff(cache, engine, left, right,
                                         counter=cold_counter)
        warm_counter = OpCounter()
        warm_result = cached_engine_diff(cache, engine, left, right,
                                         counter=warm_counter)
        assert cold_counter.total > 0
        assert warm_counter.total == cold_counter.total
        assert warm_result.counter.total == cold_result.counter.total

    def test_shared_counter_stores_per_diff_deltas(self, pair):
        # One accumulator driven through several diffs (the harness
        # pattern): each cache entry must record only its own diff's
        # cost, so a warm replay credits exactly the cold totals.
        left, right = pair
        third = simple_trace([1, 2, 3], name="third")
        cache = DiffCache()
        engine = get_engine("views")
        shared = OpCounter()
        cached_engine_diff(cache, engine, left, right, counter=shared)
        cached_engine_diff(cache, engine, left, third, counter=shared)
        cold_total = shared.total
        warm = OpCounter()
        cached_engine_diff(cache, engine, left, right, counter=warm)
        cached_engine_diff(cache, engine, left, third, counter=warm)
        assert cache.stats().hits == 2
        assert warm.total == cold_total  # not inflated by snapshots

    def test_budget_constrained_calls_bypass_the_cache(self, pair):
        # A budget changes observable behaviour (LcsMemoryError, peak
        # cells): a generous cached run must never mask it.
        from repro.core.lcs import LcsMemoryError, MemoryBudget
        left, right = pair
        cache = DiffCache()
        engine = get_engine("dp")
        generous = MemoryBudget(max_cells=10**9)
        cached_engine_diff(cache, engine, left, right, budget=generous)
        stats = cache.stats()
        assert (stats.stores, stats.misses) == (0, 0)  # never consulted
        # Unbudgeted prime, then a tight-budget call: still raises.
        cached_engine_diff(cache, engine, left, right)
        with pytest.raises(LcsMemoryError):
            cached_engine_diff(cache, engine, left, right,
                               budget=MemoryBudget(max_cells=10))


class TestSessionCache:
    def test_cache_true_lives_beside_the_store(self, tmp_path):
        session = Session(store=tmp_path / "store", cache=True)
        assert session.cache.path == tmp_path / "store" / "diffcache"

    def test_cache_true_without_store_is_memory_only(self):
        session = Session(cache=True)
        assert session.cache is not None and session.cache.path is None

    def test_diff_consults_cache(self, pair):
        left, right = pair
        session = Session(cache=True)
        first = session.diff(left, right)
        second = session.diff(left, right)
        assert session.cache.stats().hits == 1
        assert result_signature(first) == result_signature(second)

    def test_use_cache_false_bypasses_entirely(self, pair):
        left, right = pair
        session = Session(cache=True)
        session.diff(left, right)
        before = session.cache.stats()
        session.diff(left, right, use_cache=False)
        after = session.cache.stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_store_keys_hit_across_loads(self, tmp_path, pair):
        # resolve_trace loads a fresh Trace object per call; the digest
        # is content-addressed, so the reload still hits.
        left, right = pair
        store = TraceStore(tmp_path / "store")
        store.save(left, key="l")
        store.save(right, key="r")
        session = Session(store=store, cache=True)
        one = session.diff("l", "r")
        two = session.diff("l", "r")
        assert session.cache.stats().hits == 1
        assert result_signature(one) == result_signature(two)


class TestHitIdentityProperty:
    """Cache-hit results are bit-identical to cold runs across all
    registered engines and interning on/off."""

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("interned", [True, False])
    def test_every_engine_and_interning_mode(self, engine, interned):
        left = two_thread_trace([1, 2, 3, 4], [7, 8], name="l")
        right = two_thread_trace([1, 2, 9, 4], [7, 8, 5], name="r")
        config = ViewDiffConfig(interned=interned)
        session = Session(config=config, engine=engine, cache=True)
        cold_result = session.diff(left, right)
        warm_result = session.diff(left, right)
        assert session.cache.stats().hits == 1, (engine, interned)
        assert result_signature(warm_result) == \
            result_signature(cold_result), (engine, interned)

    def test_session_hit_on_myfaces_pair(self):
        left = myfaces_trace(min_range=32, name="old")
        right = myfaces_trace(min_range=1, new_version=True, name="new")
        baseline = Session().diff(left, right)
        session = Session(cache=True)
        cold_result = session.diff(left, right)
        warm_result = session.diff(left, right)
        assert session.cache.stats().hits == 1
        assert result_signature(cold_result) == result_signature(baseline)
        assert result_signature(warm_result) == result_signature(baseline)


class TestWireCodec:
    def test_round_trip(self, pair):
        left, right = pair
        result = cold("views", left, right)
        back = result_from_wire(result_to_wire(result), left, right)
        assert result_signature(back) == result_signature(result)
        assert back.seconds == result.seconds

    def test_wire_is_json_encodable(self, pair):
        wire = result_to_wire(cold("dp", *pair))
        assert json.loads(json.dumps(wire)) == wire

    def test_bad_version_rejected(self, pair):
        with pytest.raises(ValueError, match="wire version"):
            result_from_wire({"version": 99}, *pair)
