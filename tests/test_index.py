"""The persistent trace catalog (:mod:`repro.index`) and the sharded
store layout it rides on, including the conversion of flat stores.

The acceptance bar for queries is *index-only reads*: catalog lookups
on a 1k-trace store must never open a trace file, which the tests
assert by poisoning every trace-file reader the store layer knows.
"""

import json
import threading
import time

import pytest

from repro.analysis.cli import main
from repro.api.session import Session
from repro.api.store import SHARDS_DIR, TraceStore, shard_of
from repro.cache import DiffCache
from repro.index import (SKETCH_SIZE, TraceIndex, TraceIndexRecord,
                         sketch_overlap, trace_sketch)

from helpers import simple_trace, write_flat_store


def _record(key, digest="d0", fingerprint="f0", tags=(), scenario="",
            sketch=(), at=1000.0, entries=5, threads=1):
    return TraceIndexRecord(key=key, digest=digest,
                            fingerprint=fingerprint, entries=entries,
                            threads=threads, tags=tuple(tags),
                            scenario=scenario, sketch=tuple(sketch),
                            saved_at=at, updated_at=at)


class TestCatalogOps:
    def test_save_get_roundtrip(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a", digest="abc", tags=("x",)))
        record = index.get("a")
        assert record is not None
        assert record.digest == "abc"
        assert record.tags == ("x",)
        assert "a" in index
        assert len(index) == 1

    def test_readd_replaces(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a", digest="one"))
        index.record_save(_record("a", digest="two", at=2000.0))
        assert index.get("a").digest == "two"
        assert len(index) == 1

    def test_tags_op_updates(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a", tags=("x",)))
        index.record_tags("a", ("x", "y"))
        assert set(index.get("a").tags) == {"x", "y"}

    def test_tags_op_for_unknown_key_is_ignored(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_tags("ghost", ("x",))
        assert index.get("ghost") is None

    def test_delete_retires(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a"))
        index.record_delete("a")
        assert index.get("a") is None
        assert len(index) == 0

    def test_records_newest_updated_first(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("old", at=100.0))
        index.record_save(_record("new", at=200.0))
        assert [r.key for r in index.records()] == ["new", "old"]

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a"))
        shard = next((tmp_path / "index.d" / "traces").glob("*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write('{"op": "add", "key": "tor')  # crashed writer
        assert index.get("a") is not None
        assert len(index) == 1

    def test_fold_memoisation_sees_external_appends(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a"))
        assert index.get("a") is not None  # warm the fold memo
        other = TraceIndex(tmp_path / "index.d")  # a second process
        other.record_save(_record("a", digest="fresh", at=2000.0))
        assert index.get("a").digest == "fresh"

    def test_compact_folds_op_logs(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        for n in range(5):
            index.record_save(_record("a", digest=f"d{n}", at=float(n)))
        index.record_tags("a", ("t",))
        assert index.compact() == 1
        record = index.get("a")
        assert record.digest == "d4" and record.tags == ("t",)
        shard = next((tmp_path / "index.d" / "traces").glob("*.jsonl"))
        assert len(shard.read_text().splitlines()) == 1

    def test_clear_drops_everything(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a"))
        index.record_diff("d1", "d2", "views")
        assert index.clear() >= 2
        assert len(index) == 0
        assert index.diff_stats() == []


class TestQuery:
    @pytest.fixture()
    def index(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_save(_record("a", digest="aa11", tags=("bad",),
                                  scenario="login", at=100.0))
        index.record_save(_record("b", digest="ab22",
                                  tags=("bad", "big"),
                                  scenario="login", at=200.0))
        index.record_save(_record("c", digest="cc33", tags=("good",),
                                  scenario="checkout", at=300.0))
        return index

    def test_by_tag(self, index):
        assert {r.key for r in index.query(tags="bad")} == {"a", "b"}
        assert [r.key for r in index.query(tags=("bad", "big"))] == ["b"]

    def test_by_scenario(self, index):
        assert {r.key for r in index.query(scenario="login")} == \
            {"a", "b"}

    def test_by_digest_prefix(self, index):
        assert {r.key for r in index.query(digest_prefix="a")} == \
            {"a", "b"}
        assert [r.key for r in index.query(digest_prefix="ab")] == ["b"]

    def test_by_key_prefix(self, index):
        assert [r.key for r in index.query(key_prefix="c")] == ["c"]

    def test_since_epoch_and_iso(self, index):
        assert {r.key for r in index.query(since=150.0)} == {"b", "c"}
        iso = time.strftime("%Y-%m-%dT%H:%M:%S",
                            time.localtime(250.0))
        assert {r.key for r in index.query(since=iso)} == {"c"}

    def test_since_garbage_raises(self, index):
        with pytest.raises(ValueError, match="unparseable"):
            index.query(since="not-a-time")

    def test_filters_conjoin_and_limit(self, index):
        assert index.query(tags="bad", scenario="checkout") == []
        assert len(index.query(limit=2)) == 2

    def test_newest_with_tag(self, index):
        assert index.newest_with_tag("bad").key == "b"
        assert index.newest_with_tag("bad", exclude_key="b").key == "a"
        assert index.newest_with_tag("absent") is None

    def test_by_digest(self, index):
        assert [r.key for r in index.by_digest("aa11")] == ["a"]


class TestSketchAndSimilar:
    def test_sketch_is_bounded_and_deterministic(self):
        trace = simple_trace(list(range(100)), name="t")
        sketch = trace_sketch(trace)
        assert len(sketch) <= SKETCH_SIZE
        assert sketch == trace_sketch(trace)
        assert list(sketch) == sorted(sketch)

    def test_overlap_estimates_jaccard(self):
        left = simple_trace(list(range(40)), name="l")
        mostly = simple_trace(list(range(2, 42)), name="m")
        disjoint = simple_trace(list(range(100, 140)), name="d")
        near = sketch_overlap(trace_sketch(left), trace_sketch(mostly))
        far = sketch_overlap(trace_sketch(left), trace_sketch(disjoint))
        assert near > far
        assert sketch_overlap((), ()) == 0.0

    def test_similar_ranks_duplicates_first(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        probe = simple_trace(list(range(30)), name="probe")
        store.save(probe, key="probe")
        store.save(simple_trace(list(range(30)), name="twin"),
                   key="twin")             # same content, other key
        store.save(simple_trace(list(range(3, 33)), name="kin"),
                   key="kin")              # overlapping keys
        store.save(simple_trace(list(range(500, 520)), name="far"),
                   key="far")
        scored = store.index.similar("probe")
        keys = [record.key for _score, record in scored]
        assert keys[0] == "twin"           # digest match outranks all
        assert "probe" not in keys         # the probe excludes itself
        assert keys.index("kin") < keys.index("far") if "far" in keys \
            else True

    def test_similar_unknown_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            TraceIndex(tmp_path / "index.d").similar("ghost")


class TestDiffStats:
    def test_session_diff_appends_a_row(self, tmp_path):
        session = Session(store=tmp_path / "store", cache=True)
        left = simple_trace([1, 2, 3], name="l")
        right = simple_trace([1, 2, 9], name="r")
        session.store.save(left, key="l")
        session.store.save(right, key="r")
        session.diff("l", "r")
        session.diff("l", "r")  # second run: a cached row
        rows = session.store.index.diff_stats()
        assert len(rows) == 2
        assert rows[-1].left == left.content_digest()
        assert rows[-1].right == right.content_digest()
        assert rows[-1].engine == "views"
        assert not rows[-1].cached
        assert rows[0].cached  # newest first; warm run hit the cache

    def test_filters(self, tmp_path):
        index = TraceIndex(tmp_path / "index.d")
        index.record_diff("aa11", "bb22", "views", num_diffs=3)
        index.record_diff("cc33", "dd44", "lcs", num_diffs=0)
        assert len(index.diff_stats()) == 2
        assert [s.engine for s in index.diff_stats(engine="lcs")] == \
            ["lcs"]
        rows = index.diff_stats(digest_prefix="aa")
        assert len(rows) == 1 and rows[0].num_diffs == 3
        assert len(index.diff_stats(limit=1)) == 1


class TestStoreCatalogMaintenance:
    def test_save_tag_untag_delete_flow_through(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = simple_trace([1, 2], name="t")
        store.save(trace, key="a", tags=("x",), scenario="s")
        record = store.index.get("a")
        assert record.digest == trace.content_digest()
        assert record.fingerprint == trace.fingerprint()
        assert record.entries == len(trace)
        assert record.scenario == "s"
        assert record.tags == ("x",)
        store.tag("a", "y")
        assert set(store.index.get("a").tags) == {"x", "y"}
        store.untag("a", "x")
        assert store.index.get("a").tags == ("y",)
        store.delete("a")
        assert store.index.get("a") is None

    def test_dedup_returns_existing_record(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = simple_trace([1, 2, 3], name="t")
        store.save(trace, key="original")
        record = store.save(trace, key="copy", dedup=True)
        assert record.key == "original"
        assert store.keys() == ["original"]
        # Tags offered with the duplicate land on the existing trace.
        tagged = store.save(trace, key="again", dedup=True,
                            tags=("seen",))
        assert tagged.key == "original" and "seen" in tagged.tags

    def test_dedup_ignores_deleted_files(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = simple_trace([1, 2, 3], name="t")
        store.save(trace, key="a")
        # Simulate a catalog gone stale: the file vanished without a
        # record_delete (hand deletion).
        store._path_for("a").unlink()
        record = store.save(trace, key="b", dedup=True)
        assert record.key == "b"

    def test_capture_and_ingest_pass_dedup_through(self, tmp_path):
        session = Session(store=tmp_path / "store")
        def work():
            return sum(range(5))
        session.capture(work, name="one", store_as="one",
                        scenario="cap")
        trace = session.store.load("one")
        session.ingest(trace, store_as="two", dedup=True)
        assert session.store.keys() == ["one"]
        assert session.store.index.get("one").scenario == "cap"

    def test_run_scenario_records_scenario_metadata(self, tmp_path):
        session = Session(store=tmp_path / "store")
        def version(payload):
            return payload * 2
        session.run_scenario(version, version, regressing_input=3,
                             name="myscenario", store_prefix="job1")
        records = session.store.index.query(scenario="myscenario")
        assert {r.key for r in records} == {"job1/old/regressing",
                                            "job1/new/regressing"}

    def test_rebuild_backfills_a_legacy_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace([1], name="a"), key="a", tags=("t",))
        store.save(simple_trace([2], name="b"), key="b")
        store.index.clear()
        assert len(store.index) == 0
        assert store.index.rebuild(store) == 2
        assert set(r.key for r in store.index.records()) == {"a", "b"}
        assert store.index.get("a").tags == ("t",)
        assert store.index.get("b").digest  # recomputed from the file


class TestShardedLayout:
    def test_sharded_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = simple_trace([1, 2, 3], name="ns/key")
        store.save(trace, key="ns/key", tags=("x",))
        expected_dir = (store.root / SHARDS_DIR / shard_of("ns/key"))
        assert store._path_for("ns/key").parent == expected_dir
        assert store.load("ns/key").content_digest() == \
            trace.content_digest()
        assert store.get("ns/key").tags == ("x",)
        assert store.keys() == ["ns/key"]
        store.delete("ns/key")
        assert store.keys() == []

    def test_auto_detection_on_reopen(self, tmp_path):
        # A fresh directory is sharded at once and reopens as it is.
        root = tmp_path / "store"
        assert TraceStore(root).migration is None
        assert [p.name for p in root.iterdir()] == [SHARDS_DIR]
        assert TraceStore(root).migration is None
        assert [p.name for p in root.iterdir()] == [SHARDS_DIR]

    def test_sharded_layout_still_accepted(self, tmp_path):
        store = TraceStore(tmp_path / "store", layout="sharded")
        assert (store.root / SHARDS_DIR).is_dir()

    def test_flat_layout_on_sharded_store_refused(self, tmp_path):
        with pytest.raises(ValueError, match="sharded"):
            TraceStore(tmp_path / "store", layout="flat")
        assert not (tmp_path / "store").exists()

    def test_unknown_layout_refused(self, tmp_path):
        for layout in ("auto", "bogus"):
            with pytest.raises(ValueError, match="layout"):
                TraceStore(tmp_path / "store", layout=layout)

    def test_migration_moves_files_and_keeps_tags(self, tmp_path):
        traces = {key: simple_trace([n], name=key) for n, key in
                  enumerate(["ns/key"] + [f"t{n}" for n in range(8)])}
        tags = {key: (f"tag-{key}",) for key in traces}
        root = write_flat_store(tmp_path / "store", traces, tags)
        migrated = TraceStore(root)
        assert migrated.migration == {"moved": 9, "dropped": 0}
        assert not (root / "store.json").exists()
        assert list(root.glob("*.jsonl")) == []  # no flat remnants
        assert set(migrated.keys()) == set(traces)
        for key, trace in traces.items():
            record = migrated.get(key)
            assert record.tags == tags[key]
            assert record.path.parent == root / SHARDS_DIR / shard_of(key)
            assert migrated.load(key).content_digest() == \
                trace.content_digest()

    def test_migration_is_idempotent(self, tmp_path):
        root = write_flat_store(tmp_path / "store",
                                {"a": simple_trace([1], name="a")})
        store = TraceStore(root)
        assert store.migrate_to_sharded() == {"moved": 0, "dropped": 0}
        assert TraceStore(root).migration is None
        assert store.keys() == ["a"]

    def test_flat_remnants_resolve_and_are_adopted(self, tmp_path):
        # A crashed migration leaves files at the root beside shards.d;
        # the next open moves them into their shards.
        root = write_flat_store(tmp_path / "store",
                                {"a": simple_trace([1], name="a"),
                                 "b": simple_trace([2], name="b")},
                                tags={"a": ("x",)})
        (root / SHARDS_DIR).mkdir()
        store = TraceStore(root)
        assert store.migration == {"moved": 2, "dropped": 0}
        assert set(store.keys()) == {"a", "b"}
        assert store.load("a").name == "a"
        assert store._path_for("a").parent == \
            root / SHARDS_DIR / shard_of("a")
        assert store.get("a").tags == ("x",)

    def test_deleted_remnant_key_is_gone_from_every_listing(self,
                                                            tmp_path):
        root = write_flat_store(tmp_path / "store",
                                {"a": simple_trace([1], name="a")})
        (root / SHARDS_DIR).mkdir()
        store = TraceStore(root)
        store.delete("a")
        assert "a" not in store
        assert store.keys() == [] and len(store) == 0
        assert TraceStore(root).keys() == []

    def test_rerun_migration_keeps_the_newer_shard_copy(self, tmp_path,
                                                        capsys):
        # shards.d beside flat files is a crashed migration; a save
        # made since then is newer than the root copy of its key.
        root = tmp_path / "store"
        (root / SHARDS_DIR).mkdir(parents=True)
        new = simple_trace([4, 5], name="new")
        TraceStore(root).save(new, key="a", tags=("fresh",))
        write_flat_store(root, {"a": simple_trace([1, 2, 3], name="old")},
                         tags={"a": ("stale",)})
        assert main(["store", "migrate", str(root)]) == 0
        store = TraceStore(root)
        assert store.load("a").content_digest() == new.content_digest()
        assert store.get("a").tags == ("fresh",)
        assert list(root.glob("*.jsonl")) == []
        assert "1 stale root cop(ies) dropped" in capsys.readouterr().out

    def test_migration_index_write_holds_the_shard_lock(self, tmp_path,
                                                        monkeypatch):
        # A tag on another key of the shard being migrated lands
        # between the migration's index read and its write: it must
        # wait for the write, not be overwritten by it.
        root = tmp_path / "store"
        (root / SHARDS_DIR).mkdir(parents=True)
        neighbour = next(key for key in (f"b{n}" for n in range(4096))
                         if shard_of(key) == shard_of("a"))
        tagger = TraceStore(root)
        tagger.save(simple_trace([2], name="b"), key=neighbour)
        write_flat_store(root, {"a": simple_trace([1], name="a")})

        read_index = TraceStore._read_index
        tagged = threading.Event()
        racers = []

        def tag():
            tagger.tag(neighbour, "kept")
            tagged.set()

        def racing_read(store, shard):
            index = read_index(store, shard)
            if store is not tagger and not racers:
                racers.append(threading.Thread(target=tag))
                racers[0].start()
                # Returns as soon as the tag lands; under the shard
                # lock it cannot, and this times out instead.
                tagged.wait(timeout=1.0)
            return index

        monkeypatch.setattr(TraceStore, "_read_index", racing_read)
        TraceStore(root).migrate_to_sharded()
        assert racers, "the migration never read the shard index"
        racers[0].join(timeout=10)
        assert not racers[0].is_alive()
        monkeypatch.undo()
        store = TraceStore(root)
        assert store.get(neighbour).tags == ("kept",)
        assert store.load("a").name == "a"

    def test_session_cache_shards_with_the_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        session = Session(store=store, cache=True)
        session.cache.put_wire("abcdef", {})
        assert (store.root / "diffcache" / "ab" / "abcdef.json").exists()


def write_flat_entry(cache_dir, key, result):
    """An entry as caches that wrote flat left it: at the root."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / f"{key}.json").write_text(
        json.dumps({"key": key, "engine": "", "created": 0.0,
                    "result": result}), encoding="utf-8")


class TestShardedDiffCache:
    def test_sharded_entries_live_under_prefix_dirs(self, tmp_path):
        cache = DiffCache(tmp_path / "cache")
        cache.put_wire("abcdef", {"w": 1})
        assert (tmp_path / "cache" / "ab" / "abcdef.json").exists()
        assert not (tmp_path / "cache" / "abcdef.json").exists()
        wire = cache._disk_read("abcdef")
        assert wire["key"] == "abcdef" and wire["result"] == {"w": 1}

    def test_flat_root_entries_are_misses(self, tmp_path):
        write_flat_entry(tmp_path / "cache", "deadbeef", {"x": 2})
        cache = DiffCache(tmp_path / "cache")
        assert cache._disk_read("deadbeef") is None
        assert cache.stats().disk_entries == 1
        assert cache.clear() == 1
        assert not (tmp_path / "cache" / "deadbeef.json").exists()

    def test_stats_and_clear_cover_both_layouts(self, tmp_path):
        write_flat_entry(tmp_path / "cache", "11aa", {})
        write_flat_entry(tmp_path / "cache", "33cc", {})
        cache = DiffCache(tmp_path / "cache")
        cache.put_wire("22bb", {})
        assert cache.stats().disk_entries == 3
        assert cache.prune(max_entries=2) == 1
        assert cache.stats().disk_entries == 2
        assert cache.clear() == 2
        assert cache.stats().disk_entries == 0


class TestIndexOnlyQueries:
    """Acceptance: catalog queries on a 1k-trace store read only
    ``index.d`` — every trace-file reader is poisoned for the duration."""

    TRACES = 1000

    def test_queries_never_open_trace_files(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path / "store")
        digests = {}
        for n in range(self.TRACES):
            trace = simple_trace([n % 13, n], name=f"t{n:04d}")
            key = f"run{n % 10}/t{n:04d}"
            store.save(trace, key=key,
                       tags=("baseline",) if n % 100 == 0 else (),
                       scenario=f"scenario-{n % 5}")
            digests[key] = trace.content_digest()
        assert len(store.index) == self.TRACES

        def poisoned(*_args, **_kwargs):
            raise AssertionError("query touched a trace file")

        import repro.analysis.serialize as serialize
        import repro.api.store as store_module
        for module in (serialize, store_module):
            for name in ("read_header", "load_trace", "read_key_table"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, poisoned)
        monkeypatch.setattr(serialize, "loads_trace", poisoned)

        index = store.index
        tagged = index.query(tags="baseline")
        assert len(tagged) == self.TRACES // 100
        scenario = index.query(scenario="scenario-3")
        assert len(scenario) == self.TRACES // 5
        probe_key = "run7/t0007"
        prefix = digests[probe_key][:8]
        by_digest = index.query(digest_prefix=prefix)
        assert any(r.key == probe_key for r in by_digest)
        assert index.get(probe_key).digest == digests[probe_key]
        assert index.newest_with_tag("baseline") is not None
        assert len(index.similar(probe_key, limit=5)) > 0


class TestCatalogIsBestEffort:
    def test_store_survives_unwritable_index_dir(self, tmp_path):
        store = TraceStore(tmp_path / "store")

        class Exploding:
            def __getattr__(self, name):
                def boom(*args, **kwargs):
                    raise OSError("disk full")
                return boom

        store._trace_index = Exploding()
        record = store.save(simple_trace([1], name="t"), key="a")
        assert record.key == "a"
        store.tag("a", "x")
        store.delete("a")
        assert store.keys() == []
