"""Tests for the persistent trace store."""

import re

import pytest

from repro.analysis.serialize import save_trace
from repro.api.store import SHARDS_DIR, TraceStore, _stem_for, shard_of
from repro.core.view_diff import view_diff

from helpers import myfaces_trace, simple_trace


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "store")


class TestRoundTrip:
    def test_save_load_preserves_diff(self, store):
        old = myfaces_trace(min_range=32, name="old")
        new = myfaces_trace(min_range=1, new_version=True, name="new")
        store.save(old, key="old")
        store.save(new, key="new")
        direct = view_diff(old, new)
        reloaded = view_diff(store.load("old"), store.load("new"))
        assert reloaded.similar_left == direct.similar_left
        assert reloaded.num_diffs() == direct.num_diffs()

    def test_default_key_is_trace_name(self, store):
        record = store.save(simple_trace([1, 2], name="named"))
        assert record.key == "named"
        assert "named" in store

    def test_unnamed_trace_requires_key(self, store):
        with pytest.raises(ValueError):
            store.save(simple_trace([1]))

    def test_slash_keys_flatten_on_disk(self, store):
        store.save(simple_trace([1], name="t"), key="demo/old/regressing")
        record = store.get("demo/old/regressing")
        assert "/" not in record.path.name
        assert store.load("demo/old/regressing").name == "t"

    def test_stem_sanitisation(self):
        assert _stem_for("a/b") == "a__b"
        assert _stem_for("weird key!") == "weird-key-"

    def test_colliding_stems_stay_distinct(self, store):
        # "a/b" and "a__b" sanitise to the same stem; the store must
        # not let the second save clobber the first key's data.
        store.save(simple_trace([1], name="first"), key="a/b")
        store.save(simple_trace([1, 2, 3], name="second"), key="a__b")
        assert store.load("a/b").name == "first"
        assert store.load("a__b").name == "second"
        assert store.get("a/b").path != store.get("a__b").path
        store.save(simple_trace([7], name="one"), key="a b")
        store.save(simple_trace([8], name="two"), key="a:b")
        assert store.load("a b").name == "one"
        assert store.load("a:b").name == "two"


class TestListing:
    def test_records_report_entry_counts(self, store):
        store.save(simple_trace([1, 2, 3], name="three"))
        record = store.get("three")
        # Header + init + three sets + end.
        assert record.entries == len(store.load("three"))
        assert record.name == "three"

    def test_keys_sorted(self, store):
        for name in ("b", "a", "c"):
            store.save(simple_trace([1], name=name))
        assert store.keys() == ["a", "b", "c"]
        assert len(store) == 3

    def test_loose_files_are_discovered(self, store):
        # A file dropped at the root moves into its shard when the
        # store is next opened.
        trace = simple_trace([1, 2], name="loose")
        save_trace(trace, store.root / "dropped.jsonl")
        store = TraceStore(store.root)
        assert not (store.root / "dropped.jsonl").exists()
        assert "dropped" in store.keys()
        assert store.load("dropped").name == "loose"

    def test_copied_store_without_index_resolves_colliding_keys(
            self, store, tmp_path):
        # A store copied without its shard indexes must still route
        # colliding keys to the right files (store_key headers are
        # authoritative, not the sanitised stem).
        store.save(simple_trace([1], name="dunder"), key="a__b")
        store.save(simple_trace([2, 3], name="slash"), key="a/b")
        copy = TraceStore(tmp_path / "copy")
        for path in store.root.glob(f"{SHARDS_DIR}/*/*.jsonl"):
            target = copy.root / path.relative_to(store.root)
            target.parent.mkdir(exist_ok=True)
            target.write_bytes(path.read_bytes())
        assert copy.keys() == ["a/b", "a__b"]
        assert copy.load("a/b").name == "slash"
        assert copy.load("a__b").name == "dunder"

    def test_junk_files_do_not_break_listing(self, store):
        store.save(simple_trace([1], name="good"))
        shard = store.root / SHARDS_DIR / shard_of("good")
        for directory in (store.root, shard):
            (directory / "empty.jsonl").write_text("", encoding="utf-8")
            (directory / "junk.jsonl").write_text("not json\n",
                                                  encoding="utf-8")
        store = TraceStore(store.root)
        assert store.keys() == ["good"]
        assert [r.key for r in store.records()] == ["good"]
        assert len(store) == 1

    def test_corrupt_shard_index_names_its_path(self, tmp_path):
        root = tmp_path / "store"
        (root / SHARDS_DIR).mkdir(parents=True)
        store = TraceStore(root)
        store.save(simple_trace([1], name="a"), key="a")
        index = root / SHARDS_DIR / shard_of("a") / "shard.json"
        index.write_text(index.read_text(encoding="utf-8")[:12],
                         encoding="utf-8")
        calls = (store.keys, store.records, lambda: store.load("a"),
                 lambda: store.get("a"),
                 lambda: store.save(simple_trace([2], name="a"), key="a"))
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(str(index))):
                call()

    def test_missing_key(self, store):
        with pytest.raises(KeyError):
            store.load("absent")
        with pytest.raises(KeyError):
            store.get("absent")

    def test_missing_store_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceStore(tmp_path / "nowhere", create=False)


class TestTags:
    def test_tag_untag(self, store):
        store.save(simple_trace([1], name="t"), tags=("seed",))
        assert store.get("t").tags == ("seed",)
        store.tag("t", "bad", "myfaces")
        assert store.get("t").tags == ("bad", "myfaces", "seed")
        store.untag("t", "seed", "bad")
        assert store.get("t").tags == ("myfaces",)

    def test_records_filter_by_tag(self, store):
        store.save(simple_trace([1], name="a"), tags=("keep",))
        store.save(simple_trace([2], name="b"))
        keys = [r.key for r in store.records(tag="keep")]
        assert keys == ["a"]
        assert len(store.records()) == 2

    def test_tagging_survives_resave(self, store):
        store.save(simple_trace([1], name="t"), tags=("old",))
        store.save(simple_trace([1, 2], name="t"), tags=("new",))
        assert store.get("t").tags == ("new", "old")


class TestDeleteAndIngest:
    def test_delete(self, store):
        record = store.save(simple_trace([1], name="t"))
        store.delete("t")
        assert "t" not in store
        assert not record.path.exists()

    def test_delete_missing_is_noop(self, store):
        store.delete("absent")

    def test_ingest_file(self, store, tmp_path):
        trace = myfaces_trace(name="from-disk")
        source = tmp_path / "ext.jsonl"
        save_trace(trace, source)
        record = store.ingest_file(source, tags=("imported",))
        assert record.key == "from-disk"
        assert record.tags == ("imported",)
        assert len(store.load("from-disk")) == len(trace)
