"""Legacy text formats v1/v2: read-only input.

Nothing writes text any more, so these tests read the committed
fixtures ``data/legacy_v1.jsonl`` and ``data/legacy_v2.jsonl``
(``helpers.LEGACY_FIXTURES``: ``forked_trace(name="legacy")`` — two
threads, Fork/End ancestry, nested-tuple serialisations — as the v1
and v2 text writers wrote it before they were removed).  Every read
entry point must yield the same entries and the pinned content digest;
corruption tests edit the fixture text.
"""

import json
import shutil

import pytest

from repro.analysis.cli import main
from repro.analysis.serialize import (iter_entries, load_trace, loads_trace,
                                      read_header, read_key_table,
                                      save_trace)
from repro.api.store import SHARDS_DIR, TraceStore
from repro.core.entries import entries_equal
from repro.core.keytable import KeyTable
from repro.core.view_diff import view_diff
from repro.service import ReproService, ServiceClient, ServiceThread

from helpers import (LEGACY_DIGEST, LEGACY_FIXTURES as FIXTURES,
                     forked_trace, myfaces_trace)

LEGACY_METADATA = {"origin": "legacy fixture"}


def entries_match(a, b):
    assert len(a) == len(b)
    for entry_a, entry_b in zip(a.entries, b.entries):
        assert entry_a.eid == entry_b.eid
        assert entry_a.tid == entry_b.tid
        assert entry_a.method == entry_b.method
        assert entries_equal(entry_a, entry_b)


def fixture_lines(version):
    return FIXTURES[version].read_text(encoding="utf-8").splitlines()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def legacy(request):
    return request.param, FIXTURES[request.param]


class TestLegacyFixtures:
    def test_digest_pinned(self):
        assert forked_trace(name="legacy").content_digest() == LEGACY_DIGEST

    def test_load_trace(self, legacy):
        version, path = legacy
        loaded = load_trace(path)
        entries_match(forked_trace(), loaded)
        assert loaded.content_digest() == LEGACY_DIGEST
        assert loaded.name == "legacy"
        assert loaded.metadata == LEGACY_METADATA
        # v2 carries its key table; v1 has none to carry.
        assert (loaded.key_table is not None) == (version == 2)

    def test_loads_trace_text_and_bytes(self, legacy):
        _version, path = legacy
        text = path.read_text(encoding="utf-8")
        for payload in (text, text.encode("utf-8")):
            loaded = loads_trace(payload)
            entries_match(forked_trace(), loaded)
            assert loaded.content_digest() == LEGACY_DIGEST

    def test_read_header(self, legacy):
        version, path = legacy
        header = read_header(path)
        assert header["format"] == version
        assert header["name"] == "legacy"
        assert header["entries"] == len(forked_trace())
        assert header["metadata"] == LEGACY_METADATA

    def test_ingest_file(self, legacy, tmp_path):
        _version, path = legacy
        store = TraceStore(tmp_path / "store")
        record = store.ingest_file(path, key="in", tags=("old",))
        assert record.format == 3
        assert record.metadata["digest"] == LEGACY_DIGEST
        assert store.load("in").content_digest() == LEGACY_DIGEST

    def test_service_legacy_trace_key(self, legacy, tmp_path):
        _version, path = legacy
        with ServiceThread(ReproService(tmp_path / "store")) as running:
            client = ServiceClient(running.url)
            job = client.submit_capture(
                trace=path.read_text(encoding="utf-8"), key="up")
            record = client.wait(job)
            assert record["state"] == "done", record
            assert record["result"]["digest"] == LEGACY_DIGEST


class TestFormatV2:
    def test_v2_fixture_loads_with_key_table(self):
        loaded = load_trace(FIXTURES[2])
        assert read_header(FIXTURES[2])["keys"] > 0
        # The trace comes back interned: its column matches its table.
        assert loaded.key_table is not None
        assert len(loaded.key_ids) == len(loaded)
        for entry, kid in zip(loaded.entries, loaded.key_ids):
            assert loaded.key_table.key_of(kid) == entry.key()

    def test_v1_to_v3_round_trip(self, tmp_path):
        from_v1 = load_trace(FIXTURES[1])
        assert from_v1.key_table is None  # v1 carries no table
        save_trace(from_v1, tmp_path / "v3.trace")
        from_v3 = load_trace(tmp_path / "v3.trace")
        entries_match(forked_trace(), from_v3)
        assert from_v3.metadata == LEGACY_METADATA
        # =e keys survive the v1 -> v3 migration exactly.
        for entry_a, entry_b in zip(from_v1.entries, from_v3.entries):
            assert entry_a.key() == entry_b.key()

    def test_unknown_version_raises_clear_error(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"format": 99, "name": "x"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="version 99"):
            read_header(path)
        with pytest.raises(ValueError, match="version 99"):
            load_trace(path)
        with pytest.raises(ValueError, match="version 99"):
            list(iter_entries(path))

    def test_format_3_in_text_framing_rejected(self, tmp_path):
        lines = fixture_lines(2)
        header = json.loads(lines[0])
        header["format"] = 3
        lines[0] = json.dumps(header)
        path = write_lines(tmp_path / "fake.jsonl", lines)
        for read in (read_header, load_trace):
            with pytest.raises(ValueError, match="text framing"):
                read(path)

    def test_duplicate_key_table_line_rejected(self, tmp_path):
        lines = fixture_lines(2)
        lines[2] = lines[1]  # duplicate one key line: ids would shift
        path = write_lines(tmp_path / "t.jsonl", lines)
        with pytest.raises(ValueError, match="corrupt key table"):
            load_trace(path)
        with pytest.raises(ValueError, match="corrupt key table"):
            read_key_table(path)

    def test_out_of_range_kid_rejected(self, tmp_path):
        lines = fixture_lines(2)
        row = json.loads(lines[-1])
        row["kid"] = json.loads(lines[0])["keys"] + 5
        lines[-1] = json.dumps(row)
        path = write_lines(tmp_path / "t.jsonl", lines)
        with pytest.raises(ValueError, match="outside"):
            load_trace(path)

    def test_missing_version_raises(self, tmp_path):
        lines = fixture_lines(2)
        header = json.loads(lines[0])
        del header["format"]
        lines[0] = json.dumps(header)
        path = write_lines(tmp_path / "bad.jsonl", lines)
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_header(path)

    def test_read_key_table_streams_both_formats(self):
        expected = {entry.key() for entry in forked_trace().entries}
        for path in FIXTURES.values():
            _header, table = read_key_table(path)
            assert set(table.keys()) == expected

    def test_iter_entries_skips_key_table(self):
        for path in FIXTURES.values():
            assert list(iter_entries(path)) == list(forked_trace().entries)

    def test_shared_ingest_table_round_trips_local_ids(self, tmp_path):
        """A trace interned into a big shared table is written with a
        compact file-local table, and loads back consistent."""
        shared = KeyTable()
        for filler in range(100):
            shared.intern(("filler", filler))
        from repro.core.traces import TraceBuilder
        from repro.core.values import prim
        builder = TraceBuilder(name="t", key_table=shared)
        tid = builder.main_tid
        obj = builder.record_init(tid, "A", (), serialization=("A", 1))
        builder.record_set(tid, obj, "f", prim(1))
        builder.record_set(tid, obj, "f", prim(1))
        builder.record_end(tid)
        trace = builder.build()
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        header = read_header(path)
        assert header["keys"] == len(set(trace.key_ids))  # compact
        loaded = load_trace(path)
        entries_match(trace, loaded)
        for entry, kid in zip(loaded.entries, loaded.key_ids):
            assert loaded.key_table.key_of(kid) == entry.key()


def seed_legacy_store(root):
    """Both fixtures, tagged, in a flat store as older versions wrote
    it: the files and a ``store.json`` index at the root."""
    root.mkdir(parents=True)
    for path in FIXTURES.values():
        shutil.copy(path, root / path.name)
    tags = {"legacy_v1": ["one"], "legacy_v2": ["text", "two"]}
    (root / "store.json").write_text(json.dumps({"version": 1, "traces": {
        key: {"file": f"{key}.jsonl", "tags": tags[key]} for key in tags}}),
        encoding="utf-8")
    return root


class TestMigrate:
    def test_store_migrate_rewrites_text_as_v3(self, tmp_path, capsys):
        root = seed_legacy_store(tmp_path / "store")
        store = TraceStore(root)  # opening converts the flat layout
        assert store.migration == {"moved": 2, "dropped": 0}
        before = {r.key: (r.tags, store.load(r.key).content_digest())
                  for r in store.records()}
        assert before == {"legacy_v1": (("one",), LEGACY_DIGEST),
                          "legacy_v2": (("text", "two"), LEGACY_DIGEST)}
        assert main(["store", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out and "v3" not in out

        assert main(["store", "migrate", str(root)]) == 0
        out = capsys.readouterr().out
        assert "already sharded" in out
        assert "format v3: 2 rewritten, 0 already current, 0 failed" in out
        migrated = TraceStore(root)
        assert (root / SHARDS_DIR).is_dir()
        assert list(root.glob("*.json*")) == []  # no flat residue
        assert {r.key: r.format for r in migrated.records()} == \
            {"legacy_v1": 3, "legacy_v2": 3}
        after = {r.key: (r.tags, migrated.load(r.key).content_digest())
                 for r in migrated.records()}
        assert after == before
        for record in migrated.records():
            assert record.metadata == LEGACY_METADATA
            assert record.path.read_bytes().startswith(b"RPV3")
        assert main(["store", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "v3" in out and "v1" not in out and "v2" not in out

        # Idempotent: a second run skips every file.
        assert main(["store", "migrate", str(root)]) == 0
        out = capsys.readouterr().out
        assert "already sharded" in out
        assert "format v3: 0 rewritten, 2 already current, 0 failed" in out

        # Run on a flat store, it reports what opening it moved.
        copy = seed_legacy_store(tmp_path / "copy")
        assert main(["store", "migrate", str(copy)]) == 0
        out = capsys.readouterr().out
        assert "to the sharded layout (2 trace(s) moved, 0 stale root " \
            "cop(ies) dropped)" in out
        assert "format v3: 2 rewritten, 0 already current, 0 failed" in out

    def test_migrate_reports_unreadable_files(self, tmp_path, capsys):
        root = seed_legacy_store(tmp_path / "store")
        store = TraceStore(root)
        victim = store.get("legacy_v1").path
        lines = victim.read_text(encoding="utf-8").splitlines()
        write_lines(victim, lines[:1] + ["{not json"] + lines[2:])
        assert store.migrate_format() == {"migrated": 1, "skipped": 0,
                                          "failed": 1}
        assert store.get("legacy_v1").format == 1  # left as it was
        assert main(["store", "migrate", str(root)]) == 1
        assert "0 rewritten, 1 already current, 1 failed" in \
            capsys.readouterr().out


class TestMixedStore:
    def test_store_lists_and_loads_mixed_versions(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        new_style = myfaces_trace(name="new-style")
        store.save(new_style, key="pair/new")
        # A v1 file dropped in by an older tool, picked up on reopen.
        shutil.copy(FIXTURES[1], store.root / "legacy.jsonl")
        store = TraceStore(store.root)

        keys = store.keys()
        assert "pair/new" in keys and "legacy" in keys
        records = {record.key: record for record in store.records()}
        assert records["pair/new"].entries == len(new_style)
        assert records["legacy"].entries == len(forked_trace())
        assert (records["pair/new"].format, records["legacy"].format) \
            == (3, 1)

        left = store.load("pair/new")
        right = store.load("legacy")
        assert left.key_table is not None
        assert right.key_table is None
        # Interned diffing bridges a v3/v1 pair transparently.
        result = view_diff(left, right)
        assert result.num_diffs() == \
            view_diff(new_style, forked_trace()).num_diffs() > 0

    def test_store_save_records_fingerprint(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = myfaces_trace(name="t")
        record = store.save(trace, key="t")
        assert record.metadata["fingerprint"] == trace.fingerprint()

    def test_load_key_table_from_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = myfaces_trace(name="t")
        store.save(trace, key="t")
        table = store.load_key_table("t")
        assert set(table.keys()) == {e.key() for e in trace.entries}
