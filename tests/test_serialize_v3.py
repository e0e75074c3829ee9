"""Binary v3 wire format: property tests over generated traces.

Hypothesis drives the same trace "programs" as ``test_properties``
through the v3 encode/decode pair and asserts the invariants the rest
of the system leans on: round-trips preserve entries and the content
digest, re-encoding is byte-stable, lazy decode equals eager decode
entry-for-entry, and corrupt frames fail loudly.  Byte pins prove the
encoder's output never drifts, and plain tests cover the store-facing
surface (mixed-format stores, ``migrate_format``/``format_stats``,
seeded from the legacy text fixtures).
"""

import hashlib
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import (dumps_trace_bytes, load_trace,
                                      loads_trace, read_header,
                                      read_key_table, save_trace)
from repro.api.store import TraceStore
from repro.core.entries import entries_equal
from repro.core.view_diff import view_diff

from helpers import (LEGACY_DIGEST, LEGACY_FIXTURES, forked_trace,
                     myfaces_trace, two_thread_trace)
from test_properties import build_trace, programs

# Programs that always yield at least one real event (the empty trace
# is covered explicitly below).
nonempty_programs = st.tuples(
    st.just(("new",)), st.just(("call", 0, 0, 1))).map(list)
any_programs = st.one_of(programs, nonempty_programs)


def entries_match(a, b):
    assert len(a) == len(b)
    for entry_a, entry_b in zip(a.entries, b.entries):
        assert entry_a.eid == entry_b.eid
        assert entry_a.tid == entry_b.tid
        assert entry_a.method == entry_b.method
        assert entries_equal(entry_a, entry_b)


class TestV3RoundTrip:
    @given(any_programs)
    @settings(max_examples=60, deadline=None)
    def test_wire_round_trip_preserves_entries_and_digest(self, program):
        trace = build_trace(program, "t")
        blob = dumps_trace_bytes(trace)
        loaded = loads_trace(blob)
        entries_match(trace, loaded)
        assert loaded.content_digest() == trace.content_digest()

    @given(any_programs)
    @settings(max_examples=40, deadline=None)
    def test_reencode_is_byte_stable(self, program):
        # decode(encode(t)) re-encodes to the *same bytes* — the wire
        # memo keyed on content digest depends on this.
        trace = build_trace(program, "t")
        blob = dumps_trace_bytes(trace)
        assert dumps_trace_bytes(loads_trace(blob)) == blob

    @given(any_programs, st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_eager_under_random_access(self, program, seed):
        trace = build_trace(program, "t")
        lazy = loads_trace(dumps_trace_bytes(trace))
        if len(trace):
            # Touch entries out of order first: materialisation order
            # must not affect what comes back.
            position = seed % len(trace)
            assert lazy.entries[position].eid == position
            assert entries_equal(lazy.entries[position],
                                 trace.entries[position])
        entries_match(trace, lazy)

    @given(any_programs)
    @settings(max_examples=30, deadline=None)
    def test_digest_formula_is_the_documented_one(self, program):
        # The digest hashes one repr per entry; the hand-written
        # __repr__s must keep producing exactly these strings or every
        # stored digest silently changes.
        trace = build_trace(program, "t")
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"trace-content-v1;")
        digest.update(len(trace.entries).to_bytes(8, "little"))
        for entry in trace.entries:
            digest.update(repr(entry).encode("utf-8", "replace"))
            digest.update(b";")
        assert trace.content_digest() == digest.hexdigest()

    def test_empty_trace_round_trips(self):
        trace = build_trace([], "empty")
        loaded = loads_trace(dumps_trace_bytes(trace))
        entries_match(trace, loaded)

    @given(any_programs, any_programs)
    @settings(max_examples=25, deadline=None)
    def test_diff_identical_across_wire(self, left_ops, right_ops):
        left, right = build_trace(left_ops, "L"), build_trace(right_ops, "R")
        direct = view_diff(left, right)
        wired = view_diff(loads_trace(dumps_trace_bytes(left)),
                          loads_trace(dumps_trace_bytes(right)))
        assert wired.similar_left == direct.similar_left
        assert wired.similar_right == direct.similar_right
        assert wired.num_diffs() == direct.num_diffs()


class TestV3Files:
    def test_read_header_and_key_table(self, tmp_path):
        trace = build_trace([("new",), ("call", 0, 0, 1), ("set", 0, 1, 2)],
                            "t")
        path = tmp_path / "t.trace"
        save_trace(trace, path, extra_metadata={"tag": "x"})
        header = read_header(path)
        assert header["format"] == 3
        assert header["name"] == "t"
        assert header["entries"] == len(trace)
        assert header["metadata"]["tag"] == "x"
        meta, table = read_key_table(path)
        assert meta["format"] == 3
        assert len(table) == header["keys"] > 0
        loaded = load_trace(path)
        for entry, kid in zip(loaded.entries, loaded.key_ids):
            assert table.key_of(kid) == entry.key()

    def test_truncated_file_raises(self, tmp_path):
        trace = build_trace([("new",), ("call", 0, 0, 1)], "t")
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        blob = path.read_bytes()
        for cut in (2, 6, len(blob) - 1):
            clipped = tmp_path / f"cut{cut}.trace"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_trace(clipped)

    def test_corrupt_section_table_raises(self, tmp_path):
        trace = build_trace([("new",), ("call", 0, 0, 1)], "t")
        blob = bytearray(dumps_trace_bytes(trace))
        # Flip a byte inside the header JSON: either the JSON parse or
        # the section-bounds validation must reject it.
        blob[12] ^= 0xFF
        with pytest.raises(ValueError):
            loads_trace(bytes(blob))

    def test_wrong_magic_falls_back_to_text_parse_error(self, tmp_path):
        trace = build_trace([("new",)], "t")
        blob = bytearray(dumps_trace_bytes(trace))
        blob[:4] = b"XXXX"
        with pytest.raises(ValueError):
            loads_trace(bytes(blob))


class TestV3BytePins:
    """sha256 of the encoder's bytes for fixed traces: any change to the
    v3 layout, pools, JSON blobs or header shows up here."""

    @pytest.mark.parametrize("build, expected", [
        (myfaces_trace, "f7d4652dabedf6b42ced80db4bab2bcb"
                        "e65fa0298c0b4c63a0c1a2092c8b20e8"),
        (lambda: two_thread_trace([1, 2], [3], name="demo"),
         "360690ceeade4aebc6383b3ecefc0f90"
         "df8db60ac651a23177518d47d277677c"),
        (forked_trace, "d38eaba76440ff50c2794be54b6dd87e"
                       "16b82c55948406168a7fe34480e3cf3a"),
    ], ids=["myfaces", "two_thread", "forked"])
    def test_bytes_pinned(self, build, expected):
        blob = dumps_trace_bytes(build())
        assert hashlib.sha256(blob).hexdigest() == expected


class TestBytesValues:
    def test_traced_bytes_argument_survives_save_and_load(self, tmp_path):
        """A traced call taking ``bytes`` records a ``Bytes`` value; the
        trace must save and load back to the same content digest."""
        from repro.capture import TraceFilter, trace_call, traced

        @traced
        class Codec:
            def feed(self, data):
                return len(data)

        trace = trace_call(lambda: Codec().feed(b"abc"),
                           filter=TraceFilter(include_modules=(__name__,))
                           ).trace
        assert any(rep.key() == ("Bytes", b"abc")
                   for entry in trace.entries
                   for rep in getattr(entry.event, "args", ()))
        store = TraceStore(tmp_path / "store")
        store.save(trace, key="codec")
        loaded = TraceStore(tmp_path / "store").load("codec")
        assert loaded.content_digest() == trace.content_digest()


class TestStoreFormats:
    def test_mixed_format_store_diffs(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        shutil.copy(LEGACY_FIXTURES[2], store.root / "old.jsonl")
        new = two_thread_trace([1, 2], [3], name="new")
        store.save(new)
        formats = {r.key: r.format for r in store.records()}
        assert formats == {"old": 2, "new": 3}
        result = view_diff(store.load("old"), store.load("new"))
        assert result.num_diffs() == \
            view_diff(forked_trace(), new).num_diffs()

    def test_migrate_format_and_stats(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        for version, path in LEGACY_FIXTURES.items():
            shutil.copy(path, store.root / f"t{version}.jsonl")
        store.save(two_thread_trace([1], [2], name="t3"))
        before = {r.key: store.load(r.key).content_digest()
                  for r in store.records()}
        assert before["t1"] == before["t2"] == LEGACY_DIGEST
        stats = store.format_stats()
        assert {version: bucket["traces"] for version, bucket
                in stats["formats"].items()} == {"1": 1, "2": 1, "3": 1}
        outcome = store.migrate_format()
        assert outcome == {"migrated": 2, "skipped": 1, "failed": 0}
        stats = store.format_stats()
        assert list(stats["formats"]) == ["3"]
        assert stats["traces"] == 3
        # Digests (and therefore identity) survive the rewrite.
        after = {r.key: store.load(r.key).content_digest()
                 for r in store.records()}
        assert after == before
        # A second migration is a no-op.
        assert store.migrate_format()["skipped"] == 3
