"""TraceStore atomicity under concurrent writers.

Process capture workers persist traces from wherever they run, so the
store must stay consistent when many threads *and* many processes write
at once: every file lands via write-to-unique-temp + ``os.replace``,
and index read-modify-writes serialise through an advisory ``flock``.
"""

import json
import multiprocessing
import threading

import pytest

from repro.api.store import (SHARD_INDEX_NAME, SHARD_LOCK_NAME, SHARDS_DIR,
                              TraceStore, shard_of)

from helpers import simple_trace


def _no_temp_litter(root):
    return list(root.rglob("*.tmp")) == []


def _write_burst(root, writer_id, keys_per_writer):
    store = TraceStore(root)
    for at in range(keys_per_writer):
        trace = simple_trace([writer_id, at], name=f"w{writer_id}-{at}")
        store.save(trace, key=f"w{writer_id}/t{at}",
                   tags=(f"writer-{writer_id}",))


class TestAtomicWrites:
    def test_save_leaves_no_temp_files(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace([1, 2]), key="a")
        assert _no_temp_litter(store.root)

    def test_failed_write_leaves_target_intact(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace([1, 2], name="keep"), key="a")
        with pytest.raises(RuntimeError, match="boom"):
            def _explode(tmp):
                tmp.write_text("partial", encoding="utf-8")
                raise RuntimeError("boom")
            store._atomic_write(store._path_for("a"), _explode)
        assert store.load("a").name == "keep"
        assert _no_temp_litter(store.root)

    def test_lock_file_is_not_listed_as_a_trace(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace([1]), key="a")
        store.tag("a", "x")  # takes the flock, creating the lock file
        assert (store.root / SHARDS_DIR / shard_of("a")
                / SHARD_LOCK_NAME).exists()
        assert store.keys() == ["a"]

    def test_overwrite_is_atomic_for_readers(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace(list(range(50)), name="v1"), key="a")
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    trace = store.load("a")
                    assert trace.name in ("v1", "v2")
                    assert len(trace) in (52, 102)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(10):
                store.save(simple_trace(list(range(100)), name="v2"),
                           key="a")
                store.save(simple_trace(list(range(50)), name="v1"),
                           key="a")
        finally:
            stop.set()
            thread.join()
        assert not failures


class TestConcurrentWriters:
    WRITERS = 4
    KEYS_EACH = 5

    def _verify(self, root):
        store = TraceStore(root, create=False)
        expected = {f"w{w}/t{k}" for w in range(self.WRITERS)
                    for k in range(self.KEYS_EACH)}
        assert set(store.keys()) == expected
        indexed = set()
        for path in root.glob(f"{SHARDS_DIR}/*/{SHARD_INDEX_NAME}"):
            indexed |= set(json.loads(path.read_text(encoding="utf-8"))
                           ["traces"])
        assert indexed == expected
        for key in expected:
            record = store.get(key)
            assert record.tags == (f"writer-{key[1]}",)
            assert store.load(key).name
        assert _no_temp_litter(root)

    def test_concurrent_thread_writers(self, tmp_path):
        root = tmp_path / "store"
        TraceStore(root)
        threads = [threading.Thread(target=_write_burst,
                                    args=(root, w, self.KEYS_EACH))
                   for w in range(self.WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._verify(root)

    def test_concurrent_process_writers(self, tmp_path):
        root = tmp_path / "store"
        TraceStore(root)
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        workers = [context.Process(target=_write_burst,
                                   args=(root, w, self.KEYS_EACH))
                   for w in range(self.WRITERS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        self._verify(root)

    def test_mixed_writers_one_key_each_tag_set_survives(self, tmp_path):
        # Many writers tagging the *same* key: all tags must survive
        # the read-modify-write races.
        root = tmp_path / "store"
        store = TraceStore(root)
        store.save(simple_trace([1]), key="shared")

        def tagger(n):
            TraceStore(root).tag("shared", f"tag-{n}")

        threads = [threading.Thread(target=tagger, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(store.get("shared").tags) == {
            f"tag-{n}" for n in range(8)}


class TestPortableLockFallback:
    """Where ``fcntl`` is unavailable, :func:`repro.api.store.locked_file`
    must fall back to the O_CREAT|O_EXCL lockfile protocol instead of
    silently skipping cross-process exclusion."""

    @pytest.fixture()
    def no_fcntl(self, monkeypatch):
        from repro.api import store as store_module
        monkeypatch.setattr(store_module, "fcntl", None)
        return store_module

    def test_store_operations_work_without_fcntl(self, no_fcntl, tmp_path):
        store = TraceStore(tmp_path / "store")
        store.save(simple_trace([1, 2], name="t"), key="a", tags=("x",))
        store.tag("a", "y")
        assert set(store.get("a").tags) == {"x", "y"}
        # The sidecar lock is released (no .held file left behind).
        assert list(store.root.rglob("*.held")) == []

    def test_lock_excludes_and_releases(self, no_fcntl, tmp_path):
        from repro.api.store import locked_file
        target = tmp_path / "some.lock"
        held_path = tmp_path / "some.lock.held"
        with locked_file(target):
            assert held_path.exists()
            # A competing acquirer with a tiny timeout must give up.
            with pytest.raises(TimeoutError):
                with locked_file(target, timeout=0.05):
                    pass
        assert not held_path.exists()
        with locked_file(target, timeout=0.05):  # reacquirable
            pass

    def test_stale_lock_is_broken(self, no_fcntl, tmp_path):
        import os
        from repro.api.store import locked_file
        target = tmp_path / "some.lock"
        held_path = tmp_path / "some.lock.held"
        held_path.write_text("12345")
        ancient = 0  # epoch: far older than any stale horizon
        os.utime(held_path, (ancient, ancient))
        with locked_file(target, timeout=0.5, stale=5.0):
            assert held_path.read_text() != "12345"  # ours now

    def test_concurrent_taggers_without_fcntl(self, no_fcntl, tmp_path):
        root = tmp_path / "store"
        store = TraceStore(root)
        store.save(simple_trace([1]), key="shared")

        def tagger(n):
            TraceStore(root).tag("shared", f"tag-{n}")

        threads = [threading.Thread(target=tagger, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(store.get("shared").tags) == {
            f"tag-{n}" for n in range(6)}

    def test_break_stale_lock_never_deletes_a_fresh_lock(self, no_fcntl,
                                                         tmp_path):
        import os
        from repro.api.store import _break_stale_lock
        held = tmp_path / "x.lock.held"
        # A genuinely stale lock is broken ...
        held.write_text("dead")
        os.utime(held, (0, 0))
        _break_stale_lock(held, stale=5.0)
        assert not held.exists()
        # ... but one that turns out fresh at break time (the race the
        # blind-unlink protocol lost) is restored, not deleted.
        held.write_text("alive")
        _break_stale_lock(held, stale=5.0)
        assert held.exists() and held.read_text() == "alive"
        assert not list(tmp_path.glob("*.stale"))  # no tombstone litter
