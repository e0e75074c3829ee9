"""Warm stored traces: a store handle decodes an unchanged file once.

:meth:`TraceStore.load` returns the same trace object while a key's
file keeps its path, inode, mtime and size, so a repeat diff reuses
the entries, content digest and view index an earlier one built.
These tests pin:

* reuse and what ends it: a save or delete through the store, a fresh
  handle, the memo's byte bound;
* external changes (fault injection): an ``os.replace`` over a
  memoised key's file, an in-place truncation, a delete — and files
  vanishing between resolution and read.  Each gives a fresh decode
  or a clean error, never the stale trace;
* stored scenarios: the key two pairs share resolves to one trace
  whose view types are built once, with signatures equal to a run
  over freshly decoded traces;
* concurrent diffs of the same keys on one store equal serial ones.
"""

from __future__ import annotations

import functools
import os
import sys
import threading

import pytest

from repro.analysis import serialize
from repro.analysis.serialize import load_trace
from repro.api import Session, TraceStore
from repro.api.store import TraceNotFound
from repro.core.diffs import result_signature

from helpers import simple_trace

MYFACES_MODULES = ("repro.workloads.myfaces",)

#: Threads (more than the cores CI runners have) and rounds each.
WORKERS, ROUNDS = 4, 3


def run_threads(workers: int, task) -> list:
    """``task()`` ``ROUNDS`` times on each of ``workers`` threads,
    started together with a short switch interval; the results."""
    start = threading.Barrier(workers)
    results, errors = [], []

    def worker():
        try:
            start.wait(timeout=30)
            for _ in range(ROUNDS):
                results.append(task())
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


@pytest.fixture()
def store(tmp_path):
    store = TraceStore(tmp_path / "store")
    store.save(simple_trace([1, 2, 3], name="a1"), key="a")
    store.save(simple_trace([4, 5], name="b1"), key="b")
    return store


class TestReuse:
    def test_repeat_loads_return_one_trace(self, store):
        first = store.load("a")
        assert store.load("a") is first
        assert store.warm_stats() == {
            "loads": 1, "reuses": 1, "traces": 1,
            "bytes": store.get("a").path.stat().st_size}

    def test_a_fresh_handle_decodes_again(self, store):
        first = store.load("a")
        again = TraceStore(store.root).load("a")
        assert again is not first
        assert again.content_digest() == first.content_digest()

    def test_save_replaces_the_warm_trace(self, store):
        store.load("a")
        store.save(simple_trace([7, 8, 9], name="a2"), key="a")
        assert store.warm_stats()["traces"] == 0
        assert store.load("a").name == "a2"

    def test_delete_reads_as_not_found(self, store):
        store.load("a")
        store.delete("a")
        assert store.warm_stats()["traces"] == 0
        with pytest.raises(TraceNotFound):
            store.load("a")

    def test_byte_bound_evicts_least_recent(self, store, monkeypatch):
        store.save(simple_trace([6], name="c1"), key="c")
        sizes = {key: store.get(key).path.stat().st_size
                 for key in "abc"}
        monkeypatch.setattr(store._warm, "capacity",
                            sizes["a"] + sizes["b"])
        a, b = store.load("a"), store.load("b")
        store.load("a")  # now b is the least recent
        store.load("c")
        stats = store.warm_stats()
        assert stats["traces"] == 2
        assert stats["bytes"] == sizes["a"] + sizes["c"] \
            <= store._warm.capacity
        assert store.load("a") is a
        assert store.load("b") is not b

    def test_a_trace_over_the_bound_is_not_held(self, store,
                                                monkeypatch):
        monkeypatch.setattr(store._warm, "capacity", 1)
        first = store.load("a")
        assert store.load("a") is not first
        assert store.warm_stats()["traces"] == 0


class TestExternalChanges:
    def test_external_replace_gives_a_fresh_decode(self, store,
                                                   tmp_path):
        stale = store.load("a")
        path = store.get("a").path
        # Same size as the original: only the new inode tells them
        # apart (mtimes may share a coarse clock tick).
        replacement = simple_trace([3, 2, 1], name="a2")
        other = TraceStore(tmp_path / "other")
        staged = tmp_path / "staged.bin"
        staged.write_bytes(
            other.save(replacement, key="a").path.read_bytes())
        assert staged.stat().st_size == path.stat().st_size
        os.replace(staged, path)
        fresh = store.load("a")
        assert fresh is not stale
        assert fresh.name == "a2"
        assert fresh.content_digest() == replacement.content_digest()

    def test_in_place_truncation_is_a_clean_error(self, store):
        store.load("a")
        path = store.get("a").path
        with path.open("r+b") as handle:
            handle.truncate(path.stat().st_size // 2)
        with pytest.raises(ValueError):
            store.load("a")

    def test_external_delete_reads_as_not_found(self, store):
        store.load("a")
        store.get("a").path.unlink()
        with pytest.raises(TraceNotFound):
            store.load("a")
        with pytest.raises(KeyError, match="neither a store key"):
            Session(store=store).diff("a", "b")

    def test_vanishing_after_resolution(self, store, monkeypatch):
        resolve = store._path_for

        def resolve_then_delete(key, index=None):
            path = resolve(key, index)
            path.unlink()
            return path

        monkeypatch.setattr(store, "_path_for", resolve_then_delete)
        with pytest.raises(TraceNotFound):
            store.load("a")

    def test_vanishing_between_stat_and_read(self, store, monkeypatch):
        path = store.get("a").path
        lookup = store._warm.get

        def miss_then_delete(key, signature):
            found = lookup(key, signature)
            path.unlink()
            return found

        monkeypatch.setattr(store._warm, "get", miss_then_delete)
        with pytest.raises(TraceNotFound):
            store.load("a")


# -- stored scenarios ---------------------------------------------------------

def myfaces_versions():
    from repro.workloads.myfaces import version_new, version_old
    from repro.workloads.myfaces.scenario import run_request
    return (functools.partial(run_request, version_old),
            functools.partial(run_request, version_new))


@pytest.fixture(scope="module")
def myfaces_store(tmp_path_factory):
    from repro.workloads.myfaces.scenario import (CORRECT_REQUEST,
                                                  REGRESSING_REQUEST)
    root = tmp_path_factory.mktemp("warm") / "store"
    session = (Session().with_filter(include_modules=MYFACES_MODULES)
               .with_store(root))
    session.run_scenario(*myfaces_versions(), REGRESSING_REQUEST,
                         CORRECT_REQUEST, store_prefix="mf")
    return root


PAIRS = {"suspected": ("mf/old/regressing", "mf/new/regressing"),
         "expected": ("mf/old/correct", "mf/new/correct"),
         "regression": ("mf/new/correct", "mf/new/regressing")}


def fresh_signatures(root) -> dict:
    """Each pair diffed over traces decoded just for it."""
    return {name: result_signature(Session().diff(
        *(load_trace(TraceStore(root).get(key).path) for key in pair)))
        for name, pair in PAIRS.items()}


@pytest.fixture()
def view_builds(monkeypatch):
    """``(decoder id, view type)`` of every view-key column a v3
    decoder builds."""
    built = []
    original = serialize._V3Decoder.view_keys

    def counting_view_keys(self, vtype):
        built.append((id(self), vtype))
        return original(self, vtype)

    monkeypatch.setattr(serialize._V3Decoder, "view_keys",
                        counting_view_keys)
    return built


class TestStoredScenario:
    def test_shared_key_resolves_to_one_trace(self, myfaces_store,
                                              view_builds):
        expected = fresh_signatures(myfaces_store)
        del view_builds[:]
        session = Session(store=TraceStore(myfaces_store))
        result = session.run_stored_scenario(**PAIRS)
        shared = result.suspected.right
        assert result.regression.right is shared
        assert result.traces["new/regressing"] is shared
        assert len(view_builds) == len(set(view_builds))
        assert any(decoder == id(shared.entries.source)
                   for decoder, _vtype in view_builds)
        assert {name: result_signature(getattr(result, name))
                for name in PAIRS} == expected

    def test_self_diff_of_one_shared_trace(self, myfaces_store):
        """Both sides of a same-key diff are one warm trace; the result
        equals a diff of two separate decodes."""
        key = PAIRS["suspected"][1]
        path = TraceStore(myfaces_store).get(key).path
        fresh = Session().diff(load_trace(path), load_trace(path))
        shared = Session(store=TraceStore(myfaces_store)).diff(key, key)
        assert shared.left is shared.right
        assert result_signature(shared) == result_signature(fresh)


class TestConcurrency:
    def test_concurrent_loads_keep_the_byte_account(self, store,
                                                     monkeypatch):
        """Loads racing under a bound that holds two of three traces:
        the bytes held always equal the held files' sizes, within the
        bound."""
        store.save(simple_trace([6], name="c1"), key="c")
        sizes = {key: store.get(key).path.stat().st_size
                 for key in "abc"}
        monkeypatch.setattr(store._warm, "capacity",
                            max(sizes.values()) * 2)

        def load_all():
            return [store.load(key).name for key in "abcba"]

        names = run_threads(WORKERS, load_all)
        assert names == [["a1", "b1", "c1", "b1", "a1"]] \
            * WORKERS * ROUNDS
        stats = store.warm_stats()
        held = [key for key in "abc" if key in store._warm._slots]
        assert stats["traces"] == len(held) <= 2
        assert stats["bytes"] == sum(sizes[key] for key in held) \
            <= store._warm.capacity
        assert stats["loads"] + stats["reuses"] == WORKERS * ROUNDS * 5

    def test_concurrent_diffs_equal_serial(self, myfaces_store):
        expected = fresh_signatures(myfaces_store)
        session = Session(store=TraceStore(myfaces_store))
        seen = run_threads(WORKERS, lambda: {
            name: result_signature(session.diff(*pair, use_cache=False))
            for name, pair in PAIRS.items()})
        assert len(seen) == WORKERS * ROUNDS
        assert all(signatures == expected for signatures in seen)
        stats = session.store.warm_stats()
        assert stats["traces"] == len(set(sum(PAIRS.values(), ())))
        assert stats["loads"] + stats["reuses"] == \
            WORKERS * ROUNDS * 2 * len(PAIRS)
