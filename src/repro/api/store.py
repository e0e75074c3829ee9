"""Persistent trace store: capture now, diff later.

RPRISM's workflow is offline — traces are captured (and segmented) to
disk while the program runs and analysed afterwards.  A
:class:`TraceStore` is a directory of trace files (binary v3, see
:mod:`repro.analysis.serialize`) addressed by key, with a small
sidecar index for tags::

    store = TraceStore("traces/")
    store.save(trace, key="old/regressing", tags=("myfaces", "bad"))
    later = store.load("old/regressing")
    for record in store.records(tag="bad"):
        print(record.key, record.entries)

Keys may contain ``/`` (sessions namespace the four-trace recipe as
``<scenario>/old/regressing`` etc.); they are sanitised to plain file
names on disk.  Trace files live under ``shards.d/<hh>/``, where
``hh`` is a digest prefix of the *key*; each shard carries its own
``shard.json`` index (tags, key -> file) and lock, so key -> file
resolution is O(1) and an index read-modify-write touches one small
shard however many traces the store holds.  Trace name and entry
counts are always read from the file headers; only tags live in the
index, and a file in a shard that its index does not name is still
listed under the ``store_key`` its header carries.

Writes are safe under concurrent writers — threads of one process *and*
separate processes sharing the directory.  Every file lands via
write-to-unique-temp + ``os.replace`` (readers never observe a
half-written trace or index), and index read-modify-writes are
serialised through an advisory ``flock`` on the shard's lock file where
the platform provides one.

Opening a directory in the flat layout that versions up to repro 2.0.0
wrote (``store.json`` and trace files at the root) fails: see
:func:`refuse_flat_store`.

Every save/tag/delete also maintains the store's persistent catalog
(:class:`repro.index.TraceIndex` under ``index.d/``), which is what
``save(dedup=True)`` consults to return an existing record instead of
writing a byte-identical duplicate.

A store handle keeps the traces it decoded **warm**: while a key's
file is unchanged, :meth:`TraceStore.load` returns the same
:class:`Trace` object, so a repeat diff reuses the entries, content
digest and view index the previous one built.  Store-loaded traces
are therefore shared and immutable.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.analysis.serialize import (load_trace, read_header,
                                      read_key_table, reject_legacy,
                                      save_trace)
from repro.core.keytable import KeyTable
from repro.core.traces import Trace

#: Trace files and shard indexes live under ``shards.d/<hh>/``, each
#: shard with its own index + lock; the sidecar catalog lives in
#: ``index.d``.
SHARDS_DIR = "shards.d"
SHARD_INDEX_NAME = "shard.json"
SHARD_LOCK_NAME = "shard.lock"
SHARD_WIDTH = 2
TRACE_INDEX_DIR = "index.d"
INDEX_VERSION = 1
_SUFFIX = ".jsonl"

#: Bound on the file bytes of the decoded traces one store handle
#: keeps warm (least recently loaded evicted first).
WARM_TRACE_BYTES = 16 << 20


def shard_of(key: str, width: int = SHARD_WIDTH) -> str:
    """The shard a key lives in: a hex prefix of the key's digest (so
    resolution needs no index at all, just a hash)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return digest.hexdigest()[:width]


def refuse_flat_store(root: Path) -> None:
    """Refuse a directory in the flat layout (``store.json`` or trace
    files at its root) with :func:`reject_legacy`'s error.  Reads no
    file."""
    if (root / "store.json").exists() or any(root.glob("*" + _SUFFIX)):
        reject_legacy(f"{root} is a flat trace store (store.json or "
                      f"trace files at its root)")

#: Per-process uniquifier for temp file names (pid alone is not enough:
#: one process may write the same target from several threads).
_TMP_SEQ = count()

#: Characters allowed verbatim in on-disk file stems.
_SAFE = set("abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


#: Portable lockfile fallback tuning (used where ``fcntl`` is absent).
LOCK_TIMEOUT_SECONDS = 10.0
STALE_LOCK_SECONDS = 30.0
_LOCK_POLL_SECONDS = 0.005


@contextmanager
def locked_file(path: Path, *,
                timeout: float = LOCK_TIMEOUT_SECONDS,
                stale: float = STALE_LOCK_SECONDS):
    """An exclusive advisory cross-process lock on ``path``.

    Where the platform provides ``fcntl``, this is a plain ``flock`` on
    the file (created if missing).  Elsewhere — and in tests that
    monkeypatch ``repro.api.store.fcntl`` to ``None`` — it falls back
    to a portable lockfile protocol: spin on ``O_CREAT|O_EXCL`` of a
    ``<path>.held`` sidecar, breaking locks whose file is older than
    ``stale`` seconds (a crashed holder never wedges the store), and
    raising ``TimeoutError`` after ``timeout`` seconds of contention.
    ``stale`` is therefore also the holder's deadline: a critical
    section that outlives it looks crashed to waiters and loses the
    lock — callers with legitimately long sections must pass a larger
    ``stale`` (or refresh the held file's mtime); the sections in this
    repo (index read-modify-writes, cache prune/clear) are bounded far
    below the default.
    Both the :class:`TraceStore` and the diff cache
    (:mod:`repro.cache`) serialise their read-modify-writes through
    this one discipline.
    """
    if fcntl is not None:
        with path.open("a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        return
    held = path.with_name(path.name + ".held")
    deadline = time.monotonic() + timeout
    while True:
        try:
            descriptor = os.open(held, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - held.stat().st_mtime
            except OSError:  # holder released between open and stat
                continue
            if age > stale:
                _break_stale_lock(held, stale)
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not acquire lock {held} within {timeout}s "
                    f"(held for {age:.1f}s)")
            time.sleep(_LOCK_POLL_SECONDS)
            continue
        own = None
        try:
            try:
                own = os.fstat(descriptor)
                os.write(descriptor, str(os.getpid()).encode())
            finally:
                os.close(descriptor)
            yield
        finally:
            # Release only *our own* lock file: if a waiter mistook a
            # long critical section for a crash and broke our lock, the
            # path may now name a peer's live lock — deleting that
            # would cascade the mutual-exclusion loss.
            try:
                current = os.stat(held)
                if own is None or (current.st_ino, current.st_dev) == \
                        (own.st_ino, own.st_dev):
                    held.unlink()
            except OSError:  # pragma: no cover - removed by a peer
                pass
        return


def _break_stale_lock(held: Path, stale: float) -> None:
    """Remove a crashed holder's lock file without ever deleting a
    *live* one.

    A blind ``unlink`` would race: two waiters both judge the file
    stale, the first breaks it and immediately re-acquires, and the
    second's unlink then deletes the winner's *fresh* lock — two
    holders at once.  Instead the break is claimed by an atomic rename
    to a waiter-unique tombstone (exactly one renamer wins; losers just
    respin), the tombstone's own mtime is re-checked, and a fresh lock
    caught in the window is put back via ``os.link`` — which refuses to
    clobber, so a lock re-acquired meanwhile is never overwritten.
    """
    tombstone = held.with_name(
        f"{held.name}.{os.getpid()}.{next(_TMP_SEQ)}.stale")
    try:
        # Re-judge staleness immediately before acting: the caller's
        # stat may be arbitrarily old by now (another waiter may have
        # broken and re-acquired in between).
        if time.time() - held.stat().st_mtime <= stale:
            return
        os.rename(held, tombstone)
    except OSError:  # someone else claimed the break first
        return
    try:
        fresh = time.time() - tombstone.stat().st_mtime <= stale
    except OSError:
        return
    if fresh:
        # We renamed a lock that was re-acquired between our stat and
        # the rename: restore it to its owner (unless a third waiter
        # took the name meanwhile — neither restore path clobbers).
        # ``link`` preserves the inode, so the owner's identity-checked
        # release still works; filesystems without hardlinks fall back
        # to an O_EXCL create-and-copy, where the owner's release skips
        # the (new-inode) file and the lock ages out over ``stale``
        # seconds instead of mutual exclusion being lost.
        try:
            os.link(tombstone, held)
        except OSError:
            try:
                descriptor = os.open(held,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                pass
            else:
                try:
                    os.write(descriptor, tombstone.read_bytes())
                except OSError:
                    pass
                finally:
                    os.close(descriptor)
    try:
        tombstone.unlink()
    except OSError:  # pragma: no cover - cleaned up by a peer
        pass


def _stem_for(key: str) -> str:
    """Key -> file stem (``/`` becomes ``__``, exotic chars ``-``)."""
    out = []
    for ch in key:
        if ch == "/":
            out.append("__")
        elif ch in _SAFE:
            out.append(ch)
        else:
            out.append("-")
    return "".join(out)


class TraceNotFound(KeyError):
    """No trace is stored under the key asked for."""


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One stored trace as the store lists it (header + tags)."""

    key: str
    path: Path
    name: str
    entries: int
    tags: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def brief(self) -> str:
        tags = f" [{', '.join(self.tags)}]" if self.tags else ""
        return f"{self.key:32} {self.entries:>7} entries{tags}"


@dataclass(frozen=True, slots=True)
class _Shard:
    """One ``shards.d/<hh>/`` directory with its index and lock."""

    directory: Path
    index_path: Path
    lock_path: Path

    @classmethod
    def at(cls, directory: Path) -> "_Shard":
        return cls(directory, directory / SHARD_INDEX_NAME,
                   directory / SHARD_LOCK_NAME)


def _file_signature(path: Path, stat: os.stat_result) -> tuple:
    """What identifies one version of a file: its path and the inode
    it names (writers ``os.replace``, so a rewrite is a new inode),
    with mtime and size to catch in-place edits."""
    return (str(path), stat.st_dev, stat.st_ino, stat.st_mtime_ns,
            stat.st_size)


class _WarmTraces:
    """Decoded traces by store key, each valid for one file signature.

    An LRU bounded by the file bytes of the traces it holds
    (:data:`WARM_TRACE_BYTES`).  Its own lock guards it; decoding runs
    outside that lock, so two threads first-loading one key may both
    decode — the first to :meth:`put` wins the slot and the other
    adopts its trace.
    """

    def __init__(self):
        self.capacity = WARM_TRACE_BYTES
        self._lock = threading.Lock()
        self._slots: "OrderedDict[str, tuple[tuple, Trace]]" = \
            OrderedDict()
        self._bytes = 0
        self.loads = 0
        self.reuses = 0

    def get(self, key: str, signature: tuple) -> Trace | None:
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or slot[0] != signature:
                return None
            self._slots.move_to_end(key)
            self.reuses += 1
            return slot[1]

    def put(self, key: str, signature: tuple, trace: Trace) -> Trace:
        """Hold ``trace`` as the decode of ``signature``; the trace
        returned is the one now resident (an equal racer's, if any)."""
        size = signature[-1]  # the file size (see _file_signature)
        with self._lock:
            self.loads += 1
            slot = self._slots.get(key)
            if slot is not None and slot[0] == signature:
                return slot[1]
            self._drop(key)
            if size > self.capacity:
                return trace
            self._slots[key] = (signature, trace)
            self._bytes += size
            while self._bytes > self.capacity:
                self._drop(next(iter(self._slots)))
        return trace

    def drop(self, key: str) -> None:
        with self._lock:
            self._drop(key)

    def _drop(self, key: str) -> None:
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._bytes -= slot[0][-1]

    def stats(self) -> dict:
        with self._lock:
            return {"loads": self.loads, "reuses": self.reuses,
                    "traces": len(self._slots), "bytes": self._bytes}


class TraceStore:
    """A directory of serialised traces addressed by key."""

    def __init__(self, root: str | Path, create: bool = True,
                 layout: str = "sharded"):
        if layout != "sharded":
            raise ValueError(f"unknown store layout {layout!r}: every "
                             f"store is sharded")
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no trace store at {self.root}")
        refuse_flat_store(self.root)
        self._lock = threading.Lock()
        self._trace_index = None
        self._warm = _WarmTraces()
        if not (self.root / SHARDS_DIR).is_dir():
            (self.root / SHARDS_DIR).mkdir()

    @property
    def index(self):
        """The store's persistent catalog
        (:class:`repro.index.TraceIndex` under ``index.d/``), created
        lazily on first append."""
        if self._trace_index is None:
            from repro.index import TraceIndex
            self._trace_index = TraceIndex(self.root / TRACE_INDEX_DIR)
        return self._trace_index

    # -- layout --------------------------------------------------------------

    def _shard_for(self, key: str) -> _Shard:
        return _Shard.at(self.root / SHARDS_DIR / shard_of(key))

    def _shards(self) -> list[_Shard]:
        """Every shard that exists on disk (list/iteration side)."""
        return [_Shard.at(directory)
                for directory in sorted((self.root / SHARDS_DIR).iterdir())
                if directory.is_dir()]

    # -- write serialisation -------------------------------------------------

    def _tmp_path(self, target: Path) -> Path:
        """A writer-unique sibling temp path for ``target`` (unique
        across processes *and* threads, so concurrent writers never
        clobber each other's in-flight bytes)."""
        return target.with_name(
            f".{target.name}.{os.getpid()}.{next(_TMP_SEQ)}.tmp")

    @contextmanager
    def _locked(self, shard: _Shard):
        """Serialise a shard's index read-modify-write against every
        other writer: the instance lock covers this process's threads,
        and :func:`locked_file` on the shard's sidecar file covers
        other processes (``flock`` where available, the portable
        lockfile protocol elsewhere)."""
        with self._lock:
            shard.directory.mkdir(parents=True, exist_ok=True)
            with locked_file(shard.lock_path):
                yield

    def _atomic_write(self, target: Path, writer) -> None:
        """Run ``writer(tmp_path)`` then atomically publish the file."""
        tmp = self._tmp_path(target)
        try:
            writer(tmp)
            os.replace(tmp, target)
        finally:
            if tmp.exists():
                tmp.unlink()

    # -- index (tags + key<->file mapping) ---------------------------------

    def _read_index(self, shard: _Shard) -> dict:
        path = shard.index_path
        if not path.exists():
            return {"version": INDEX_VERSION, "traces": {}}
        try:
            index = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"corrupt store index {path}: {exc}") from None
        if not isinstance(index, dict) \
                or index.get("version") != INDEX_VERSION:
            raise ValueError(f"unsupported store index: {path}")
        return index

    def _write_index(self, shard: _Shard, index: dict) -> None:
        text = json.dumps(index, indent=1, sort_keys=True) + "\n"
        self._atomic_write(
            shard.index_path,
            lambda tmp: tmp.write_text(text, encoding="utf-8"))

    def _entry_for(self, index: dict, key: str, shard: _Shard) -> dict:
        entry = index["traces"].get(key)
        if entry is not None:
            return entry
        # Sanitisation is lossy ("a/b" and "a__b" share a stem), so a
        # fresh key colliding with another key's file — or with a loose
        # file that belongs to a different key — gets a hash suffix.
        file_name = _stem_for(key) + _SUFFIX
        taken = {e["file"] for e in index["traces"].values()}
        if file_name not in taken:
            on_disk = shard.directory / file_name
            if on_disk.exists() and self._key_of(on_disk) != key:
                taken.add(file_name)
        if file_name in taken:
            digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:8]
            file_name = f"{_stem_for(key)}-{digest}{_SUFFIX}"
        entry = {"file": file_name, "tags": []}
        index["traces"][key] = entry
        return entry

    def _key_of(self, path: Path) -> str | None:
        """The store key a loose trace file carries (None: unreadable)."""
        try:
            header = read_header(path)
        except (ValueError, OSError):
            return None
        return (header.get("metadata", {}).get("store_key")
                or path.name[:-len(_SUFFIX)])

    def _path_for(self, key: str, index: dict | None = None) -> Path:
        shard = self._shard_for(key)
        if index is None:
            index = self._read_index(shard)
        entry = index["traces"].get(key)
        if entry is not None:
            return shard.directory / entry["file"]
        # Unindexed key (loose files, e.g. a store copied without its
        # shard indexes): the stem is only a guess — a colliding key may
        # own that file name, so trust the header's store_key and fall
        # back to scanning for the file that actually carries the key.
        guess = shard.directory / (_stem_for(key) + _SUFFIX)
        if guess.exists() and self._key_of(guess) == key:
            return guess
        for path in sorted(shard.directory.glob("*" + _SUFFIX)):
            if self._key_of(path) == key:
                return path
        return guess

    # -- write side ---------------------------------------------------------

    def save(self, trace: Trace, key: str | None = None,
             tags: tuple[str, ...] = (), *, dedup: bool = False,
             scenario: str | None = None) -> TraceRecord:
        """Serialise ``trace`` under ``key`` (default: its name).

        ``dedup=True`` consults the catalog by content digest first: a
        byte-identical trace already in the store is returned (its tags
        merged with ``tags``) instead of a duplicate file being
        written — the returned record's ``key`` names the existing
        trace, which may differ from the requested one.  ``scenario``
        is catalog metadata (``repro query --scenario``).
        """
        if key is None:
            key = trace.name
        if not key:
            raise ValueError("a store key is required for unnamed traces")
        digest = trace.content_digest()
        if dedup:
            existing = self._dedup_hit(digest)
            if existing is not None:
                return self.tag(existing, *tags) if tags \
                    else self.get(existing)
        threads = len(trace.thread_ids())
        sketch = self._sketch(trace)
        extra = {
            "store_key": key,
            # The strong identity (cache key material, what dedup and
            # the `store diff` hint compare); the cheap fingerprint is
            # kept for provenance only — it collides across traces
            # with equal shape but different content.
            "digest": digest,
            "fingerprint": trace.fingerprint(),
            "threads": threads,
            "sketch": list(sketch),
        }
        if scenario:
            extra["scenario"] = scenario
        # Serialise the (possibly large) trace body *outside* the lock
        # — concurrent writers only serialise on the index RMW and a
        # rename, not on each other's O(trace) JSON dumps.
        shard = self._shard_for(key)
        shard.directory.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(shard.directory / "trace")
        try:
            save_trace(trace, tmp, extra_metadata=extra)
            with self._locked(shard):
                index = self._read_index(shard)
                entry = self._entry_for(index, key, shard)
                entry["tags"] = sorted(set(entry["tags"]) | set(tags))
                os.replace(tmp, shard.directory / entry["file"])
                self._warm.drop(key)
                self._write_index(shard, index)
                now = time.time()
                self._catalog(lambda catalog: catalog.record_save(
                    self._catalog_record(
                        key=key, digest=digest,
                        fingerprint=extra["fingerprint"],
                        entries=len(trace), threads=threads,
                        tags=tuple(entry["tags"]),
                        scenario=scenario or "", sketch=sketch,
                        saved_at=now, updated_at=now)))
        finally:
            if tmp.exists():
                tmp.unlink()
        return self.get(key)

    @staticmethod
    def _sketch(trace: Trace) -> tuple[str, ...]:
        from repro.index import trace_sketch
        return trace_sketch(trace)

    @staticmethod
    def _catalog_record(**fields):
        from repro.index import TraceIndexRecord
        return TraceIndexRecord(**fields)

    def _catalog(self, append) -> None:
        """Run one catalog append; a store whose ``index.d`` cannot be
        written (read-only mount, full disk) still stores traces — the
        catalog just goes stale until the next ``repro index build``."""
        try:
            append(self.index)
        except OSError:  # pragma: no cover - environment-dependent
            pass

    def _dedup_hit(self, digest: str) -> str | None:
        """The key of an existing trace with this content digest (and a
        file still on disk), or None.  Catalog-only: a trace the
        catalog does not hold needs one ``repro index build`` first."""
        for record in self.index.by_digest(digest):
            if record.key in self:
                return record.key
        return None

    def ingest_file(self, source: str | Path, key: str | None = None,
                    tags: tuple[str, ...] = (), *, dedup: bool = False,
                    scenario: str | None = None) -> TraceRecord:
        """Copy an existing trace file into the store (re-serialised,
        so format problems surface at ingest time, not diff time)."""
        source = Path(source)
        trace = load_trace(source)
        return self.save(trace, key=key or trace.name or source.stem,
                         tags=tags, dedup=dedup, scenario=scenario)

    def tag(self, key: str, *tags: str) -> TraceRecord:
        shard = self._shard_for(key)
        with self._locked(shard):
            index = self._read_index(shard)
            if key not in index["traces"]:
                path = self._require(key, index)
                entry = self._entry_for(index, key, shard)
                target = shard.directory / entry["file"]
                if path != target:
                    # Index a loose file under the name its entry got.
                    os.replace(path, target)
            entry = index["traces"][key]
            entry["tags"] = sorted(set(entry["tags"]) | set(tags))
            self._write_index(shard, index)
            self._catalog(lambda catalog: catalog.record_tags(
                key, entry["tags"]))
        return self.get(key)

    def untag(self, key: str, *tags: str) -> TraceRecord:
        shard = self._shard_for(key)
        with self._locked(shard):
            index = self._read_index(shard)
            entry = index["traces"].get(key)
            if entry is not None:
                entry["tags"] = sorted(set(entry["tags"]) - set(tags))
                self._write_index(shard, index)
                self._catalog(lambda catalog: catalog.record_tags(
                    key, entry["tags"]))
        return self.get(key)

    def delete(self, key: str) -> None:
        shard = self._shard_for(key)
        with self._locked(shard):
            index = self._read_index(shard)
            entry = index["traces"].pop(key, None)
            path = (shard.directory / entry["file"]
                    if entry is not None
                    else self._path_for(key, index))
            if path.exists():
                path.unlink()
            self._warm.drop(key)
            self._write_index(shard, index)
            self._catalog(lambda catalog: catalog.record_delete(key))

    # -- read side ----------------------------------------------------------

    def _not_found(self, key: str) -> TraceNotFound:
        return TraceNotFound(f"no trace {key!r} in store {self.root}")

    def _require(self, key: str, index: dict | None = None) -> Path:
        path = self._path_for(key, index)
        if not path.exists():
            raise self._not_found(key)
        return path

    def load(self, key: str) -> Trace:
        """The full trace stored under ``key``.

        While the key's file is unchanged (same path, inode, mtime and
        size), repeat loads on this handle return the *same* trace
        object, so what one diff built — entries, digest, view index —
        serves the next.  Store-loaded traces are shared: treat them
        as immutable.  A file that vanishes at any point reads as
        :class:`TraceNotFound`.
        """
        path = self._path_for(key)
        try:
            trace = self._warm.get(
                key, _file_signature(path, path.stat()))
            if trace is not None:
                return trace
            with path.open("rb") as handle:
                signature = _file_signature(path,
                                            os.fstat(handle.fileno()))
                data = handle.read()
        except FileNotFoundError:
            raise self._not_found(key) from None
        return self._warm.put(key, signature, load_trace(path, data))

    def warm_stats(self) -> dict:
        """Decoded-trace reuse on this handle: ``loads`` (files
        decoded), ``reuses`` (loads answered warm), and the ``traces``
        and file ``bytes`` held."""
        return self._warm.stats()

    def load_key_table(self, key: str) -> KeyTable:
        """Just the interned ``=e`` key table of a stored trace — no
        entry materialisation."""
        _header, table = read_key_table(self._require(key))
        return table

    def _record_for(self, key: str, index: dict) -> TraceRecord:
        path = self._require(key, index)
        header = read_header(path)
        entry = index["traces"].get(key) or {}
        return TraceRecord(
            key=key,
            path=path,
            name=header.get("name", ""),
            entries=header.get("entries", -1),
            tags=tuple(entry.get("tags", ())),
            metadata=header.get("metadata") or {},
        )

    def get(self, key: str) -> TraceRecord:
        """Header + tags for one stored trace (cheap: no entry parse)."""
        return self._record_for(
            key, self._read_index(self._shard_for(key)))

    def _keys(self, shard: _Shard, index: dict) -> list[str]:
        known = dict(index["traces"])
        files_seen = {entry["file"] for entry in known.values()}
        keys = set(known)
        for path in sorted(shard.directory.glob("*" + _SUFFIX)):
            if path.name in files_seen:
                continue
            # Loose file dropped in by another tool; unreadable ones
            # (foreign formats, truncated writes) are skipped so one
            # junk file cannot take down the whole listing.
            key = self._key_of(path)
            if key is not None:
                keys.add(key)
        return sorted(keys)

    def keys(self) -> list[str]:
        """Every stored key: indexed ones plus loose ``.jsonl`` files."""
        keys = set()
        for shard in self._shards():
            keys.update(self._keys(shard, self._read_index(shard)))
        return sorted(keys)

    def records(self, tag: str | None = None) -> list[TraceRecord]:
        """List stored traces, optionally only those carrying ``tag``."""
        records = {}
        for shard in self._shards():
            index = self._read_index(shard)
            for key in self._keys(shard, index):
                if key in records:
                    continue
                try:
                    records[key] = self._record_for(key, index)
                except (KeyError, ValueError, OSError):
                    continue  # deleted or corrupted under the listing
        return [records[key] for key in sorted(records)
                if tag is None or tag in records[key].tags]

    def __contains__(self, key: str) -> bool:
        return self._path_for(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r}, {len(self)} trace(s))"
