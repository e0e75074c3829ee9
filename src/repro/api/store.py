"""Persistent trace store: capture now, diff later.

RPRISM's workflow is offline — traces are captured (and segmented) to
disk while the program runs and analysed afterwards.  A
:class:`TraceStore` is a directory of trace files (binary v3, see
:mod:`repro.analysis.serialize`; legacy v1/v2 text files still read)
addressed by key, with a small sidecar index for tags::

    store = TraceStore("traces/")
    store.save(trace, key="old/regressing", tags=("myfaces", "bad"))
    later = store.load("old/regressing")
    for record in store.records(tag="bad"):
        print(record.key, record.entries)

Keys may contain ``/`` (sessions namespace the four-trace recipe as
``<scenario>/old/regressing`` etc.); they are sanitised to flat file
names on disk.  Trace name and entry counts are always read from the
file headers, so files dropped into the directory by other tools are
picked up; only tags live in the index.

Writes are safe under concurrent writers — threads of one process *and*
separate processes (the execution layer's capture workers persist
traces from wherever they run).  Every file lands via write-to-unique-
temp + ``os.replace`` (readers never observe a half-written trace or
index), and index read-modify-writes are serialised through an advisory
``flock`` on a sidecar lock file where the platform provides one.

Two directory **layouts** share one API:

* **flat** (the legacy default): trace files and ``store.json`` at the
  store root — fine up to a few thousand traces, but every save
  rewrites the whole index.
* **sharded** (``layout="sharded"``, auto-detected thereafter): files
  live under ``shards.d/<hh>/`` where ``hh`` is a digest prefix of the
  *key*, each shard carrying its own ``shard.json`` index and lock —
  key→file resolution stays O(1) and index read-modify-writes touch
  one small shard no matter how many million traces the store holds.
  :meth:`TraceStore.migrate_to_sharded` converts a flat store in
  place; until then (and through a crashed migration) sharded stores
  transparently fall back to flat-root files on lookups and adopt
  them into their shard on the next mutation.

Every save/tag/delete also maintains the store's persistent catalog
(:class:`repro.index.TraceIndex` under ``index.d/``), which is what
``save(dedup=True)`` consults to return an existing record instead of
writing a byte-identical duplicate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.analysis.serialize import (FORMAT_VERSION, load_trace,
                                      read_header, read_key_table,
                                      save_trace)
from repro.core.keytable import KeyTable
from repro.core.traces import Trace

INDEX_NAME = "store.json"
LOCK_NAME = "store.lock"
INDEX_VERSION = 1
_SUFFIX = ".jsonl"

#: Sharded-layout names: trace files under ``shards.d/<hh>/`` with a
#: per-shard index + lock; the sidecar catalog lives in ``index.d``.
SHARDS_DIR = "shards.d"
SHARD_INDEX_NAME = "shard.json"
SHARD_LOCK_NAME = "shard.lock"
SHARD_WIDTH = 2
TRACE_INDEX_DIR = "index.d"

LAYOUTS = ("auto", "flat", "sharded")


def shard_of(key: str, width: int = SHARD_WIDTH) -> str:
    """The shard a key lives in: a hex prefix of the key's digest (so
    resolution needs no index at all, just a hash)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return digest.hexdigest()[:width]

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
    #: Serialisation format version of the file on disk (3 binary, or
    #: legacy 1/2 text; 0 when the header predates format stamping).
    format: int = 0

    def brief(self) -> str:
        tags = f" [{', '.join(self.tags)}]" if self.tags else ""
        return f"{self.key:32} {self.entries:>7} entries{tags}"


@dataclass(frozen=True, slots=True)
class _Shard:
    """One index+lock+directory unit: the whole store in flat layout,
    one ``shards.d/<hh>/`` directory in sharded layout."""

    directory: Path
    index_path: Path
    lock_path: Path


class TraceStore:
    """A directory of serialised traces addressed by key."""

    def __init__(self, root: str | Path, create: bool = True,
                 layout: str = "auto"):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown store layout {layout!r} "
                             f"(expected one of: {', '.join(LAYOUTS)})")
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no trace store at {self.root}")
        self._lock = threading.Lock()
        self._trace_index = None
        detected = (self.root / SHARDS_DIR).is_dir()
        if layout == "flat" and detected:
            raise ValueError(f"{self.root} already uses the sharded "
                             f"layout; open it with layout='auto'")
        self.sharded = detected
        if layout == "sharded" and not detected:
            # Transparent adoption: a fresh directory just gains
            # shards.d, a flat legacy store is migrated in place.
            self.migrate_to_sharded()

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

    def _flat_shard(self) -> _Shard:
        return _Shard(self.root, self.root / INDEX_NAME,
                      self.root / LOCK_NAME)

    def _shard_for(self, key: str) -> _Shard:
        if not self.sharded:
            return self._flat_shard()
        directory = self.root / SHARDS_DIR / shard_of(key)
        return _Shard(directory, directory / SHARD_INDEX_NAME,
                      directory / SHARD_LOCK_NAME)

    def _shards(self) -> list[_Shard]:
        """Every shard that exists on disk (list/iteration side)."""
        if not self.sharded:
            return [self._flat_shard()]
        base = self.root / SHARDS_DIR
        shards = []
        for directory in sorted(p for p in base.iterdir()
                                if p.is_dir()):
            shards.append(_Shard(directory,
                                 directory / SHARD_INDEX_NAME,
                                 directory / SHARD_LOCK_NAME))
        return shards

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
        index = json.loads(path.read_text(encoding="utf-8"))
        if index.get("version") != INDEX_VERSION:
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
        # store.json): the stem is only a guess — a colliding key may
        # own that file name, so trust the header's store_key and fall
        # back to scanning for the file that actually carries the key.
        guess = shard.directory / (_stem_for(key) + _SUFFIX)
        if guess.exists() and self._key_of(guess) == key:
            return guess
        for path in sorted(shard.directory.glob("*" + _SUFFIX)):
            if self._key_of(path) == key:
                return path
        if self.sharded:
            # A flat remnant (mid-migration store): resolve against the
            # legacy root layout before giving up.
            flat = self._flat_path_for(key)
            if flat is not None:
                return flat
        return guess

    def _flat_path_for(self, key: str) -> Path | None:
        """Flat-layout resolution of ``key`` (the transparent fallback
        a sharded store uses for not-yet-migrated files)."""
        flat = self._flat_shard()
        try:
            entry = self._read_index(flat)["traces"].get(key)
        except ValueError:
            entry = None
        if entry is not None and (self.root / entry["file"]).exists():
            return self.root / entry["file"]
        guess = self.root / (_stem_for(key) + _SUFFIX)
        if guess.exists() and self._key_of(guess) == key:
            return guess
        for path in sorted(self.root.glob("*" + _SUFFIX)):
            if self._key_of(path) == key:
                return path
        return None

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
        file still on disk), or None.  Catalog-only: a legacy store
        needs one ``repro index build`` before dedup can see its
        pre-existing traces."""
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
                    # Adopt a loose / flat-remnant file into the shard
                    # the key resolves to (lazy per-key migration).
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
            self._write_index(shard, index)
            self._catalog(lambda catalog: catalog.record_delete(key))

    # -- read side ----------------------------------------------------------

    def _require(self, key: str, index: dict | None = None) -> Path:
        path = self._path_for(key, index)
        if not path.exists():
            raise TraceNotFound(f"no trace {key!r} in store {self.root}")
        return path

    def load(self, key: str) -> Trace:
        """The full trace stored under ``key``."""
        return load_trace(self._require(key))

    def load_key_table(self, key: str) -> KeyTable:
        """Just the interned ``=e`` key table of a stored trace — no
        entry materialisation for v2/v3 files (v1 files are
        streamed)."""
        _header, table = read_key_table(self._require(key))
        return table

    def _record_for(self, key: str, index: dict,
                    shard: _Shard | None = None) -> TraceRecord:
        entry = index["traces"].get(key)
        if shard is not None and entry is not None:
            # The caller knows which directory this index describes
            # (it may be the flat root of a mid-migration store, which
            # is *not* where ``_shard_for`` would place the key).
            path = shard.directory / entry["file"]
            if not path.exists():
                path = self._require(key)
        else:
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
            format=header.get("format", 0),
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

    def _key_sets(self) -> list[tuple[_Shard, list[str]]]:
        """Per-shard key lists; a sharded store also lists its flat
        root (not-yet-migrated remnants) as a trailing pseudo-shard."""
        sets = [(shard, self._keys(shard, self._read_index(shard)))
                for shard in self._shards()]
        if self.sharded:
            flat = self._flat_shard()
            try:
                flat_index = self._read_index(flat)
            except ValueError:
                flat_index = {"version": INDEX_VERSION, "traces": {}}
            sets.append((flat, self._keys(flat, flat_index)))
        return sets

    def keys(self) -> list[str]:
        """Every stored key: indexed ones plus loose ``.jsonl`` files."""
        keys = set()
        for _shard, shard_keys in self._key_sets():
            keys.update(shard_keys)
        return sorted(keys)

    def records(self, tag: str | None = None) -> list[TraceRecord]:
        """List stored traces, optionally only those carrying ``tag``."""
        records, seen = [], set()
        for shard, shard_keys in self._key_sets():
            index = self._read_index(shard)
            for key in shard_keys:
                if key in seen:
                    continue
                seen.add(key)
                try:
                    records.append(self._record_for(key, index, shard))
                except (KeyError, ValueError, OSError):
                    continue  # deleted or corrupted under the listing
        records.sort(key=lambda r: r.key)
        if tag is not None:
            records = [r for r in records if tag in r.tags]
        return records

    def __contains__(self, key: str) -> bool:
        return self._path_for(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r}, {len(self)} trace(s))"

    # -- layout migration ----------------------------------------------------

    def migrate_to_sharded(self) -> int:
        """Convert a flat store to the sharded layout in place; the
        number of trace files moved is returned.

        The whole move runs under the flat root lock, so concurrent
        writers using the flat layout are held off; readers that raced
        past the layout probe still resolve — ``_path_for`` falls back
        to the flat root, and files linger there only if the migration
        crashes, in which case re-running it (or any per-key mutation,
        which adopts remnants lazily) finishes the job.  Idempotent:
        migrating an already-sharded store just sweeps remnants.
        """
        flat = self._flat_shard()
        moved = 0
        with self._lock:
            with locked_file(flat.lock_path):
                try:
                    flat_index = json.loads(
                        flat.index_path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    flat_index = {"traces": {}}
                if flat_index.get("version", INDEX_VERSION) \
                        != INDEX_VERSION:
                    raise ValueError(
                        f"unsupported store index: {flat.index_path}")
                entries = dict(flat_index.get("traces", {}))
                file_to_key = {e["file"]: k for k, e in entries.items()}
                for path in sorted(self.root.glob("*" + _SUFFIX)):
                    key = file_to_key.get(path.name) \
                        or self._key_of(path)
                    if key is None:
                        continue  # unreadable junk stays put
                    if key not in entries:
                        entries[key] = {"file": path.name, "tags": []}
                self.sharded = True
                per_shard: dict[str, dict] = {}
                for key, entry in sorted(entries.items()):
                    source = self.root / entry["file"]
                    if not source.exists():
                        continue
                    shard = self._shard_for(key)
                    shard.directory.mkdir(parents=True, exist_ok=True)
                    index = per_shard.setdefault(
                        shard.directory.name,
                        self._read_index(shard))
                    target = self._entry_for(index, key, shard)
                    target["tags"] = sorted(
                        set(target["tags"]) | set(entry["tags"]))
                    os.replace(source, shard.directory / target["file"])
                    moved += 1
                for name, index in per_shard.items():
                    directory = self.root / SHARDS_DIR / name
                    self._write_index(
                        _Shard(directory,
                               directory / SHARD_INDEX_NAME,
                               directory / SHARD_LOCK_NAME), index)
                # Even an empty migration must leave the marker so the
                # layout survives reopening.
                (self.root / SHARDS_DIR).mkdir(exist_ok=True)
                if flat.index_path.exists():
                    flat.index_path.unlink()
        return moved

    # -- format migration ----------------------------------------------------

    def migrate_format(self) -> dict:
        """Rewrite every legacy text (v1/v2) trace file as binary v3.

        Keys, tags, paths and content digests are all preserved; only
        the file bytes change.  Files already in v3 are left untouched,
        so a second run skips them all.  Returns a summary dict:
        ``{"migrated", "skipped", "failed"}``.
        """
        migrated, skipped, failed = 0, 0, 0
        for record in self.records():
            if record.format == FORMAT_VERSION:
                skipped += 1
                continue
            shard = self._shard_for(record.key)
            try:
                trace = load_trace(record.path)
                tmp = self._tmp_path(record.path)
                try:
                    # Header metadata (store key, digest, provenance)
                    # rides on trace.metadata, so a bare re-save keeps
                    # it verbatim.
                    save_trace(trace, tmp)
                    with self._locked(shard):
                        os.replace(tmp, record.path)
                finally:
                    if tmp.exists():
                        tmp.unlink()
            except (OSError, ValueError, KeyError):
                failed += 1  # unreadable file: left as-is, reported
                continue
            migrated += 1
        return {"migrated": migrated, "skipped": skipped,
                "failed": failed}

    def format_stats(self) -> dict:
        """Per-format census of the store: trace counts and on-disk
        bytes keyed by serialisation version, plus totals — what
        ``repro store stats`` prints."""
        formats: dict[int, dict] = {}
        total_traces, total_bytes = 0, 0
        for record in self.records():
            try:
                size = record.path.stat().st_size
            except OSError:
                continue  # deleted under the listing
            bucket = formats.setdefault(
                record.format, {"traces": 0, "bytes": 0})
            bucket["traces"] += 1
            bucket["bytes"] += size
            total_traces += 1
            total_bytes += size
        return {"formats": {str(v): formats[v]
                            for v in sorted(formats)},
                "traces": total_traces, "bytes": total_bytes}
