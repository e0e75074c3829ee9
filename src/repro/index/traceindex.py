"""The persistent trace catalog: every stored trace, queryable.

A store directory gains an ``index.d/`` sidecar::

    <store>/index.d/
        traces/<hh>.jsonl    # catalog ops, sharded by key digest prefix
        diffs/<hh>.jsonl     # per-diff stat rows, sharded by left digest
        traces/<hh>.jsonl.lock / ...   # advisory append locks

Catalog shards are **append-only op logs**: ``add`` publishes (or
replaces) a record, ``tags`` updates its tag set, ``del`` retires it.
Readers fold a shard's ops in file order — all ops for one key land in
one shard (the shard is a digest prefix of the *key*), so a per-shard
fold is the whole truth for its keys.  Appends serialise through the
same advisory-lock discipline as the store
(:func:`repro.api.store.locked_file`), one lock per shard, so millions
of records never contend on a single file and a writer never rewrites
more than it appends.  Folds are memoised per handle against the
shard file's ``(mtime, size)``, so a polling service re-reads only
shards that actually changed.

Per-diff stats are plain rows (no ops), sharded by the *left content
digest* prefix: ``record_diff`` appends as diffs run, and
:meth:`TraceIndex.diff_stats` filters by digest prefix / engine /
time without touching any trace file.

Similarity ("find traces similar to X") rests on a **min-hash
sketch**: the :data:`SKETCH_SIZE` smallest hashes over the trace's
*unique* ``=e`` keys (a key that occurs once in each of two traces
pins down one unambiguous match between them), so sketch overlap
estimates how much of that material two traces share without loading
either.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.api.store import locked_file

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.store import TraceStore
    from repro.core.traces import Trace

#: Size of the unique-key min-hash sketch carried per record.
SKETCH_SIZE = 64

#: Hex chars of the digest prefix naming a shard file (256 shards).
SHARD_WIDTH = 2

TRACES_DIR = "traces"
DIFFS_DIR = "diffs"
_SUFFIX = ".jsonl"
_LOCK_SUFFIX = ".jsonl.lock"


def _key_shard(key: str) -> str:
    """Catalog shard of a store key (digest prefix of the key)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return digest.hexdigest()[:SHARD_WIDTH]


def _hash_key(key) -> str:
    """A stable 64-bit hex hash of one ``=e`` key (nested tuples of
    primitives: their repr is deterministic across processes)."""
    return hashlib.blake2b(repr(key).encode("utf-8", "replace"),
                           digest_size=8).hexdigest()


def trace_sketch(trace: "Trace", size: int = SKETCH_SIZE
                 ) -> tuple[str, ...]:
    """The min-hash sketch of a trace's unique ``=e`` keys.

    Unique keys are the trace's unambiguous match material (see the
    module docstring); keeping the ``size`` smallest of their hashes is
    the classic bottom-k sketch, so two sketches' overlap estimates the
    Jaccard similarity of the underlying key sets.  Uses the interned
    id column when the trace carries one (no key construction at all).
    """
    if trace.key_ids is not None and trace.key_table is not None:
        counts: dict = {}
        for kid in trace.key_ids:
            counts[kid] = counts.get(kid, 0) + 1
        unique = [trace.key_table.key_of(kid)
                  for kid, n in counts.items() if n == 1]
    else:
        counts = {}
        for entry in trace.entries:
            key = entry.key()
            counts[key] = counts.get(key, 0) + 1
        unique = [key for key, n in counts.items() if n == 1]
    hashes = sorted(_hash_key(key) for key in unique)
    return tuple(hashes[:size])


def sketch_overlap(left: Iterable[str], right: Iterable[str],
                   size: int = SKETCH_SIZE) -> float:
    """Bottom-k Jaccard estimate between two sketches, in [0, 1]."""
    left_set, right_set = set(left), set(right)
    k = min(size, max(len(left_set), len(right_set)))
    if k == 0:
        return 0.0
    merged = sorted(left_set | right_set)[:k]
    hits = sum(1 for h in merged if h in left_set and h in right_set)
    return hits / k


def _parse_since(since) -> float | None:
    """``since`` filters accept an epoch number or an ISO-8601 text."""
    if since is None:
        return None
    if isinstance(since, (int, float)):
        return float(since)
    text = str(since).strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        pass
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        moment = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable --since value {since!r} "
                         f"(epoch seconds or ISO-8601)")
    if moment.tzinfo is None:
        moment = moment.astimezone()
    return moment.timestamp()


@dataclass(frozen=True, slots=True)
class TraceIndexRecord:
    """One catalog line: everything queries may read about a trace."""

    key: str
    digest: str
    fingerprint: str
    entries: int
    threads: int
    tags: tuple[str, ...] = ()
    scenario: str = ""
    sketch: tuple[str, ...] = ()
    saved_at: float = 0.0
    updated_at: float = 0.0

    def to_json(self) -> dict:
        return {
            "key": self.key, "digest": self.digest,
            "fingerprint": self.fingerprint, "entries": self.entries,
            "threads": self.threads, "tags": sorted(self.tags),
            "scenario": self.scenario, "sketch": list(self.sketch),
            "saved_at": self.saved_at, "updated_at": self.updated_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceIndexRecord":
        return cls(
            key=data["key"], digest=data.get("digest", ""),
            fingerprint=data.get("fingerprint", ""),
            entries=int(data.get("entries", -1)),
            threads=int(data.get("threads", 0)),
            tags=tuple(data.get("tags", ())),
            scenario=data.get("scenario", ""),
            sketch=tuple(data.get("sketch", ())),
            saved_at=float(data.get("saved_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
        )

    def brief(self) -> str:
        tags = f" [{', '.join(self.tags)}]" if self.tags else ""
        scenario = f" scenario={self.scenario}" if self.scenario else ""
        return (f"{self.key:32} {self.digest[:12]}  "
                f"{self.entries:>7} entries/{self.threads} thread(s)"
                f"{scenario}{tags}")


@dataclass(frozen=True, slots=True)
class DiffStat:
    """One appended per-diff stat row."""

    left: str
    right: str
    engine: str
    num_diffs: int = 0
    sequences: int = 0
    compares: int = 0
    seconds: float = 0.0
    cached: bool = False
    at: float = 0.0

    def to_json(self) -> dict:
        return {"left": self.left, "right": self.right,
                "engine": self.engine, "num_diffs": self.num_diffs,
                "sequences": self.sequences, "compares": self.compares,
                "seconds": self.seconds, "cached": self.cached,
                "at": self.at}

    @classmethod
    def from_json(cls, data: dict) -> "DiffStat":
        return cls(left=data.get("left", ""), right=data.get("right", ""),
                   engine=data.get("engine", ""),
                   num_diffs=int(data.get("num_diffs", 0)),
                   sequences=int(data.get("sequences", 0)),
                   compares=int(data.get("compares", 0)),
                   seconds=float(data.get("seconds", 0.0)),
                   cached=bool(data.get("cached", False)),
                   at=float(data.get("at", 0.0)))


@dataclass(slots=True)
class IndexStats:
    """Footprint snapshot of one catalog directory."""

    records: int = 0
    diff_rows: int = 0
    trace_shards: int = 0
    diff_shards: int = 0
    bytes: int = 0
    path: str = ""

    def render(self) -> str:
        return "\n".join([
            f"trace index at {self.path}",
            f"  records: {self.records} in {self.trace_shards} shard(s)",
            f"  diffs:   {self.diff_rows} row(s) in "
            f"{self.diff_shards} shard(s)",
            f"  bytes:   {self.bytes}",
        ])


class TraceIndex:
    """The queryable catalog under one ``index.d`` directory.

    Handles are cheap and safe to share: appends serialise through
    per-shard advisory file locks (multi-process safe), folds are
    memoised per handle and invalidated by shard file stats.  Nothing
    is created on disk until the first append.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self._lock = threading.Lock()
        #: shard file name -> ((mtime_ns, size), folded records)
        self._folded: dict[str, tuple[tuple, dict]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceIndex({str(self.root)!r})"

    @classmethod
    def for_store(cls, store: "TraceStore") -> "TraceIndex":
        return store.index

    # -- append side ---------------------------------------------------------

    def _shard_path(self, directory: str, shard: str) -> Path:
        return self.root / directory / (shard + _SUFFIX)

    def _append(self, directory: str, shard: str, payload: dict) -> None:
        path = self._shard_path(directory, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            with locked_file(path.with_name(path.stem + _LOCK_SUFFIX)):
                with path.open("a", encoding="utf-8") as handle:
                    handle.write(line)

    def record_save(self, record: TraceIndexRecord) -> None:
        """Publish (or replace) one trace's catalog record."""
        op = record.to_json()
        op["op"] = "add"
        self._append(TRACES_DIR, _key_shard(record.key), op)

    def record_tags(self, key: str, tags: Iterable[str]) -> None:
        """Update a record's tag set (no-op at fold time for keys the
        catalog does not know)."""
        self._append(TRACES_DIR, _key_shard(key),
                     {"op": "tags", "key": key, "tags": sorted(tags),
                      "at": time.time()})

    def record_delete(self, key: str) -> None:
        """Retire a record."""
        self._append(TRACES_DIR, _key_shard(key),
                     {"op": "del", "key": key, "at": time.time()})

    def record_diff(self, left_digest: str, right_digest: str,
                    engine: str, *, num_diffs: int = 0,
                    sequences: int = 0, compares: int = 0,
                    seconds: float = 0.0, cached: bool = False) -> None:
        """Append one per-diff stat row (sharded by left digest)."""
        stat = DiffStat(left=left_digest, right=right_digest,
                        engine=engine, num_diffs=num_diffs,
                        sequences=sequences, compares=compares,
                        seconds=seconds, cached=cached, at=time.time())
        shard = (left_digest or "0" * SHARD_WIDTH)[:SHARD_WIDTH]
        self._append(DIFFS_DIR, shard, stat.to_json())

    # -- read side -----------------------------------------------------------

    def _shard_files(self, directory: str) -> list[Path]:
        base = self.root / directory
        if not base.is_dir():
            return []
        return sorted(p for p in base.glob("*" + _SUFFIX)
                      if not p.name.startswith("."))

    def _fold_shard(self, path: Path) -> dict[str, TraceIndexRecord]:
        """Records alive in one shard (op log folded in file order)."""
        try:
            stat = path.stat()
        except OSError:
            return {}
        signature = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            cached = self._folded.get(path.name)
            if cached is not None and cached[0] == signature:
                return cached[1]
        records = self._fold_lines(path)
        with self._lock:
            self._folded[path.name] = (signature, records)
        return records

    @staticmethod
    def _fold_lines(path: Path) -> dict[str, TraceIndexRecord]:
        """The raw op fold of one shard file (no memoisation, no
        locking — callers bring their own)."""
        records: dict[str, TraceIndexRecord] = {}
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                op = json.loads(line)
            except ValueError:
                continue  # torn trailing line: whole-line appends only
            if not isinstance(op, dict) or not op.get("key"):
                continue
            kind = op.get("op")
            key = op["key"]
            if kind == "add":
                try:
                    records[key] = TraceIndexRecord.from_json(op)
                except (KeyError, TypeError, ValueError):
                    continue
            elif kind == "tags" and key in records:
                records[key] = replace(
                    records[key], tags=tuple(op.get("tags", ())),
                    updated_at=float(op.get("at", 0.0)))
            elif kind == "del":
                records.pop(key, None)
        return records

    def records(self) -> list[TraceIndexRecord]:
        """Every live catalog record, newest-updated first."""
        merged: list[TraceIndexRecord] = []
        for path in self._shard_files(TRACES_DIR):
            merged.extend(self._fold_shard(path).values())
        merged.sort(key=lambda r: (-r.updated_at, r.key))
        return merged

    def get(self, key: str) -> TraceIndexRecord | None:
        """The record for one store key (one shard fold, not a scan)."""
        path = self._shard_path(TRACES_DIR, _key_shard(key))
        return self._fold_shard(path).get(key)

    def __len__(self) -> int:
        return sum(len(self._fold_shard(p))
                   for p in self._shard_files(TRACES_DIR))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def by_digest(self, digest: str) -> list[TraceIndexRecord]:
        """Records whose content digest equals ``digest`` (dedup's
        lookup), newest first."""
        return [r for r in self.records() if r.digest == digest]

    def query(self, *, tags: "str | Iterable[str] | None" = None,
              scenario: str | None = None,
              digest_prefix: str | None = None,
              key_prefix: str | None = None,
              since=None,
              limit: int | None = None) -> list[TraceIndexRecord]:
        """Catalog lookups, index-only by construction.

        ``tags`` (one or many — all must be carried), ``scenario``
        (exact), ``digest_prefix`` / ``key_prefix`` (prefix match), and
        ``since`` (epoch seconds or ISO-8601; keeps records updated at
        or after the moment) conjoin; results come newest-updated
        first, truncated to ``limit``.
        """
        wanted = ((tags,) if isinstance(tags, str)
                  else tuple(tags or ()))
        horizon = _parse_since(since)
        out = []
        for record in self.records():
            if wanted and not set(wanted) <= set(record.tags):
                continue
            if scenario is not None and record.scenario != scenario:
                continue
            if digest_prefix and not record.digest.startswith(
                    digest_prefix):
                continue
            if key_prefix and not record.key.startswith(key_prefix):
                continue
            if horizon is not None and record.updated_at < horizon:
                continue
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out

    def newest_with_tag(self, tag: str,
                        exclude_key: str | None = None
                        ) -> TraceIndexRecord | None:
        """The most recently updated record carrying ``tag`` (the
        diff-against-latest-baseline resolution)."""
        for record in self.query(tags=tag):
            if record.key != exclude_key:
                return record
        return None

    def similar(self, probe, *, limit: int = 10
                ) -> list[tuple[float, TraceIndexRecord]]:
        """Records most similar to ``probe`` (a store key, a catalog
        record, or a :class:`~repro.core.traces.Trace`), scored
        descending.

        Score = the sketches' bottom-k Jaccard estimate, plus 1.0 for
        an identical content digest and 0.5 for an identical shape
        fingerprint — so exact duplicates rank first, shape twins
        next, then unique-key overlap.
        """
        digest = fingerprint = ""
        exclude = None
        if isinstance(probe, str):
            record = self.get(probe)
            if record is None:
                raise KeyError(f"no indexed trace {probe!r}")
            probe = record
        if isinstance(probe, TraceIndexRecord):
            sketch, digest = set(probe.sketch), probe.digest
            fingerprint, exclude = probe.fingerprint, probe.key
        else:  # a Trace
            sketch = set(trace_sketch(probe))
            digest = probe.content_digest()
            fingerprint = probe.fingerprint()
        scored = []
        for record in self.records():
            if record.key == exclude:
                continue
            score = sketch_overlap(sketch, record.sketch)
            if digest and record.digest == digest:
                score += 1.0
            elif fingerprint and record.fingerprint == fingerprint:
                score += 0.5
            if score > 0.0:
                scored.append((score, record))
        scored.sort(key=lambda pair: (-pair[0], pair[1].key))
        return scored[:limit]

    def diff_stats(self, *, digest_prefix: str | None = None,
                   engine: str | None = None, since=None,
                   limit: int | None = None) -> list[DiffStat]:
        """Appended per-diff stat rows, newest first.  With a
        ``digest_prefix`` of at least the shard width only that shard
        file is read."""
        horizon = _parse_since(since)
        paths = self._shard_files(DIFFS_DIR)
        if digest_prefix and len(digest_prefix) >= SHARD_WIDTH:
            wanted = digest_prefix[:SHARD_WIDTH] + _SUFFIX
            paths = [p for p in paths if p.name == wanted]
        rows = []
        for path in paths:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(data, dict):
                    continue
                stat = DiffStat.from_json(data)
                if digest_prefix and not stat.left.startswith(
                        digest_prefix):
                    continue
                if engine is not None and stat.engine != engine:
                    continue
                if horizon is not None and stat.at < horizon:
                    continue
                rows.append(stat)
        rows.sort(key=lambda s: -s.at)
        if limit is not None:
            rows = rows[:limit]
        return rows

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> IndexStats:
        trace_files = self._shard_files(TRACES_DIR)
        diff_files = self._shard_files(DIFFS_DIR)
        size = 0
        for path in trace_files + diff_files:
            try:
                size += path.stat().st_size
            except OSError:
                continue
        return IndexStats(records=len(self),
                          diff_rows=len(self.diff_stats()),
                          trace_shards=len(trace_files),
                          diff_shards=len(diff_files),
                          bytes=size, path=str(self.root))

    def _replace_catalog(self,
                         records: Iterable[TraceIndexRecord]) -> None:
        """Atomically rewrite the whole catalog (rebuild/compact):
        each shard file is replaced under its own lock, shards with no
        surviving records are removed."""
        per_shard: dict[str, list[TraceIndexRecord]] = {}
        for record in records:
            per_shard.setdefault(_key_shard(record.key),
                                 []).append(record)
        (self.root / TRACES_DIR).mkdir(parents=True, exist_ok=True)
        live = set()
        for shard, shard_records in sorted(per_shard.items()):
            path = self._shard_path(TRACES_DIR, shard)
            live.add(path.name)
            lines = []
            for record in sorted(shard_records, key=lambda r: r.key):
                op = record.to_json()
                op["op"] = "add"
                lines.append(json.dumps(op, sort_keys=True,
                                        separators=(",", ":")))
            text = "\n".join(lines) + "\n" if lines else ""
            with self._lock:
                with locked_file(path.with_name(path.stem
                                                + _LOCK_SUFFIX)):
                    tmp = path.with_name(
                        f".{path.name}.{os.getpid()}.tmp")
                    tmp.write_text(text, encoding="utf-8")
                    os.replace(tmp, path)
        for path in self._shard_files(TRACES_DIR):
            if path.name not in live:
                with self._lock:
                    with locked_file(path.with_name(path.stem
                                                    + _LOCK_SUFFIX)):
                        try:
                            path.unlink()
                        except OSError:
                            pass
        with self._lock:
            self._folded.clear()

    def rebuild(self, store: "TraceStore") -> int:
        """Rebuild the catalog by scanning the store's trace files.

        The backfill path for legacy stores (and the recovery path for
        a lost ``index.d``): headers written by this version carry
        digest/fingerprint/threads/sketch, so the scan is header-only;
        older files are fully loaded once to compute them.
        """
        now = time.time()
        records = []
        for stored in store.records():
            meta = stored.metadata or {}
            digest = meta.get("digest", "")
            fingerprint = meta.get("fingerprint", "")
            threads = meta.get("threads")
            sketch = meta.get("sketch")
            if not digest or threads is None or sketch is None:
                trace = store.load(stored.key)
                digest = trace.content_digest()
                fingerprint = trace.fingerprint()
                threads = len(trace.thread_ids())
                sketch = trace_sketch(trace)
            try:
                saved_at = stored.path.stat().st_mtime
            except OSError:
                saved_at = now
            records.append(TraceIndexRecord(
                key=stored.key, digest=digest, fingerprint=fingerprint,
                entries=stored.entries, threads=int(threads),
                tags=tuple(stored.tags),
                scenario=meta.get("scenario", ""),
                sketch=tuple(sketch), saved_at=saved_at,
                updated_at=saved_at))
        self._replace_catalog(records)
        return len(records)

    def compact(self) -> int:
        """Fold every op log down to one ``add`` line per live record;
        returns the number of surviving records.

        Safe against concurrent appenders: each shard is re-folded
        *inside* its own lock before the rewrite, so an op appended
        while other shards compacted is never lost (the global-snapshot
        variant would rewrite from stale state)."""
        total = 0
        for path in self._shard_files(TRACES_DIR):
            lock = path.with_name(path.stem + _LOCK_SUFFIX)
            with locked_file(lock):
                records = self._fold_lines(path)
                lines = []
                for record in sorted(records.values(),
                                     key=lambda r: r.key):
                    op = record.to_json()
                    op["op"] = "add"
                    lines.append(json.dumps(op, sort_keys=True,
                                            separators=(",", ":")))
                if lines:
                    tmp = path.with_name(
                        f".{path.name}.{os.getpid()}.tmp")
                    tmp.write_text("\n".join(lines) + "\n",
                                   encoding="utf-8")
                    os.replace(tmp, path)
                else:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            with self._lock:
                self._folded.pop(path.name, None)
            total += len(records)
        return total

    def clear(self) -> int:
        """Drop the whole catalog (diff stats included)."""
        removed = 0
        for directory in (TRACES_DIR, DIFFS_DIR):
            for path in self._shard_files(directory):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        with self._lock:
            self._folded.clear()
        return removed
