"""Content-addressed memoisation of trace diffs.

The paper's premise is that ``=e`` equivalence makes trace comparison
cheap and *repeatable*: the same trace pair, diffed with the same
engine and configuration, always produces the same result.  This module
turns that determinism into throughput — a :class:`DiffCache` memoises
:class:`~repro.core.diffs.DiffResult`\\ s keyed by

``(KEY_FORMAT, content_digest(left), content_digest(right), engine
name, canonicalised ViewDiffConfig)``

with two tiers:

* an **in-memory LRU**: each entry keeps its wire dict and the
  result it last handed out, with the two trace objects that result
  was built over.  A repeat hit on those very objects returns the held
  result; any other pair of trace objects (a fresh store handle, a
  reload) rehydrates the wire against the *caller's* traces, so a
  hit's sequences always reference the entries the caller holds.  At
  most ``max_memory_entries`` results and their traces are pinned.
  Returned hits are shared and must be treated as immutable, like
  store-loaded traces.  And
* an optional **persistent disk tier**: one JSON file per entry at
  ``<path>/<hh>/<key>.json`` (``hh`` = the key's first two hex chars,
  so a million-entry cache never piles up one directory), the path
  conventionally ``<trace store>/diffcache`` (atomic write-to-temp +
  ``os.replace``; prune/clear serialise through the store layer's
  :func:`~repro.api.store.locked_file` discipline).  Entries that
  older caches wrote at the directory root are misses; ``stats``,
  ``prune`` and ``clear`` still count them, so they age out.  Entries
  keyed under an older :data:`KEY_FORMAT` are misses too.
  A truncated or hand-edited entry reads as a *miss*, never an error.

Correctness rests on two contracts, both documented at their homes:

* :meth:`Trace.content_digest` covers everything the differencing
  semantics can read from an entry (not just the ``=e`` key — the
  cheap shape :meth:`Trace.fingerprint` collides exactly where a cache
  must not), and traces are immutable by convention, so a digest is
  computed once per trace object.
* Engines must *opt in* via a truthy ``cacheable`` attribute
  (:func:`repro.api.engines.is_cacheable`): the built-ins are pure
  functions of (traces, config), third-party engines are assumed
  stateful until they say otherwise.

Thread safety: one lock guards the memory tier and the counters, disk
writes are atomic, so one handle may be shared by every scenario of a
batch and every worker of the service; separate processes sharing a
directory meet through the disk tier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

from repro.core.diffs import DiffResult, result_from_wire, result_to_wire
from repro.core.keytable import KeyTable
from repro.core.lcs import OpCounter
from repro.core.traces import Trace
from repro.core.view_diff import ViewDiffConfig

#: Default capacity of the in-memory LRU tier.
DEFAULT_MEMORY_ENTRIES = 256

#: Suffix of on-disk cache entries.
ENTRY_SUFFIX = ".json"

#: Sidecar lock serialising prune/clear against concurrent writers.
CACHE_LOCK_NAME = "cache.lock"

#: Per-process uniquifier for temp entry files (pid alone is not
#: enough: one process may write from several threads).
_TMP_SEQ = count()

#: Version of what a key's result means.  It is part of every key, so
#: entries written under an older meaning read as misses and are
#: recomputed.  Format 2: ``optimized`` returns an exact LCS above its
#: DP cell limit (format-1 caches may hold a shorter one).
KEY_FORMAT = "2"


def canonical_config(config: ViewDiffConfig | None) -> str:
    """A :class:`ViewDiffConfig` as canonical, order-stable text.

    ``None`` (engine default) and an explicit default-constructed
    config canonicalise identically; every semantic field participates
    — the cache never guesses which knobs an engine actually reads, so
    a changed knob is a changed key (a conservative miss, never a
    wrong hit).
    """
    if config is None:
        config = ViewDiffConfig()
    plain = dataclasses.asdict(config)
    plain["view_types"] = [vt.name for vt in config.view_types]
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))


def cache_key(left: Trace, right: Trace, engine_name: str,
              config: ViewDiffConfig | None) -> str:
    """The composite content-addressed key of one diff."""
    blob = "|".join((KEY_FORMAT, left.content_digest(),
                     right.content_digest(), engine_name,
                     canonical_config(config)))
    return hashlib.blake2b(blob.encode("utf-8"),
                           digest_size=16).hexdigest()


@dataclass(slots=True)
class CacheStats:
    """One snapshot of a :class:`DiffCache`'s counters and footprint."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    memory_entries: int = 0
    memory_capacity: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    path: str = ""

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def render(self) -> str:
        where = self.path or "(memory only)"
        lines = [f"diff cache at {where}"]
        if self.path:
            lines.append(f"  disk:    {self.disk_entries} entr(ies), "
                         f"{self.disk_bytes} bytes")
        lines.append(f"  memory:  {self.memory_entries}/"
                     f"{self.memory_capacity} entr(ies)")
        # Counters are per-handle; a fresh handle (the CLI) has none.
        if self.hits or self.misses or self.stores:
            lines.append(f"  hits:    {self.hits} ({self.hits_memory} "
                         f"memory, {self.hits_disk} disk)")
            lines.append(f"  misses:  {self.misses}")
            lines.append(f"  stores:  {self.stores}")
        return "\n".join(lines)


class _Entry:
    """One memory-tier entry: the wire, the result last handed out for
    it (``None`` until one is), and scratch space for values derived
    from that result (see :meth:`DiffCache.memo`)."""

    __slots__ = ("wire", "result", "memo")

    def __init__(self, wire: dict, result: DiffResult | None = None):
        self.wire = wire
        self.result = result
        self.memo: dict = {}


class DiffCache:
    """Two-tier memoisation of diff results (see module docstring).

    ``path=None`` keeps the cache purely in memory; a path adds the
    persistent tier (the directory is created on first use).
    """

    def __init__(self, path: "str | Path | None" = None, *,
                 max_memory_entries: int = DEFAULT_MEMORY_ENTRIES):
        self.path = None if path is None else Path(path)
        self.max_memory_entries = max(1, max_memory_entries)
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits_memory = 0
        self._hits_disk = 0
        self._misses = 0
        self._stores = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "memory"
        return f"DiffCache({where!r}, {len(self._memory)} hot entr(ies))"

    @property
    def hits(self) -> int:
        """Lifetime hit count of this handle (both tiers) — cheap, no
        disk scan.  It is shared by every thread using the handle, so a
        delta around one lookup does not say whether that lookup hit
        (:attr:`CacheCall.hit` does)."""
        with self._lock:
            return self._hits_memory + self._hits_disk

    # -- keys ----------------------------------------------------------------

    def key_for(self, left: Trace, right: Trace, engine_name: str,
                config: ViewDiffConfig | None) -> str:
        return cache_key(left, right, engine_name, config)

    # -- lookup --------------------------------------------------------------

    def get(self, key: str, left: Trace, right: Trace) -> DiffResult | None:
        """The cached result under ``key`` over the caller's traces;
        ``None`` on a miss (including corrupt or version-skewed disk
        entries).

        When the memory entry holds a result built over these very
        ``left``/``right`` objects, that result is returned as is: a
        dictionary lookup, shared with every earlier caller.  Otherwise
        the wire is rehydrated over the caller's traces and the new
        result replaces the held one.

        A stored wire that does not fit the caller's traces
        (``result_from_wire`` raises ``ValueError``) is a counted miss —
        digest collision or tampered entry, never an error and never a
        corrupt result — and the entry is dropped from the memory
        tier.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                held = entry.result
                if held is not None and held.left is left \
                        and held.right is right:
                    self._hits_memory += 1
                    return held
        wire = entry.wire if entry is not None else self._disk_read(key)
        if wire is None:
            with self._lock:
                self._misses += 1
            return None
        try:
            result = result_from_wire(wire.get("result"), left, right)
        except ValueError:
            with self._lock:
                self._memory.pop(key, None)
                self._misses += 1
            return None
        with self._lock:
            if entry is not None:
                self._hits_memory += 1
                entry.result, entry.memo = result, {}
            else:
                self._hits_disk += 1
                self._remember(key, _Entry(wire, result))
        return result

    def memo(self, key: str, result: DiffResult) -> dict | None:
        """Scratch space for values derived from ``result`` (the
        service keeps its signature text here): the dict of the memory
        entry under ``key`` while that entry holds ``result``, else
        ``None``.  It leaves with the entry, and a rehydration that
        replaces the held result starts a fresh one."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is None or entry.result is not result:
                return None
            return entry.memo

    # -- store ---------------------------------------------------------------

    def put(self, key: str, result: DiffResult,
            counter_totals: "tuple[int, int] | None" = None) -> None:
        """Memoise ``result`` under ``key`` in both tiers.

        ``counter_totals`` is this diff's own ``(compares, charged)``
        cost when ``result.counter`` is a caller's shared accumulator
        (see :func:`~repro.core.diffs.result_to_wire`); the memory tier
        then holds a copy of ``result`` carrying those totals, so later
        bumps of the accumulator never reach a hit."""
        held = result
        if counter_totals is not None:
            held = dataclasses.replace(
                result, counter=OpCounter(compares=counter_totals[0],
                                          charged=counter_totals[1]))
        self._store(key, result_to_wire(result,
                                        counter_totals=counter_totals),
                    result.algorithm, held)

    def put_wire(self, key: str, result_wire: dict,
                 engine: str = "") -> None:
        """Memoise an already-encoded result wire under ``key`` (the
        wire-level twin of :meth:`put`; the first hit rehydrates it)."""
        self._store(key, result_wire, engine, None)

    def _store(self, key: str, result_wire: dict, engine: str,
               held: DiffResult | None) -> None:
        wire = {
            "key": key,
            "engine": engine,
            "created": time.time(),
            "result": result_wire,
        }
        with self._lock:
            self._remember(key, _Entry(wire, held))
            self._stores += 1
        self._disk_write(key, wire)

    def _remember(self, key: str, entry: _Entry) -> None:
        """Insert into the LRU (caller holds the lock)."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # -- disk tier -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.path / key[:2] / (key + ENTRY_SUFFIX)

    def _disk_read(self, key: str) -> dict | None:
        if self.path is None:
            return None
        try:
            wire = json.loads(
                self._entry_path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # absent, truncated, or garbled: a plain miss
        if not isinstance(wire, dict) or wire.get("key") != key:
            return None
        return wire

    def _disk_write(self, key: str, wire: dict) -> None:
        """Best-effort persist: a cache that cannot write (read-only
        store directory, full disk) must never fail a diff that already
        computed — the entry just stays memory-only."""
        if self.path is None:
            return
        try:
            target = self._entry_path(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(
                f".{target.name}.{os.getpid()}.{next(_TMP_SEQ)}.tmp")
            try:
                tmp.write_text(json.dumps(wire, sort_keys=True) + "\n",
                               encoding="utf-8")
                os.replace(tmp, target)
            finally:
                if tmp.exists():
                    tmp.unlink()
        except OSError:
            pass

    def _disk_entries(self) -> list[Path]:
        """Every entry file: the ``<hh>/`` shards plus any root
        entries left by older caches (never read, but counted and
        removed by maintenance so they age out)."""
        if self.path is None or not self.path.is_dir():
            return []
        return sorted(
            p for pattern in ("*", "[0-9a-f][0-9a-f]/*")
            for p in self.path.glob(pattern + ENTRY_SUFFIX)
            if not p.name.startswith("."))

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Counters (this handle) plus disk footprint (shared)."""
        entries = self._disk_entries()
        disk_bytes = 0
        for path in entries:
            try:
                disk_bytes += path.stat().st_size
            except OSError:  # pruned underneath the scan
                continue
        with self._lock:
            return CacheStats(
                hits_memory=self._hits_memory,
                hits_disk=self._hits_disk,
                misses=self._misses,
                stores=self._stores,
                memory_entries=len(self._memory),
                memory_capacity=self.max_memory_entries,
                disk_entries=len(entries),
                disk_bytes=disk_bytes,
                path="" if self.path is None else str(self.path),
            )

    def _maintenance_lock(self):
        from repro.api.store import locked_file
        self.path.mkdir(parents=True, exist_ok=True)
        return locked_file(self.path / CACHE_LOCK_NAME)

    def prune(self, max_entries: int | None = None,
              max_age_seconds: float | None = None) -> int:
        """Drop disk entries beyond ``max_entries`` (oldest first by
        mtime) and/or older than ``max_age_seconds``; returns how many
        were removed.  The memory tier is cleared too so a pruned entry
        cannot be resurrected from it."""
        if self.path is None:
            with self._lock:
                removed = len(self._memory)
                self._memory.clear()
            return removed
        removed = 0
        with self._maintenance_lock():
            entries = [(path, path.stat().st_mtime)
                       for path in self._disk_entries()]
            entries.sort(key=lambda item: item[1])  # oldest first
            doomed = []
            if max_age_seconds is not None:
                horizon = time.time() - max_age_seconds
                doomed.extend(p for p, mtime in entries if mtime < horizon)
            if max_entries is not None:
                aged_out = set(doomed)
                survivors = [p for p, _ in entries if p not in aged_out]
                if len(survivors) > max_entries:
                    doomed.extend(
                        survivors[:len(survivors) - max_entries])
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        with self._lock:
            self._memory.clear()
        return removed

    def clear(self) -> int:
        """Remove every entry from both tiers; returns the number of
        disk entries removed."""
        removed = 0
        if self.path is not None and self.path.is_dir():
            with self._maintenance_lock():
                for path in self._disk_entries():
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
        with self._lock:
            self._memory.clear()
        return removed


class CacheCall:
    """One diff's window on a :class:`DiffCache`.

    :func:`cached_engine_diff` takes it in place of the cache: it passes
    ``key_for``/``get``/``put`` through and remembers the key and
    whether the cache answered *this* call.  The handle's hit counters
    are shared by every thread using it, so a delta of them cannot say
    that.  ``key`` stays ``None`` when the call bypassed the cache
    (a budget, or an engine that is not cacheable).
    """

    __slots__ = ("cache", "key", "hit")

    def __init__(self, cache: DiffCache):
        self.cache = cache
        self.key: str | None = None
        self.hit = False

    def key_for(self, left: Trace, right: Trace, engine_name: str,
                config: ViewDiffConfig | None) -> str:
        self.key = self.cache.key_for(left, right, engine_name, config)
        return self.key

    def get(self, key: str, left: Trace, right: Trace) -> DiffResult | None:
        result = self.cache.get(key, left, right)
        self.hit = result is not None
        return result

    def put(self, key: str, result: DiffResult,
            counter_totals: "tuple[int, int] | None" = None) -> None:
        self.cache.put(key, result, counter_totals=counter_totals)

    def memo(self, result: DiffResult) -> dict | None:
        """:meth:`DiffCache.memo` under this call's key."""
        if self.key is None:
            return None
        return self.cache.memo(self.key, result)


def cached_engine_diff(cache: "DiffCache | CacheCall | None", engine,
                       left: Trace, right: Trace, *, config=None,
                       counter=None, budget=None,
                       key_table=None) -> DiffResult:
    """Run ``engine.diff`` through ``cache``.

    The one choke point every driver (``Session.diff``, the workload
    harness, the CLI) routes through: consult the cache before any
    planning, compute-and-store on a miss, and bypass caching entirely
    when there is no cache or the engine does not advertise
    ``cacheable``.  Calls carrying a ``budget`` also bypass the cache:
    a budget changes observable behaviour (``LcsMemoryError``, peak
    cells) without being part of the configuration key, and its
    high-water accumulator must reflect work actually done — serving a
    generous run's result under a tight budget would mask the paper's
    out-of-memory failure.  On a hit a caller-supplied ``counter`` is
    credited with the cold run's totals, so batch aggregates (the
    paper's compare-count metric) stay identical between cold and warm
    runs.

    The engine is called with all four keywords of the
    :class:`~repro.api.engines.DiffEngine` protocol.  Under an interned
    config (the default) a call given no ``key_table`` hands the engine
    the pair's shared ``=e`` table (:meth:`KeyTable.for_pair`).  The
    table is built in the compute step, so a hit never parses either
    trace's key table.
    """
    from repro.api.engines import is_cacheable

    def compute() -> DiffResult:
        table = key_table
        if table is None and (config is None or config.interned):
            table = KeyTable.for_pair(left, right)
        return engine.diff(left, right, config=config, counter=counter,
                           budget=budget, key_table=table)

    if cache is None or budget is not None or not is_cacheable(engine):
        return compute()
    key = cache.key_for(left, right, engine.name, config)
    hit = cache.get(key, left, right)
    if hit is not None:
        if counter is not None:
            counter.bump(hit.counter.compares)
            counter.charge(hit.counter.charged)
        return hit
    # ``counter`` may be a shared accumulator spanning many diffs (the
    # harness drives one counter through six); the cache entry must
    # record only *this* diff's cost, so measure the delta around the
    # computation.
    before = (counter.compares, counter.charged) \
        if counter is not None else None
    result = compute()
    totals = None  # the engine kept its own (fresh, per-diff) counter
    if before is not None and result.counter is counter:
        totals = (counter.compares - before[0],
                  counter.charged - before[1])
    cache.put(key, result, counter_totals=totals)
    return result
