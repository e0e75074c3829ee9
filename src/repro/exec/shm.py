"""Zero-copy trace shipping over ``multiprocessing.shared_memory``.

Process executors used to ship every trace as wire text *pickled
through the task queue*: the text was copied into the pickle stream,
through the pipe, and out again on the far side — three copies of
half a megabyte per trace, per round trip.  This module ships the
binary v3 wire bytes through named shared-memory segments instead: the
producer writes the bytes once, the consumer maps the segment and
decodes straight from a :class:`memoryview` slice, and only a tiny
*handle* (segment name, offset, length, content digest) rides the
queue.

Three guarantees shape the design:

* **Transparent fallback** — when ``multiprocessing.shared_memory`` is
  unavailable (platform, permissions, an exhausted ``/dev/shm``), every
  ship call degrades to an ``inline`` handle carrying the wire bytes
  themselves.  Consumers never know the difference; results are identical.
* **Guaranteed unlink** — every segment this process creates is named
  with a per-process prefix and tracked by a :class:`SegmentRegistry`.
  Segments are unlinked on normal release, on pool close, at
  interpreter exit (``atexit``), and — because names are prefixed —
  :meth:`SegmentRegistry.sweep` can collect orphans left by a crashed
  or interrupted worker by globbing ``/dev/shm``.
* **At most one crossing per worker** — handles carry the trace's
  content digest, so the worker side (:mod:`repro.exec.workerstate`)
  memoises decoded traces per pid and never re-attaches a segment it
  has already decoded.

The registry also keeps the shipping statistics (segments created,
bytes shipped in either direction) that ``repro serve`` surfaces in its
``/v1/stats`` workers row.
"""

from __future__ import annotations

import atexit
import os
import threading
from pathlib import Path

__all__ = [
    "SegmentRegistry", "TraceShippingError", "adopt_segment_bytes",
    "adopt_segment_view", "parent_registry", "shm_available", "shm_stats",
]

#: Where POSIX shared memory surfaces as files (the sweep path).  On
#: platforms without it the registry still unlinks everything it
#: tracks; only orphan *sweeping* needs the directory.
SHM_DIR = Path("/dev/shm")

#: Force the inline fallback everywhere (tests, and an escape hatch for
#: platforms where shared memory exists but misbehaves).
FORCE_INLINE = False

#: Below this combined payload size a lease ships its traces inline
#: through the result pipe instead of a shared-memory segment.  A
#: segment costs two syscall round-trips (create+unlink) plus an mmap
#: on each side; for payloads this small the pipe copy is cheaper, and
#: binary v3 still decodes lazily over the pickled bytes.  Tune via
#: ``REPRO_SHM_SHIP_MIN`` (bytes; 0 ships everything).
SHIP_MIN_BYTES = int(os.environ.get("REPRO_SHM_SHIP_MIN", str(64 * 1024)))

_shm_probe_lock = threading.Lock()
_shm_probe: "bool | None" = None


class TraceShippingError(RuntimeError):
    """A shared-memory handle could not be resolved (segment evicted,
    unlinked by a racing cleanup, or the platform refused the attach).
    Callers fall back to inline shipping or inline execution."""


def _shared_memory_module():
    """The ``shared_memory`` module, or ``None`` when unimportable or
    disabled (tests monkeypatch this away to exercise the fallback)."""
    if FORCE_INLINE:
        return None
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without shm
        return None
    return shared_memory


def shm_available() -> bool:
    """Whether shared-memory shipping works here (probed once: the
    module may import fine yet creation fail on locked-down hosts)."""
    global _shm_probe
    if FORCE_INLINE:
        return False
    with _shm_probe_lock:
        if _shm_probe is None:
            module = _shared_memory_module()
            if module is None:
                _shm_probe = False
            else:
                try:
                    probe = module.SharedMemory(create=True, size=16)
                    probe.close()
                    probe.unlink()
                    _shm_probe = True
                except (OSError, ValueError):  # pragma: no cover
                    _shm_probe = False
        return _shm_probe


def _untrack(name: str) -> None:
    """Detach ``name`` from multiprocessing's resource tracker.

    The :class:`SegmentRegistry` owns segment lifecycles outright
    (deliberate unlink + prefix sweep); leaving segments registered
    with the tracker as well means double unlinks and noisy "leaked
    shared_memory" warnings when the *other* side of a ship is the one
    that cleans up.  Best-effort: tracker internals are private."""
    try:  # pragma: no cover - depends on CPython internals
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - tracker variance is harmless
        pass


class SegmentRegistry:
    """Tracks every shared-memory segment this process creates or
    adopts, with refcounts and guaranteed unlink.

    ``prefix`` namespaces the segment names; the parent's registry
    passes its prefix to workers so *their* segments are sweepable by
    the parent even if the worker dies before handing the name back.
    """

    def __init__(self, prefix: str | None = None):
        self.prefix = prefix or f"reproshm{os.getpid():x}"
        self._lock = threading.Lock()
        self._segments: dict[str, object] = {}    # name -> SharedMemory
        self._refs: dict[str, int] = {}
        self._by_digest: dict[str, str] = {}      # content digest -> name
        self._counter = 0
        self.segments_created = 0
        self.bytes_shipped = 0
        self.bytes_received = 0
        self.sweeps = 0

    # -- creation ------------------------------------------------------------

    def _next_name(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self.prefix}_{os.getpid():x}_{self._counter:x}"

    def create(self, payload: bytes, *, digest: str | None = None
               ) -> "str | None":
        """Write ``payload`` into a fresh tracked segment; returns its
        name, or ``None`` when shared memory is unavailable (callers
        then ship inline).  ``digest`` keys the segment for reuse: a
        second ship of the same content returns the existing segment —
        one copy of a trace per process, however many diffs ship it."""
        if digest is not None:
            with self._lock:
                name = self._by_digest.get(digest)
                if name is not None and name in self._segments:
                    self._refs[name] += 1
                    return name
        if not shm_available():
            return None
        module = _shared_memory_module()
        name = self._next_name()
        try:
            segment = module.SharedMemory(name=name, create=True,
                                          size=max(1, len(payload)))
        except (OSError, ValueError):  # pragma: no cover - shm exhausted
            return None
        _untrack(name)
        segment.buf[:len(payload)] = payload
        with self._lock:
            self._segments[name] = segment
            self._refs[name] = 1
            if digest is not None:
                self._by_digest[digest] = name
            self.segments_created += 1
            self.bytes_shipped += len(payload)
        return name

    # -- release -------------------------------------------------------------

    def release(self, name: str) -> None:
        """Drop one reference; the segment is unlinked when the last
        reference goes."""
        with self._lock:
            if name not in self._segments:
                return
            self._refs[name] -= 1
            if self._refs[name] > 0:
                return
            segment = self._segments.pop(name)
            self._refs.pop(name, None)
            for digest, seg_name in list(self._by_digest.items()):
                if seg_name == name:
                    del self._by_digest[digest]
        _destroy(segment)

    def release_all(self) -> None:
        """Unlink every tracked segment (pool close, interpreter
        exit)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._refs.clear()
            self._by_digest.clear()
        for segment in segments:
            _destroy(segment)

    def sweep(self) -> int:
        """Unlink orphaned segments: ``/dev/shm`` entries carrying this
        registry's prefix that no live tracked segment owns.  Collects
        what a crashed worker or an interrupted batch left behind;
        returns the number collected.  No-op where the sweep directory
        does not exist."""
        if not SHM_DIR.is_dir():
            return 0
        with self._lock:
            live = set(self._segments)
        collected = 0
        for path in SHM_DIR.glob(f"{self.prefix}_*"):
            if path.name in live:
                continue
            try:
                path.unlink()
                collected += 1
            except OSError:  # pragma: no cover - raced another cleanup
                pass
        if collected:
            with self._lock:
                self.sweeps += 1
        return collected

    # -- introspection -------------------------------------------------------

    def tracked(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._segments)

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments_live": len(self._segments),
                "segments_created": self.segments_created,
                "bytes_shipped": self.bytes_shipped,
                "bytes_received": self.bytes_received,
                "sweeps": self.sweeps,
            }


def _retrack(name: str) -> None:
    """Re-register ``name`` with the resource tracker immediately
    before an unlink.  ``SharedMemory.unlink`` unconditionally sends an
    unregister message, and the tracker prints a ``KeyError`` traceback
    for names it is not holding — which is every registry segment,
    because :func:`_untrack` detached them at creation.  Registering
    right before the unlink makes the tracker's books balance exactly.
    Best-effort, mirroring :func:`_untrack`."""
    try:  # pragma: no cover - depends on CPython internals
        from multiprocessing import resource_tracker
        resource_tracker.register(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001 - tracker variance is harmless
        pass


def _destroy(segment) -> None:
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - mapped views
        pass
    _retrack(segment.name)
    try:
        segment.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - already gone
        # unlink raised before its own unregister ran; detach the name
        # again so the tracker does not try to clean it at exit.
        _untrack(segment.name)


def adopt_segment_bytes(name: str, length: int, *,
                        registry: "SegmentRegistry | None" = None,
                        unlink: bool = True) -> bytes:
    """Attach a segment created by the *other* side of a ship, copy its
    payload out, and (by default) unlink it — the adopt-and-consume
    path for worker-produced capture results.  Raises
    :class:`TraceShippingError` when the segment is gone."""
    module = _shared_memory_module()
    if module is None:
        raise TraceShippingError(f"shared memory unavailable; cannot "
                                 f"attach segment {name!r}")
    try:
        segment = module.SharedMemory(name=name)
    except (OSError, ValueError) as exc:
        raise TraceShippingError(
            f"cannot attach shared-memory segment {name!r}: {exc}"
        ) from None
    _untrack(name)
    try:
        payload = bytes(memoryview(segment.buf)[:length])
    finally:
        if unlink:
            _destroy(segment)
        else:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
    if registry is not None:
        with registry._lock:
            registry.bytes_received += len(payload)
    return payload


class _SegmentKeepalive:
    """Pins a mapped segment for the lifetime of zero-copy views.

    :func:`adopt_segment_view` hands decoders raw ``memoryview``s over
    the mapping; POSIX keeps an *unlinked* segment's memory alive while
    any mapping exists, so unlink can happen eagerly and the map is
    freed by refcount when the last view (and this keepalive) goes.
    ``close()`` is deliberately tolerant: while derived views are still
    alive the ``BufferError`` from ``SharedMemory.close`` is expected —
    the mmap is released when those views die.
    """

    __slots__ = ("_segment",)

    def __init__(self, segment):
        self._segment = segment

    def close(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
            return
        except OSError:  # pragma: no cover - platform close variance
            return
        except BufferError:
            pass
        # Views outlive us.  Hand the mapping's lifetime to them: every
        # exported view holds a reference to the mmap object, which
        # unmaps on its own dealloc when the last view dies.  Drop the
        # segment's references so its finalizer does not retry the
        # close (an unraisable BufferError), and close the fd here so
        # it never leaks.
        try:
            if segment._buf is not None:
                segment._buf.release()
        except (AttributeError, BufferError):  # pragma: no cover
            pass
        segment._buf = None
        segment._mmap = None
        fd = getattr(segment, "_fd", -1)
        if isinstance(fd, int) and fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            segment._fd = -1

    def __del__(self):  # pragma: no cover - GC timing
        self.close()


def adopt_segment_view(name: str, length: int, *,
                       registry: "SegmentRegistry | None" = None,
                       unlink: bool = True,
                       ) -> "tuple[memoryview, _SegmentKeepalive]":
    """Attach a segment and expose its payload **without copying**:
    returns ``(view, keepalive)`` where ``view`` is a ``memoryview`` of
    the first ``length`` bytes of the mapping and ``keepalive`` pins
    the mapping (pass it to ``loads_trace(view, keepalive=...)`` so the
    decoded trace owns it).  The segment name is unlinked immediately
    by default — the memory itself lives until the last view dies.
    Raises :class:`TraceShippingError` when the segment is gone."""
    module = _shared_memory_module()
    if module is None:
        raise TraceShippingError(f"shared memory unavailable; cannot "
                                 f"attach segment {name!r}")
    try:
        segment = module.SharedMemory(name=name)
    except (OSError, ValueError) as exc:
        raise TraceShippingError(
            f"cannot attach shared-memory segment {name!r}: {exc}"
        ) from None
    _untrack(name)
    if unlink:
        _retrack(name)
        try:
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - raced
            _untrack(name)
    view = memoryview(segment.buf)[:length]
    if registry is not None:
        with registry._lock:
            registry.bytes_received += length
    return view, _SegmentKeepalive(segment)


_ship_counter_lock = threading.Lock()
_ship_counter = 0


def ship_untracked(payload: bytes, prefix: str) -> "tuple[str, int] | None":
    """Write ``payload`` to a fresh segment whose *ownership transfers
    with the handle*: the producer (a capture worker) forgets it
    immediately, the consumer (the parent) adopts and unlinks it via
    :func:`adopt_segment_bytes`.  Named under the consumer's
    ``prefix`` so an orphan — producer crashed after the write, or the
    batch was interrupted before the adopt — is collected by the
    consumer's :meth:`SegmentRegistry.sweep`.  Returns ``(name, size)``
    or ``None`` when shared memory is unavailable."""
    global _ship_counter
    if not shm_available():
        return None
    module = _shared_memory_module()
    with _ship_counter_lock:
        _ship_counter += 1
        name = f"{prefix}_{os.getpid():x}_w{_ship_counter:x}"
    try:
        segment = module.SharedMemory(name=name, create=True,
                                      size=max(1, len(payload)))
    except (OSError, ValueError):  # pragma: no cover - shm exhausted
        return None
    _untrack(name)
    segment.buf[:len(payload)] = payload
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover
        pass
    return name, len(payload)


#: The parent-side registry of this process (created on first use).
_parent_registry: SegmentRegistry | None = None
_parent_lock = threading.Lock()


def parent_registry() -> SegmentRegistry:
    """This process's segment registry (one per process, atexit-
    cleaned)."""
    global _parent_registry
    with _parent_lock:
        if _parent_registry is None:
            _parent_registry = SegmentRegistry()
            atexit.register(_parent_registry.release_all)
        return _parent_registry


def shm_stats() -> dict:
    """Shipping statistics of this process's registry (zeros before
    first use — the service's /stats must not *create* a registry)."""
    with _parent_lock:
        if _parent_registry is None:
            return SegmentRegistry(prefix="unused").stats()
    return _parent_registry.stats()
